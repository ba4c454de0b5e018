"""Pure-Python reference implementations of the analytics kernels.

This module preserves the row-at-a-time algorithms the vectorized
kernels in :mod:`repro.postprocess.dataframe` and the block-wise parser
in :mod:`repro.postprocess.perflog_reader` replaced.  They serve two
jobs:

* **Executable specification** -- the property tests in
  :mod:`tests.postprocess.test_kernels_property` assert that the
  vectorized kernels are *result-identical* to these functions on
  randomized frames (mixed dtypes, missing columns, duplicate keys,
  empty groups).
* **Perf baseline** -- ``benchmarks/test_postprocess_throughput.py``
  measures the vectorized ingest/groupby speedup against this path (the
  pre-vectorization reader), so the committed speedups in
  ``BENCH_postprocess.json`` stay honest.

The semantics here include the schema fixes that rode along with the
vectorization (empty-frame-preserving ``concat``, duplicate-rejecting
``pivot``): reference and vectorized paths implement the same contract
with independent algorithms.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.postprocess.dataframe import DataFrame, DataFrameError
from repro.runner.perflog import PERFLOG_FIELDS

__all__ = [
    "reference_read_perflog",
    "reference_concat",
    "reference_groupby",
    "reference_pivot",
    "reference_filter",
    "reference_unique",
]

_NUMERIC = {"perf_value", "num_tasks"}


def _parse_line(line: str, path: str, lineno: int) -> dict:
    """Row-at-a-time perflog line parser (the pre-vectorization path)."""
    from repro.postprocess.perflog_reader import PerflogFormatError

    parts = line.rstrip("\n").split("|")
    if len(parts) != len(PERFLOG_FIELDS):
        raise PerflogFormatError(
            f"{path}:{lineno}: expected {len(PERFLOG_FIELDS)} fields, "
            f"got {len(parts)}"
        )
    rec = dict(zip(PERFLOG_FIELDS, parts))
    for key in _NUMERIC:
        try:
            rec[key] = float(rec[key])
        except ValueError as exc:
            raise PerflogFormatError(
                f"{path}:{lineno}: field {key}={rec[key]!r} is not numeric"
            ) from exc
    return rec


def reference_read_perflog(path: str) -> DataFrame:
    """One perflog file -> DataFrame, one dict per row (pre-PR reader)."""
    from repro.postprocess.perflog_reader import PerflogFormatError

    header_line = "|".join(PERFLOG_FIELDS)
    records = []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped == header_line:
            continue  # initial header or an append-coalescing boundary
        if lineno == 1 and stripped.startswith("timestamp|"):
            raise PerflogFormatError(
                f"{path}: unexpected header {tuple(stripped.split('|'))}"
            )
        records.append(_parse_line(line, path, lineno))
    frame = DataFrame.from_records(records, columns=list(PERFLOG_FIELDS))
    frame["perflog_path"] = [path] * len(frame)
    return frame


def reference_concat(frames: Sequence[DataFrame]) -> DataFrame:
    """Row-wise concatenation via ``.tolist()`` accumulation."""
    names: List[str] = []
    for f in frames:
        for name in f.columns:
            if name not in names:
                names.append(name)
    live = [f for f in frames if len(f) > 0]
    if not live:
        out = DataFrame()
        for f in frames:
            for name in f.columns:
                if name not in out._cols:
                    out._cols[name] = f[name][:0].copy()
        return out
    data: Dict[str, List[Any]] = {n: [] for n in names}
    for f in live:
        n = len(f)
        for name in names:
            if name in f:
                data[name].extend(f[name].tolist())
            else:
                data[name].extend([None] * n)
    return DataFrame(data)


def reference_groupby(
    frame: DataFrame,
    keys: List[str],
    agg: Dict[str, Callable[[np.ndarray], Any]],
) -> DataFrame:
    """Hash-per-row-tuple groupby (the pre-vectorization kernel)."""
    for key in keys:
        frame[key]
    groups: Dict[tuple, List[int]] = {}
    for i in range(len(frame)):
        key = tuple(frame[k][i] for k in keys)
        groups.setdefault(key, []).append(i)
    records = []
    for key, idxs in groups.items():
        rec = dict(zip(keys, key))
        for col, reducer in agg.items():
            values = frame[col][idxs]
            rec[col] = reducer(values)
        records.append(rec)
    return DataFrame.from_records(records, columns=keys + list(agg))


def reference_unique(frame: DataFrame, column: str) -> List[Any]:
    seen: Dict[Any, None] = {}
    for v in frame[column]:
        seen.setdefault(v, None)
    return list(seen)


def reference_pivot(
    frame: DataFrame,
    index: str,
    series: str,
    values: str,
    reducer: Optional[Callable[[np.ndarray], Any]] = None,
) -> Tuple[List[Any], Dict[Any, List[Any]]]:
    """Row-loop pivot with the duplicate-cell contract of the kernel."""
    idx_labels = reference_unique(frame, index)
    series_labels = reference_unique(frame, series)
    cells: Dict[tuple, List[int]] = {}
    for i in range(len(frame)):
        cells.setdefault((frame[series][i], frame[index][i]), []).append(i)
    for (s, x), idxs in cells.items():
        if len(idxs) > 1 and reducer is None:
            raise DataFrameError(
                f"pivot: {len(idxs)} rows map to cell (index={x!r}, "
                f"series={s!r}); pass reducer= to aggregate duplicates"
            )
    table: Dict[Any, List[Any]] = {
        s: [None] * len(idx_labels) for s in series_labels
    }
    pos = {label: i for i, label in enumerate(idx_labels)}
    for (s, x), idxs in cells.items():
        if len(idxs) == 1:
            table[s][pos[x]] = frame[values][idxs[0]]
        else:
            table[s][pos[x]] = reducer(frame[values][idxs])
    return idx_labels, table


def reference_filter(
    frame: DataFrame, predicate: Callable[[Dict[str, Any]], bool]
) -> DataFrame:
    """Dict-per-row predicate filtering (the pre-vectorization path)."""
    keep = np.array(
        [bool(predicate(frame.row(i))) for i in range(len(frame))],
        dtype=bool,
    )
    return frame.mask(keep)
