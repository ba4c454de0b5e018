"""Read perflogs into DataFrames -- block-wise and vectorized.

"If more than one perflog is used for plotting, DataFrames from individual
perflogs are concatenated together into one DataFrame -- this feature is
crucial for cross-platform data assimilation in a predictable manner where
perflogs are generated on isolated systems." (Section 2.4)

Ingest is **columnar from the first byte**: :func:`parse_block` splits a
whole file (or an appended byte range) into a flat field vector with one
C-level ``str.split``, reshapes it to ``rows x fields``, and types the
numeric columns as float64 -- no per-line dict is ever built.  Clean
files (the writer's own output) never leave the fast path; padded
headers, stray blank lines or malformed rows fall back to a strict
per-line scan that reproduces the historical diagnostics exactly.  The
pre-vectorization row-at-a-time reader is kept in the test suite
(``tests/postprocess/reference.py``) as the executable specification
and perf baseline.

Every caller reads a log whole: a final row without its newline is read
like any other, and a torn one raises :class:`PerflogFormatError`
naming ``path:line`` (``repro-fsck`` heals torn tails).
"""

from __future__ import annotations

import glob
import os
from typing import Dict, List, Optional

import numpy as np

from repro.postprocess.dataframe import DataFrame
from repro.runner.perflog import PERFLOG_FIELDS

__all__ = ["read_perflog", "read_perflogs", "parse_block",
           "PerflogFormatError"]


class PerflogFormatError(ValueError):
    """A perflog line does not match the expected schema."""


_NUMERIC = ("num_tasks", "perf_value")
_HEADER_LINE = "|".join(PERFLOG_FIELDS)
_HEADER_TEXT = _HEADER_LINE + "\n"
_N_FIELDS = len(PERFLOG_FIELDS)


def _empty_columns() -> Dict[str, np.ndarray]:
    # NB: matches the historical ``from_records([], columns=...)`` dtype
    # (empty float64) so the reference reader's frames stay bit-identical
    return {name: np.asarray([]) for name in PERFLOG_FIELDS}


def _columns_from_table(
    table: np.ndarray,
    path: str,
    linenos: "np.ndarray",
) -> Dict[str, np.ndarray]:
    """rows x fields object table -> typed column dict."""
    cols: Dict[str, np.ndarray] = {}
    for k, name in enumerate(PERFLOG_FIELDS):
        col = table[:, k]
        if name in _NUMERIC:
            try:
                cols[name] = col.astype(np.float64)
            except (ValueError, TypeError):
                for i, raw in enumerate(col.tolist()):
                    try:
                        float(raw)
                    except ValueError as exc:
                        raise PerflogFormatError(
                            f"{path}:{int(linenos[i])}: field "
                            f"{name}={raw!r} is not numeric"
                        ) from exc
                raise  # pragma: no cover - astype failed, scan did not
        else:
            cols[name] = col.copy()
    return cols


def _parse_block_slow(lines: List[str], path: str) -> Dict[str, np.ndarray]:
    """Strict per-line scan for files with padded headers / blanks /
    malformed rows; reproduces the historical diagnostics exactly."""
    kept: List[str] = []
    linenos: List[int] = []
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped == _HEADER_LINE:
            continue
        if len(line.split("|")) != _N_FIELDS:
            raise PerflogFormatError(
                f"{path}:{lineno}: expected {_N_FIELDS} "
                f"fields, got {len(line.split('|'))}"
            )
        kept.append(line)
        linenos.append(lineno)
    if not kept:
        return _empty_columns()
    table = np.array("|".join(kept).split("|"), dtype=object)
    table = table.reshape(len(kept), _N_FIELDS)
    return _columns_from_table(table, path, np.asarray(linenos))


def _columns_from_flat(flat: List[str]) -> Dict[str, np.ndarray]:
    """Flat field list -> typed columns via stride slicing.

    Raises a bare :class:`PerflogFormatError` on any numeric-conversion
    failure; the caller re-parses on the general path, which localizes
    the offending line and reproduces the historical diagnostics.
    """
    cols: Dict[str, np.ndarray] = {}
    for k, name in enumerate(PERFLOG_FIELDS):
        sl = flat[k::_N_FIELDS]
        if name in _NUMERIC:
            try:
                cols[name] = np.array(sl, dtype=np.float64)
            except (ValueError, TypeError) as exc:
                raise PerflogFormatError(str(exc)) from exc
        else:
            cols[name] = np.array(sl, dtype=object)
    return cols


def parse_block(text: str, path: str) -> Dict[str, np.ndarray]:
    """Vectorized parse of one perflog's text -> typed columns.

    ``path`` only names the file in error messages.  Header lines
    anywhere in the block are append-coalescing boundaries and are
    skipped.

    Clean blocks -- newline-terminated, no blank lines, no ``\\r``, at
    most one leading header (the writer's own output) -- take a
    *zero-line-array* fast path: the whole block becomes one flat field
    vector with a single C-level ``str.split`` and columns are strided
    slices of it.  Anything irregular falls through to the general path
    below, and from there to the strict per-line scan.
    """
    if (text.endswith("\n") and not text.startswith("\n")
            and "\n\n" not in text and "\r" not in text):
        body = text
        if body.startswith(_HEADER_TEXT):
            body = body[len(_HEADER_TEXT):]
        if not body:
            return _empty_columns()
        if not (body.startswith(_HEADER_TEXT)
                or ("\n" + _HEADER_TEXT) in body):
            n_rows = body.count("\n")
            flat = body[:-1].replace("\n", "|").split("|")
            if len(flat) == _N_FIELDS * n_rows:
                try:
                    return _columns_from_flat(flat)
                except PerflogFormatError:
                    pass  # general path localizes the bad line/header
    lines = text.splitlines()
    if not lines:
        return _empty_columns()
    first = lines[0].strip()
    if first.startswith("timestamp|") and first != _HEADER_LINE:
        raise PerflogFormatError(
            f"{path}: unexpected header {tuple(first.split('|'))}"
        )
    arr = np.array(lines, dtype=object)
    keep = (arr != _HEADER_LINE) & (arr != "")
    kept = arr[keep].tolist()
    if not kept:
        return _empty_columns()
    flat = "|".join(kept).split("|")
    if len(flat) != _N_FIELDS * len(kept):
        # whitespace-padded headers, space-only lines or malformed rows:
        # take the strict per-line path for exact diagnostics
        return _parse_block_slow(lines, path)
    table = np.array(flat, dtype=object).reshape(len(kept), _N_FIELDS)
    # line numbers are only materialized lazily, on a conversion error
    try:
        return _columns_from_table(table, path, _LazyLinenos(keep))
    except PerflogFormatError:
        # a whitespace-padded header can masquerade as a 12-field data
        # row; the strict scan strips and skips it -- or re-raises the
        # same diagnostic if the row is genuinely malformed
        return _parse_block_slow(lines, path)


class _LazyLinenos:
    """Defers the keep-mask -> line-number conversion to the error path."""

    __slots__ = ("_keep", "_resolved")

    def __init__(self, keep: np.ndarray):
        self._keep = keep
        self._resolved: Optional[np.ndarray] = None

    def __getitem__(self, i: int) -> int:
        if self._resolved is None:
            self._resolved = np.flatnonzero(self._keep) + 1
        return int(self._resolved[i])


def _frame_from_columns(cols: Dict[str, np.ndarray], path: str) -> DataFrame:
    frame = DataFrame._from_columns(
        {name: cols[name] for name in PERFLOG_FIELDS}
    )
    n = len(frame)
    if n:
        frame["perflog_path"] = np.full(n, path, dtype=object)
    else:
        frame["perflog_path"] = np.asarray([])  # historical empty dtype
    return frame


def read_perflog(path: str) -> DataFrame:
    """One perflog file -> DataFrame (header line is validated).

    Appended/concatenated logs are **coalesced**: perflogs are append-only
    and isolated systems often assemble campaign logs by concatenating
    per-run files (``cat run1.log run2.log``), which leaves duplicate
    header lines mid-file.  Any line matching the canonical header is
    treated as a segment boundary and skipped, so a coalesced log reads
    exactly like one continuous perflog.  The whole file is parsed
    block-wise (see :func:`parse_block`).
    """
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    return _frame_from_columns(parse_block(text, path), path)


def read_perflogs(prefix_or_glob: str) -> DataFrame:
    """All perflogs under a directory (or matching a glob), concatenated
    in sorted path order."""
    if os.path.isdir(prefix_or_glob):
        paths = sorted(
            glob.glob(os.path.join(prefix_or_glob, "**", "*.log"),
                      recursive=True)
        )
    else:
        paths = sorted(glob.glob(prefix_or_glob))
    if not paths:
        raise FileNotFoundError(f"no perflogs under {prefix_or_glob!r}")
    return DataFrame.concat([read_perflog(p) for p in paths])
