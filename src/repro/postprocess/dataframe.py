"""A minimal column-store DataFrame (the pandas subset the pipeline needs).

Columns are numpy arrays (object dtype for strings), rows are implicit.
Supported operations mirror what the paper's post-processing scripts do
with pandas: construction from records, selection, boolean-mask
filtering, concatenation (the "crucial" cross-platform assimilation
step), group-by aggregation, sorting, pivoting for chart series, and CSV
round-tripping.

The compute kernels are **vectorized**: ``groupby`` factorizes its key
columns and finds group boundaries with one stable ``np.argsort`` instead
of hashing per-row tuples, ``concat`` is a zero-copy ``np.concatenate``
per column, ``pivot`` scatters values through integer cell codes, and
``filter``/``with_column`` evaluate their callables against a reusable
row *view* instead of materializing one dict per row.  A pure-Python
reference implementation of every kernel is kept in the test suite
(``tests/postprocess/reference.py``); property tests assert the two
paths are result-identical (the reference is the executable
specification).

Floating-point bit-identity note: group reductions are applied to
*contiguous slices* of the stably-sorted value column, which contain the
group's values in original row order -- so ``np.mean``/``np.sum`` see
exactly the operand sequence the reference path sees and produce
bit-identical results (``np.add.reduceat`` would not: it skips numpy's
pairwise summation).  Order-insensitive reducers (``np.min``/``np.max``/
``len``) use exact vectorized ``reduceat``/count fast paths.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Mapping
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["DataFrame", "DataFrameError"]


class DataFrameError(ValueError):
    """Schema violations: unknown columns, ragged data, bad merges."""


def _factorize(arr: np.ndarray) -> Tuple[np.ndarray, List[Any]]:
    """``arr -> (codes, labels)`` with labels in first-appearance order.

    Numeric/bool columns go through sort-based ``np.unique``; object
    columns use a hash-based scan -- faster than sorting python objects
    *and* it keeps the historical dict semantics (hash/eq identity, no
    ordering required), which also covers unorderable mixes like
    str vs None.
    """
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=np.int64), []
    if arr.dtype.kind == "O":
        codes = np.empty(n, dtype=np.int64)
        table: Dict[Any, int] = {}
        labels: List[Any] = []
        for i, v in enumerate(arr.tolist()):
            code = table.get(v)
            if code is None:
                code = table[v] = len(labels)
                labels.append(v)
            codes[i] = code
        return codes, labels
    uniq, first, inv = np.unique(arr, return_index=True,
                                 return_inverse=True)
    # remap sorted-unique codes to first-appearance order
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    codes = rank[inv.reshape(-1)]
    return codes, list(uniq[order])


class _RowView(Mapping):
    """Read-only dict-like proxy for one row; reused across the scan.

    Handed to ``filter``/``with_column`` callables so predicates keep
    their ``row["column"]`` shape without a per-row dict allocation.
    """

    __slots__ = ("_cols", "_i")

    def __init__(self, cols: Dict[str, np.ndarray]):
        self._cols = cols
        self._i = 0

    def __getitem__(self, key: str) -> Any:
        try:
            col = self._cols[key]
        except KeyError:
            raise KeyError(key) from None
        return col[self._i]

    def __iter__(self):
        return iter(self._cols)

    def __len__(self) -> int:
        return len(self._cols)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return repr({k: c[self._i] for k, c in self._cols.items()})


#: reducers with exact (order-insensitive) vectorized fast paths
_EXACT_FAST_REDUCERS = {id(np.min): "min", id(np.max): "max",
                        id(np.amin): "min", id(np.amax): "max",
                        id(len): "count", id(np.size): "count"}

_CSV_DTYPE_TAGS = {"f": "float", "i": "int", "u": "int", "b": "bool"}
_CSV_TAG_SET = ("float", "int", "str", "bool")


def _csv_encode_str(v: Any) -> str:
    r"""Lossless cell text for object columns: ``None`` -> ``\N``,
    strings beginning with a backslash gain one escape backslash."""
    if v is None:
        return "\\N"
    s = str(v)
    if s.startswith("\\"):
        return "\\" + s
    return s


def _csv_decode_str(s: str) -> Any:
    if s == "\\N":
        return None
    if s.startswith("\\"):
        return s[1:]
    return s


class DataFrame:
    """An ordered mapping column-name -> numpy array, all equal length."""

    def __init__(self, data: Optional[Dict[str, Sequence[Any]]] = None):
        self._cols: Dict[str, np.ndarray] = {}
        if data:
            lengths = {len(v) for v in data.values()}
            if len(lengths) > 1:
                raise DataFrameError(f"ragged columns: lengths {sorted(lengths)}")
            for name, values in data.items():
                self._cols[name] = self._as_array(values)

    @staticmethod
    def _as_array(values: Sequence[Any]) -> np.ndarray:
        arr = np.asarray(values)
        if arr.dtype.kind in ("U", "S"):
            arr = arr.astype(object)
        return arr

    # -- construction -----------------------------------------------------------
    @classmethod
    def _from_columns(cls, cols: Dict[str, np.ndarray]) -> "DataFrame":
        """Internal trusted constructor: adopt arrays without copy/checks."""
        out = cls()
        out._cols = dict(cols)
        return out

    @classmethod
    def from_records(
        cls, records: Iterable[Dict[str, Any]], columns: Optional[List[str]] = None
    ) -> "DataFrame":
        records = list(records)
        if not records and not columns:
            return cls()
        names = columns or list(records[0].keys())
        data = {
            name: [rec.get(name) for rec in records] for name in names
        }
        return cls(data)

    @classmethod
    def concat(cls, frames: Sequence["DataFrame"]) -> "DataFrame":
        """Row-wise concatenation; columns are the union, missing -> None.

        Zero-copy per column: each output column is one
        ``np.concatenate`` over the source arrays (plus ``None`` filler
        blocks for frames lacking the column).  Empty-but-typed frames
        contribute their **schema**: concatenating only empty frames
        preserves their columns (and dtypes) instead of collapsing to a
        column-less frame.
        """
        names: List[str] = []
        for f in frames:
            for name in f.columns:
                if name not in names:
                    names.append(name)
        live = [f for f in frames if len(f) > 0]
        if not live:
            # schema-only result: keep each column's typed empty array
            out = cls()
            for f in frames:
                for name, col in f._cols.items():
                    if name not in out._cols:
                        out._cols[name] = col[:0].copy()
            return out
        cols: Dict[str, np.ndarray] = {}
        for name in names:
            pieces = []
            for f in live:
                col = f._cols.get(name)
                if col is None:
                    pieces.append(np.full(len(f), None, dtype=object))
                else:
                    pieces.append(col)
            cols[name] = np.concatenate(pieces)
        return cls._from_columns(cols)

    # -- introspection --------------------------------------------------------------
    @property
    def columns(self) -> List[str]:
        return list(self._cols)

    def __len__(self) -> int:
        if not self._cols:
            return 0
        return len(next(iter(self._cols.values())))

    @property
    def empty(self) -> bool:
        return len(self) == 0

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self._cols:
            raise DataFrameError(
                f"no column {name!r}; have {', '.join(self.columns)}"
            )
        return self._cols[name]

    def __setitem__(self, name: str, values: Sequence[Any]) -> None:
        arr = self._as_array(values)
        if self._cols and len(arr) != len(self):
            raise DataFrameError(
                f"column {name!r} length {len(arr)} != frame length {len(self)}"
            )
        self._cols[name] = arr

    def __contains__(self, name: str) -> bool:
        return name in self._cols

    def row(self, index: int) -> Dict[str, Any]:
        return {name: self._cols[name][index] for name in self._cols}

    def to_records(self) -> List[Dict[str, Any]]:
        return [self.row(i) for i in range(len(self))]

    # -- transformation -------------------------------------------------------------
    def select(self, names: List[str]) -> "DataFrame":
        missing = [n for n in names if n not in self._cols]
        if missing:
            raise DataFrameError(f"unknown columns {missing}")
        out = DataFrame()
        for n in names:
            out._cols[n] = self._cols[n].copy()
        return out

    def mask(self, condition: np.ndarray) -> "DataFrame":
        condition = np.asarray(condition, dtype=bool)
        if condition.shape != (len(self),):
            raise DataFrameError("mask length mismatch")
        out = DataFrame()
        for name, col in self._cols.items():
            out._cols[name] = col[condition]
        return out

    def filter(self, predicate: Callable[[Mapping], bool]) -> "DataFrame":
        """Keep rows where ``predicate(row)`` is truthy.

        The callable receives a reusable read-only mapping view of the
        row (``row["col"]``); no per-row dict is materialized.
        """
        n = len(self)
        keep = np.empty(n, dtype=bool)
        view = _RowView(self._cols)
        for i in range(n):
            view._i = i
            keep[i] = bool(predicate(view))
        return self.mask(keep)

    def filter_eq(self, column: str, value: Any) -> "DataFrame":
        return self.mask(self[column] == value)

    def filter_in(self, column: str, values: Iterable[Any]) -> "DataFrame":
        values = set(values)
        col = self[column]
        if col.dtype.kind != "O":
            try:
                keep = np.isin(col, list(values))
                return self.mask(keep)
            except (TypeError, ValueError):  # unorderable mix: fall through
                pass
        keep = np.fromiter(
            (v in values for v in col.tolist()), dtype=bool, count=len(col)
        )
        return self.mask(keep)

    def sort_values(self, by: str, ascending: bool = True) -> "DataFrame":
        col = self[by]
        order = np.argsort(col, kind="stable")
        if not ascending:
            order = order[::-1]
        out = DataFrame()
        for name, c in self._cols.items():
            out._cols[name] = c[order]
        return out

    def unique(self, column: str) -> List[Any]:
        """Distinct values in first-appearance order (vectorized)."""
        return _factorize(self[column])[1]

    def with_column(
        self, name: str, fn: Callable[[Mapping], Any]
    ) -> "DataFrame":
        out = DataFrame()
        for n, c in self._cols.items():
            out._cols[n] = c.copy()
        view = _RowView(self._cols)
        values = []
        for i in range(len(self)):
            view._i = i
            values.append(fn(view))
        out[name] = values
        return out

    # -- aggregation -----------------------------------------------------------------
    def _group_codes(self, keys: List[str]) -> Tuple[np.ndarray, int]:
        """Combined group id per row, ids in first-appearance order."""
        codes, labels = _factorize(self[keys[0]])
        n_groups = len(labels)
        for key in keys[1:]:
            k_codes, k_labels = _factorize(self[key])
            codes = codes * len(k_labels) + k_codes
            codes, packed = _factorize(codes)
            n_groups = len(packed)
        return codes, n_groups

    def groupby(
        self,
        keys: List[str],
        agg: Dict[str, Callable[[np.ndarray], Any]],
    ) -> "DataFrame":
        """Group rows by key columns and aggregate value columns.

        ``agg`` maps column name -> reducer (e.g. ``np.mean``); group key
        order follows first appearance (stable, deterministic).

        Implementation: factorize the key columns, stable-argsort the
        combined group codes and reduce over the resulting contiguous
        per-group slices.  ``np.min``/``np.max``/``len`` take exact
        vectorized fast paths (``reduceat``/boundary differences);
        order-sensitive float reducers (``np.mean``/``np.sum``) run on
        the contiguous slices so results stay bit-identical to the
        pure-Python reference path.
        """
        n = len(self)
        if n == 0:
            return DataFrame.from_records([], columns=keys + list(agg))
        for key in keys:
            self[key]  # raise DataFrameError on unknown key columns
        codes, n_groups = self._group_codes(keys)
        sort_idx = np.argsort(codes, kind="stable")
        sorted_codes = codes[sort_idx]
        starts = np.empty(n_groups, dtype=np.int64)
        boundaries = np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1]) + 1
        starts[0] = 0
        starts[1:] = boundaries
        ends = np.empty(n_groups, dtype=np.int64)
        ends[:-1] = boundaries
        ends[-1] = n
        first_rows = sort_idx[starts]  # first appearance of each group

        cols: Dict[str, np.ndarray] = {}
        for key in keys:
            cols[key] = self._cols[key][first_rows]
        counts = ends - starts
        for col_name, reducer in agg.items():
            values = self[col_name]
            fast = _EXACT_FAST_REDUCERS.get(id(reducer))
            if fast == "count":
                cols[col_name] = self._as_array(
                    [int(c) for c in counts]
                )
                continue
            vals_sorted = values[sort_idx]
            if fast in ("min", "max") and vals_sorted.dtype.kind in "iufb":
                ufunc = np.minimum if fast == "min" else np.maximum
                cols[col_name] = ufunc.reduceat(vals_sorted, starts)
                continue
            out_list = [
                reducer(vals_sorted[starts[g]:ends[g]])
                for g in range(n_groups)
            ]
            cols[col_name] = self._as_array(out_list)
        return DataFrame._from_columns(cols)

    def pivot(
        self,
        index: str,
        series: str,
        values: str,
        reducer: Optional[Callable[[np.ndarray], Any]] = None,
    ) -> "tuple[List[Any], Dict[Any, List[Any]]]":
        """Chart-shaped output: ordered index labels and per-series values.

        Missing (index, series) combinations become ``None``, which the
        plotting layer renders as an absent bar (Figure 2's ``*`` boxes).

        Duplicate ``(index, series)`` cells raise :class:`DataFrameError`
        unless an explicit ``reducer`` (e.g. ``np.mean``) is given to
        aggregate them -- silent last-write-wins is never performed.
        """
        idx_codes, idx_labels = _factorize(self[index])
        s_codes, s_labels = _factorize(self[series])
        vals = self[values]
        n_idx, n_s = len(idx_labels), len(s_labels)
        grid = np.full((n_s, n_idx), None, dtype=object)
        if n_idx and n_s:
            cell = s_codes * n_idx + idx_codes
            counts = np.bincount(cell, minlength=n_s * n_idx)
            if (counts > 1).any():
                if reducer is None:
                    dup = int(np.flatnonzero(counts > 1)[0])
                    raise DataFrameError(
                        f"pivot: {int(counts[dup])} rows map to cell "
                        f"(index={idx_labels[dup % n_idx]!r}, "
                        f"series={s_labels[dup // n_idx]!r}); pass "
                        f"reducer= to aggregate duplicates"
                    )
                order = np.argsort(cell, kind="stable")
                sorted_cells = cell[order]
                starts = np.flatnonzero(
                    np.r_[True, sorted_cells[1:] != sorted_cells[:-1]]
                )
                ends = np.r_[starts[1:], len(sorted_cells)]
                vals_sorted = vals[order]
                flat = grid.reshape(-1)
                for g in range(len(starts)):
                    flat[sorted_cells[starts[g]]] = reducer(
                        vals_sorted[starts[g]:ends[g]]
                    )
            else:
                grid.reshape(-1)[cell] = vals
        table: Dict[Any, List[Any]] = {
            s: list(grid[k]) for k, s in enumerate(s_labels)
        }
        return idx_labels, table

    # -- io -----------------------------------------------------------------------------
    def to_csv(self, typed: bool = True) -> str:
        r"""Serialize to CSV.

        With ``typed=True`` (default) every header cell carries a dtype
        tag (``perf_value:float``, ``system:str``, ...) and string cells
        are losslessly escaped: ``None`` -> ``\N``, a leading backslash
        gains one escape backslash.  :meth:`from_csv` reverses both, so
        the perflog schema round-trips exactly -- ``None`` stays ``None``
        and ``"1e3"``-shaped system names stay strings.  ``typed=False``
        reproduces the legacy untyped format.
        """
        buf = io.StringIO()
        writer = csv.writer(buf)
        names = self.columns
        if not typed:
            writer.writerow(names)
            for i in range(len(self)):
                writer.writerow([self._cols[n][i] for n in names])
            return buf.getvalue()
        tags = {
            n: _CSV_DTYPE_TAGS.get(self._cols[n].dtype.kind, "str")
            for n in names
        }
        writer.writerow([f"{n}:{tags[n]}" for n in names])
        encoders = {
            n: (_csv_encode_str if tags[n] == "str" else str) for n in names
        }
        for i in range(len(self)):
            writer.writerow([encoders[n](self._cols[n][i]) for n in names])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "DataFrame":
        reader = csv.reader(io.StringIO(text))
        rows = list(reader)
        if not rows:
            return cls()
        header, body = rows[0], rows[1:]
        typed = bool(header) and all(
            ":" in h and h.rsplit(":", 1)[1] in _CSV_TAG_SET for h in header
        )
        if not typed:
            # legacy untyped CSV: per-cell float inference
            data: Dict[str, List[Any]] = {h: [] for h in header}
            for row in body:
                for h, v in zip(header, row):
                    try:
                        data[h].append(float(v))
                    except ValueError:
                        data[h].append(v)
            return cls(data)
        names, tags = zip(*(h.rsplit(":", 1) for h in header))
        for row in body:
            if len(row) != len(names):
                raise DataFrameError(
                    f"from_csv: row has {len(row)} cells, "
                    f"header has {len(names)}"
                )
        cols: Dict[str, np.ndarray] = {}
        for k, (name, tag) in enumerate(zip(names, tags)):
            cells = [row[k] for row in body]
            if tag == "float":
                cols[name] = np.array([float(c) for c in cells],
                                      dtype=np.float64)
            elif tag == "int":
                cols[name] = np.array([int(c) for c in cells],
                                      dtype=np.int64)
            elif tag == "bool":
                cols[name] = np.array([c == "True" for c in cells],
                                      dtype=bool)
            else:
                cols[name] = np.array(
                    [_csv_decode_str(c) for c in cells], dtype=object
                )
        return cls._from_columns(cols)

    def __repr__(self) -> str:
        return f"DataFrame({len(self)} rows x {len(self.columns)} cols)"

    def to_string(self, max_rows: int = 20) -> str:
        names = self.columns
        if not names:
            return "(empty DataFrame)"
        rows = [names] + [
            [str(self._cols[n][i]) for n in names]
            for i in range(min(len(self), max_rows))
        ]
        widths = [max(len(r[c]) for r in rows) for c in range(len(names))]
        lines = [
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
            for row in rows
        ]
        if len(self) > max_rows:
            lines.append(f"... ({len(self) - max_rows} more rows)")
        return "\n".join(lines)
