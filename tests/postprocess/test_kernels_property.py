"""Property tests: vectorized kernels == pure-Python reference.

The reference implementations in :mod:`tests.postprocess.reference` are
the executable specification; hypothesis drives randomized frames (mixed
dtypes, missing columns, duplicate keys, empty groups) through both
paths and requires *result-identical* output -- values, column order,
row order, and dtypes.  Floating-point results must match bit for bit:
the vectorized group reducers consume contiguous slices of the stably
sorted value column, so ``np.mean``/``np.sum`` see exactly the operand
sequence the reference's per-group gather sees.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.postprocess.dataframe import DataFrame, DataFrameError
from tests.postprocess.reference import (
    reference_concat,
    reference_filter,
    reference_groupby,
    reference_pivot,
    reference_unique,
)

# small label pools force duplicate keys; floats avoid NaN (NaN breaks
# record equality, and perflog key columns never carry NaN)
LABELS = st.sampled_from(["archer2", "csd3", "isambard", "a", "b", ""])
TESTS = st.sampled_from(["t1", "t2", "t3", "t4"])
FLOATS = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
INTS = st.integers(min_value=-1000, max_value=1000)


def frames_identical(a: DataFrame, b: DataFrame) -> None:
    assert a.columns == b.columns
    assert len(a) == len(b)
    for name in a.columns:
        assert a[name].dtype == b[name].dtype, name
        av, bv = a[name].tolist(), b[name].tolist()
        assert av == bv, f"{name}: {av} != {bv}"


@st.composite
def key_value_frames(draw, min_rows=0, max_rows=30):
    """A frame with 1-2 key columns and 1-2 value columns."""
    n = draw(st.integers(min_value=min_rows, max_value=max_rows))
    cols = {"system": draw(st.lists(LABELS, min_size=n, max_size=n))}
    if draw(st.booleans()):
        cols["test"] = draw(st.lists(TESTS, min_size=n, max_size=n))
    cols["value"] = draw(st.lists(FLOATS, min_size=n, max_size=n))
    if draw(st.booleans()):
        cols["tasks"] = draw(st.lists(INTS, min_size=n, max_size=n))
    return DataFrame(cols)


class TestGroupbyProperty:
    @settings(max_examples=60, deadline=None)
    @given(frame=key_value_frames(),
           reducer=st.sampled_from([np.sum, np.mean, np.min, np.max, len]))
    def test_groupby_matches_reference(self, frame, reducer):
        keys = [k for k in ("system", "test") if k in frame]
        agg = {"value": reducer}
        if "tasks" in frame:
            agg["tasks"] = np.max
        vec = frame.groupby(keys, agg)
        ref = reference_groupby(frame, keys, agg)
        assert vec.to_records() == ref.to_records()
        assert vec.columns == ref.columns

    @settings(max_examples=30, deadline=None)
    @given(frame=key_value_frames())
    def test_unique_matches_reference(self, frame):
        assert frame.unique("system") == reference_unique(frame, "system")

    def test_python_callable_reducer(self):
        # arbitrary (non-numpy) reducers take the per-group slice path
        frame = DataFrame({"k": ["a", "b", "a", "a"],
                           "v": [1.0, 2.0, 3.0, 5.0]})
        spread = lambda a: float(np.max(a) - np.min(a))  # noqa: E731
        vec = frame.groupby(["k"], {"v": spread})
        ref = reference_groupby(frame, ["k"], {"v": spread})
        assert vec.to_records() == ref.to_records()


class TestFilterProperty:
    @settings(max_examples=40, deadline=None)
    @given(frame=key_value_frames(), threshold=FLOATS)
    def test_filter_matches_reference(self, frame, threshold):
        pred = lambda row: row["value"] > threshold  # noqa: E731
        frames_identical(frame.filter(pred), reference_filter(frame, pred))

    @settings(max_examples=40, deadline=None)
    @given(frame=key_value_frames(),
           wanted=st.lists(LABELS, max_size=3))
    def test_filter_in_matches_reference(self, frame, wanted):
        keep = set(wanted)
        pred = lambda row: row["system"] in keep  # noqa: E731
        frames_identical(frame.filter_in("system", wanted),
                         reference_filter(frame, pred))

    @settings(max_examples=20, deadline=None)
    @given(frame=key_value_frames(min_rows=1))
    def test_with_column_sees_every_row(self, frame):
        out = frame.with_column("double", lambda r: r["value"] * 2)
        expected = [v * 2 for v in frame["value"].tolist()]
        assert out["double"].tolist() == expected
        assert "double" not in frame


class TestPivotProperty:
    @settings(max_examples=60, deadline=None)
    @given(frame=key_value_frames(),
           use_reducer=st.booleans())
    def test_pivot_matches_reference(self, frame, use_reducer):
        if "test" not in frame:
            frame = frame.with_column("test", lambda r: "t1")
        reducer = np.mean if use_reducer else None
        vec_err = ref_err = None
        vec = ref = None
        try:
            vec = frame.pivot("system", "test", "value", reducer=reducer)
        except DataFrameError as exc:
            vec_err = str(exc)
        try:
            ref = reference_pivot(frame, "system", "test", "value",
                                  reducer=reducer)
        except DataFrameError as exc:
            ref_err = str(exc)
        assert (vec_err is None) == (ref_err is None)
        if vec_err is not None:
            assert "duplicate" in vec_err and "duplicate" in ref_err
            return
        v_index, v_series = vec
        r_index, r_series = ref
        assert v_index == r_index
        assert list(v_series) == list(r_series)
        for label in v_series:
            for x, y in zip(v_series[label], r_series[label]):
                if x is None or y is None:
                    assert x is None and y is None
                else:
                    assert float(x) == float(y) or (
                        math.isnan(float(x)) and math.isnan(float(y))
                    )


@st.composite
def ragged_frames(draw):
    """Frames with overlapping-but-different schemas, some empty."""
    pool = ["system", "value", "tasks", "note"]
    names = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4,
                          unique=True))
    n = draw(st.integers(min_value=0, max_value=10))
    cols = {}
    for name in names:
        if name == "value":
            cols[name] = draw(st.lists(FLOATS, min_size=n, max_size=n))
        elif name == "tasks":
            cols[name] = draw(st.lists(INTS, min_size=n, max_size=n))
        else:
            cols[name] = draw(st.lists(LABELS, min_size=n, max_size=n))
    return DataFrame(cols)


class TestConcatProperty:
    @settings(max_examples=60, deadline=None)
    @given(frames=st.lists(ragged_frames(), max_size=5))
    def test_concat_matches_reference(self, frames):
        frames_identical(DataFrame.concat(frames), reference_concat(frames))

    @settings(max_examples=30, deadline=None)
    @given(frames=st.lists(ragged_frames(), max_size=4))
    def test_concat_length_and_schema_union(self, frames):
        out = DataFrame.concat(frames)
        assert len(out) == sum(len(f) for f in frames)
        union = [n for f in frames for n in f.columns]
        assert set(out.columns) == set(union)


class TestMaskSortProperty:
    @settings(max_examples=30, deadline=None)
    @given(frame=key_value_frames())
    def test_mask_matches_row_loop(self, frame):
        keep = np.array([i % 2 == 0 for i in range(len(frame))], dtype=bool)
        out = frame.mask(keep)
        rows = [frame.row(i) for i in range(len(frame)) if i % 2 == 0]
        assert out.to_records() == rows

    @settings(max_examples=30, deadline=None)
    @given(frame=key_value_frames())
    def test_sort_is_stable_like_python(self, frame):
        out = frame.sort_values("value")
        expected = sorted(range(len(frame)),
                          key=lambda i: frame["value"][i])
        assert out["value"].tolist() == [
            frame["value"][i] for i in expected
        ]
