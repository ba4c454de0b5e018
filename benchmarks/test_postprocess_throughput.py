"""Post-processing throughput: vectorized ingest and groupby.

Two claims, measured end to end on a synthetic ~1M-row multi-platform
campaign (100 perflogs: 5 systems x 2 partitions x 10 tests):

1. **Vectorized ingest**: the block-wise columnar parser assimilates the
   campaign >= 5x faster (rows/sec) than the retained row-at-a-time
   reference reader (:mod:`tests.postprocess.reference`), with
   bit-identical frames.
2. **Groupby latency**: the factorize + argsort kernel aggregates the
   million-row frame faster than the dict-per-row-tuple reference while
   producing bit-identical records.

The measured numbers are written to ``BENCH_postprocess.json`` at the
repo root; ``tests/postprocess/test_throughput_smoke.py`` re-runs a
reduced-size version of the same measurements inside the tier-1 budget
and fails if ingest throughput regresses >2x against these baselines.
"""

import json
import os
import time

import numpy as np

from benchmarks.conftest import emit
from repro.postprocess.dataframe import DataFrame
from repro.postprocess.perflog_reader import read_perflogs
from tests.postprocess.reference import (
    reference_concat,
    reference_groupby,
    reference_read_perflog,
)
from repro.runner.perflog import PERFLOG_FIELDS

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "..",
                             "BENCH_postprocess.json")

#: 5 systems x 2 partitions x 10 tests = 100 perflogs
CAMPAIGN_SYSTEMS = [
    ("archer2", "compute"),
    ("csd3", "icelake"),
    ("isambard", "a64fx"),
    ("noctua2", "gpu"),
    ("cirrus", "standard"),
]
CAMPAIGN_TESTS = 10
ROWS_PER_FILE = 10_000          # -> 1M rows total

_HEADER = "|".join(PERFLOG_FIELDS)


def synth_rows(system, partition, test, n, seed, start=0):
    """Deterministic perflog records for one (system, partition, test)."""
    rng = np.random.default_rng(seed + start)
    values = rng.uniform(10.0, 400.0, size=n)
    tasks = rng.choice([1, 8, 64, 128], size=n)
    return [
        f"2026-01-01T{(start + i) % 24:02d}:{(start + i) % 60:02d}:00"
        f"|repro-1.0.0|{test}|{system}|{partition}|gcc@12.1.0"
        f"|stream@5.10|{tasks[i]}|Triad|{values[i]:.4f}|GB/s|pass"
        for i in range(n)
    ]


def make_campaign(root, rows_per_file, n_tests=CAMPAIGN_TESTS):
    """Write the synthetic multi-platform campaign; returns file specs."""
    os.makedirs(root, exist_ok=True)
    specs = []
    seed = 0
    for system, base_part in CAMPAIGN_SYSTEMS:
        for partition in (base_part, base_part + "-highmem"):
            for t in range(n_tests):
                test = f"BabelStream_{t}"
                path = os.path.join(
                    root, f"{system}_{partition}_{test}.log"
                )
                rows = synth_rows(system, partition, test,
                                  rows_per_file, seed)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(_HEADER + "\n")
                    fh.write("\n".join(rows) + "\n")
                specs.append((path, system, partition, test, seed))
                seed += 1
    return specs


def prewarm(specs):
    """Touch every byte once so timings compare parsers, not page cache."""
    for path, *_ in specs:
        with open(path, "rb") as fh:
            fh.read()


def timed(fn, repeats=2):
    """``(best_seconds, result)`` over ``repeats`` runs.

    Min-of-N is the standard throughput methodology here: the first run
    of a million-row parse pays one-off costs (heap growth, first-touch
    page faults on ~10^8 bytes of fresh object memory) that say nothing
    about parser throughput and would swamp the comparison.
    """
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def assert_frames_identical(a: DataFrame, b: DataFrame) -> None:
    assert a.columns == b.columns
    for name in a.columns:
        assert a[name].dtype == b[name].dtype, name
        assert len(a[name]) == len(b[name]), name
        assert (a[name] == b[name]).all(), name


def _update_baseline(**entries):
    doc = {}
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc.update(entries)
    with open(BASELINE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------------
# 1. vectorized ingest vs the row-at-a-time reference reader
# --------------------------------------------------------------------------

def regenerate_ingest(root):
    specs = make_campaign(root, ROWS_PER_FILE)
    prewarm(specs)
    paths = [path for path, *_ in specs]
    # untimed warm-up: grow the heap once so neither parser is charged
    # for first-touch page faults on ~10^8 bytes of object memory
    read_perflogs(root)

    # both parsers assimilate the *same* full campaign: the reference
    # reader's dict-per-row materialization is exactly what collapses at
    # this scale, so sampling a subset would understate its true cost
    ref_elapsed, ref_frame = timed(lambda: reference_concat(
        [reference_read_perflog(p) for p in sorted(paths)]
    ))
    vec_elapsed, frame = timed(lambda: read_perflogs(root))

    # bit-identity of the full assimilated campaign
    assert_frames_identical(frame, ref_frame)
    return {
        "n_files": len(specs),
        "n_rows": len(frame),
        "ref_elapsed": ref_elapsed,
        "vec_elapsed": vec_elapsed,
    }


def test_vectorized_ingest_speedup(once, tmp_path):
    r = once(regenerate_ingest, str(tmp_path / "campaign"))
    ref_rate = r["n_rows"] / r["ref_elapsed"]
    vec_rate = r["n_rows"] / r["vec_elapsed"]
    speedup = vec_rate / ref_rate
    emit(
        "Perflog ingest: vectorized block parser vs row-at-a-time reader",
        f"campaign: {r['n_rows']:,} rows across {r['n_files']} perflogs\n"
        f"reference : {ref_rate:,.0f} rows/s\n"
        f"vectorized: {vec_rate:,.0f} rows/s\n"
        f"speedup   : {speedup:.1f}x",
    )
    assert r["n_rows"] >= 900_000, "campaign is not ~1M rows"
    assert speedup >= 5.0, f"ingest speedup only {speedup:.2f}x"
    _update_baseline(
        campaign_rows=r["n_rows"],
        campaign_files=r["n_files"],
        ingest_reference_rows_per_second=round(ref_rate),
        ingest_vectorized_rows_per_second=round(vec_rate),
        ingest_speedup=round(speedup, 2),
    )


# --------------------------------------------------------------------------
# smoke scale: the same measurements, sized for the tier-1 time budget
# --------------------------------------------------------------------------

SMOKE_ROWS_PER_FILE = 2_000
SMOKE_TESTS = 2                 # -> 20 files, 40k rows


def measure_ingest_smoke(root):
    """Reduced-size ingest measurement shared with the tier-1 smoke
    gate (``tests/postprocess/test_throughput_smoke.py``)."""
    specs = make_campaign(root, SMOKE_ROWS_PER_FILE, n_tests=SMOKE_TESTS)
    prewarm(specs)
    paths = sorted(path for path, *_ in specs)
    read_perflogs(root)  # untimed heap warm-up

    ref_elapsed, ref_frame = timed(lambda: reference_concat(
        [reference_read_perflog(p) for p in paths]
    ))
    vec_elapsed, frame = timed(lambda: read_perflogs(root))
    assert_frames_identical(frame, ref_frame)
    return {
        "n_rows": len(frame),
        "n_files": len(specs),
        "ref_rate": len(frame) / ref_elapsed,
        "vec_rate": len(frame) / vec_elapsed,
    }


def test_smoke_scale_baseline(once, tmp_path):
    """Record the reduced-size numbers the tier-1 smoke gate compares
    against (same measurement, same machine class as the full bench)."""
    r = once(measure_ingest_smoke, str(tmp_path / "campaign"))
    speedup = r["vec_rate"] / r["ref_rate"]
    emit(
        "Smoke-scale ingest baseline (tier-1 gate reference points)",
        f"campaign: {r['n_rows']:,} rows across {r['n_files']} perflogs\n"
        f"reference : {r['ref_rate']:,.0f} rows/s\n"
        f"vectorized: {r['vec_rate']:,.0f} rows/s ({speedup:.1f}x)",
    )
    assert speedup >= 2.5
    _update_baseline(
        smoke_rows=r["n_rows"],
        smoke_files=r["n_files"],
        smoke_ingest_reference_rows_per_second=round(r["ref_rate"]),
        smoke_ingest_vectorized_rows_per_second=round(r["vec_rate"]),
        smoke_ingest_speedup=round(speedup, 2),
    )


# --------------------------------------------------------------------------
# 2. groupby kernel latency vs the dict-per-row-tuple reference
# --------------------------------------------------------------------------

GROUP_KEYS = ["system", "partition", "test"]
GROUP_AGG = {"perf_value": np.mean, "num_tasks": np.max}


def regenerate_groupby(root):
    make_campaign(root, ROWS_PER_FILE)
    frame = read_perflogs(root)
    frame.groupby(GROUP_KEYS, GROUP_AGG)  # untimed heap warm-up

    vec_elapsed, vec = timed(lambda: frame.groupby(GROUP_KEYS, GROUP_AGG))
    ref_elapsed, ref = timed(
        lambda: reference_groupby(frame, GROUP_KEYS, GROUP_AGG)
    )

    assert vec.to_records() == ref.to_records()
    return {
        "n_rows": len(frame),
        "n_groups": len(vec),
        "vec_elapsed": vec_elapsed,
        "ref_elapsed": ref_elapsed,
    }


def test_groupby_kernel_latency(once, tmp_path):
    r = once(regenerate_groupby, str(tmp_path / "campaign"))
    speedup = r["ref_elapsed"] / r["vec_elapsed"]
    emit(
        "Groupby kernel: factorize + argsort vs dict-per-row-tuple",
        f"{r['n_rows']:,} rows -> {r['n_groups']} groups "
        f"(keys={GROUP_KEYS})\n"
        f"reference : {r['ref_elapsed'] * 1e3:.0f} ms\n"
        f"vectorized: {r['vec_elapsed'] * 1e3:.0f} ms\n"
        f"speedup   : {speedup:.1f}x (bit-identical records)",
    )
    assert speedup >= 1.5, f"groupby speedup only {speedup:.2f}x"
    _update_baseline(
        groupby_rows=r["n_rows"],
        groupby_groups=r["n_groups"],
        groupby_reference_ms=round(r["ref_elapsed"] * 1e3, 1),
        groupby_vectorized_ms=round(r["vec_elapsed"] * 1e3, 1),
        groupby_speedup=round(speedup, 2),
    )
