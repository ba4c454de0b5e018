"""Self-tests for the benchmark harness, at tiny sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import os
import re
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from layers import (  # noqa: E402
    LAYERS,
    UNITS,
    LayerPatches,
    SpanClock,
    install_layers,
    layer_metrics,
)
from run import END_TO_END_UNITS  # noqa: E402
from workloads import WORKLOADS, FleetCold  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_names_match_benchmark_json():
    doc = spec()
    # fleet-cold runs on request only (see README.md)
    assert [w["name"] for w in doc["workloads"]] == [
        name for name in WORKLOADS if name != "fleet-cold"]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == UNITS
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names


class FakeTime:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    t = FakeTime()
    spans = SpanClock(clock=t).thread()
    spans.push("outer", 0.0)
    spans.push("inner", 2.0)
    spans.push("leaf", 3.0)
    spans.pop(4.0)
    spans.pop(5.0)
    spans.push("inner", 6.0)
    spans.pop(7.0)
    spans.pop(10.0)
    assert spans.self_s == {"leaf": 1.0, "inner": 3.0, "outer": 6.0}
    assert spans.total_s == {"leaf": 1.0, "inner": 4.0, "outer": 10.0}
    assert spans.calls == {"leaf": 1, "inner": 2, "outer": 1}


def test_spans_on_two_threads_do_not_nest():
    """A worker's span overlapping the main thread's is not its child."""
    t = FakeTime()
    clock = SpanClock(clock=t)

    def traced(name, start, end):
        spans = clock.thread()
        t.now = start
        spans.push(name, t())
        t.now = end
        spans.pop(t())

    main = clock.thread()
    main.push("main", 0.0)
    worker = threading.Thread(target=traced, args=("worker", 1.0, 9.0))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    main.pop(10.0)
    assert clock.total("self_s") == {"main": 10.0, "worker": 8.0}
    assert clock.total("self_s", main=True) == {"main": 10.0}
    assert clock.total("calls", main=False) == {"worker": 1}


def tiny_fleet(tmp_path):
    wl = FleetCold(seed=3)
    wl.cases = 12
    wl.setup(str(tmp_path / "setup"))
    return wl


def attributes(patches):
    return [(owner, attr, vars(owner)[attr])
            for owner, attr, _ in patches.installed]


def test_wrappers_are_removed_after_a_traced_pass(tmp_path):
    wl = tiny_fleet(tmp_path)
    clock = SpanClock()
    patches = LayerPatches(clock)
    try:
        p = wl.run_pass(str(tmp_path / "traced"),
                        lambda classes: install_layers(patches, classes),
                        repeat_ingest=False)
        wrapped = attributes(patches)
        originals = [raw for _, _, raw in patches.installed]
    finally:
        patches.restore()
    assert wrapped and patches.installed == []
    for (owner, attr, wrapper), raw in zip(wrapped, originals):
        assert vars(owner)[attr] is raw is not wrapper, (owner, attr)
    assert wl.check(p).failed == 0
    traced_calls = clock.total("calls")
    assert traced_calls["pipeline.run_case"] == wl.cases

    # a later untraced pass runs no wrapper: the clock sees nothing new
    p = wl.run_pass(str(tmp_path / "untraced"), lambda classes: None)
    assert wl.check(p).failed == 0
    assert clock.total("calls") == traced_calls


def test_layer_metrics_of_a_tiny_traced_pass(tmp_path):
    wl = tiny_fleet(tmp_path)
    clock = SpanClock()
    patches = LayerPatches(clock)
    try:
        p = wl.run_pass(str(tmp_path / "traced"),
                        lambda classes: install_layers(patches, classes),
                        repeat_ingest=False)
    finally:
        patches.restore()
    metrics, absent, base = layer_metrics(clock, p.table_s, wl.workers,
                                          p.extra_counts)
    every = {name for names in LAYERS.values() for name in names}
    assert set(metrics) == every - {"trace_overhead"}
    # fleet-cold never calls the package manager, the apps or the store
    assert set(absent) == {"pkgmgr", "apps", "runner.results"}
    assert metrics["pipeline.cases"] == wl.cases
    assert metrics["perflog.rows"] == wl.cases
    assert metrics["journal.records"] == wl.cases
    assert metrics["postprocess.files"] == wl.cases
    assert metrics["scheduler.events"] > 0
    # serial: every self time lies within the pass's wall time
    assert base == p.table_s
    assert 0.0 <= metrics["unattributed_s"] <= base
