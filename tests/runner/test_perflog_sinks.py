"""The perflog append-sink contract (``PerflogHandler.add_sink``).

Sinks are the perflog writer's one append hook -- the live plane
listens on it -- so the contract is pinned here: each flushed batch is
heard once, in flush order; ``wrote_header`` marks only a file's first
append; subscribing twice is one subscription; and a sink that raises
is dropped without failing the flush or re-appending a row.
"""

import pytest

from repro.runner import sanity as sn
from repro.runner.benchmark import RegressionTest
from repro.runner.executor import Executor
from repro.runner.fields import parameter
from repro.runner.perflog import PerflogHandler

PINNED_TS = "2026-01-01T00:00:00"


class SinkProbe(RegressionTest):
    point = parameter([1, 2])

    def program(self, ctx):
        return f"v: {self.point * 10.0}\n", 1.0

    def check_sanity(self, stdout):
        sn.assert_found(r"v:", stdout)

    def extract_performance(self, stdout):
        v = sn.extractsingle(r"v: ([\d.]+)", stdout, 1, float)
        return {"value": (v, "MB/s")}


class Recorder:
    def __init__(self):
        self.calls = []

    def note_append(self, path, lines, wrote_header=False):
        self.calls.append((path, list(lines), wrote_header))


class Broken(Recorder):
    def note_append(self, path, lines, wrote_header=False):
        super().note_append(path, lines, wrote_header)
        raise RuntimeError("observer bug")


@pytest.fixture(scope="module")
def results():
    """Two finished cases; each variant logs to its own perflog file."""
    ex = Executor()
    report = ex.run_cases(ex.expand_cases([SinkProbe], "archer2"))
    assert report.success and len(report.results) == 2
    return report.results


def handler(tmp_path, batch_size=64):
    return PerflogHandler(str(tmp_path), batch_size=batch_size,
                          timestamp=PINNED_TS)


def data_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()[1:]


def heard(sink, path):
    return [line for p, lines, _ in sink.calls if p == path
            for line in lines]


def test_each_batch_heard_once_in_flush_order(tmp_path, results):
    h = handler(tmp_path)
    sink = Recorder()
    h.add_sink(sink)
    a, b = results
    path_a, path_b, _ = h.emit(a), h.emit(b), h.emit(a)
    assert sink.calls == []  # nothing heard before the flush
    h.flush()
    # one batch per file, in the order the files were first buffered
    assert [(p, len(lines)) for p, lines, _ in sink.calls] == \
        [(path_a, 2), (path_b, 1)]
    h.emit(b)
    h.flush()
    assert [p for p, _, _ in sink.calls] == [path_a, path_b, path_b]
    for path in (path_a, path_b):
        assert heard(sink, path) == data_lines(path)


def test_wrote_header_marks_only_the_first_append(tmp_path, results):
    h = handler(tmp_path, batch_size=1)
    sink = Recorder()
    h.add_sink(sink)
    a, b = results
    for r in (a, b, a, b):
        h.emit(r)
    assert [header for _, _, header in sink.calls] == \
        [True, True, False, False]
    # a second writer appending to an existing file writes no header
    again = handler(tmp_path, batch_size=1)
    late = Recorder()
    again.add_sink(late)
    again.emit(a)
    assert [header for _, _, header in late.calls] == [False]


def test_add_sink_is_idempotent(tmp_path, results):
    h = handler(tmp_path)
    sink = Recorder()
    h.add_sink(sink)
    h.add_sink(sink)
    h.emit(results[0])
    h.flush()
    assert len(sink.calls) == 1


def test_raising_sink_is_dropped_and_rows_land_once(tmp_path, results):
    h = handler(tmp_path)
    broken, good = Broken(), Recorder()
    h.add_sink(broken)
    h.add_sink(good)
    a, b = results
    paths = [h.emit(a), h.emit(b)]
    h.flush()  # the broken sink raises on the first file: flush succeeds
    assert len(broken.calls) == 1
    h.flush()  # nothing left buffered: no file is appended twice
    h.emit(a)
    h.emit(b)
    h.flush()
    assert len(broken.calls) == 1  # dropped after its first failure
    assert len(good.calls) == 4
    for path in paths:
        rows = data_lines(path)
        assert len(rows) == 2
        assert rows == heard(good, path)
