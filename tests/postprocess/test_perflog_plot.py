"""Tests for perflog reading, YAML filters, plotting, and the plot CLI."""

import os

import pytest

from repro.postprocess.cli import main as plot_main
from repro.postprocess.dataframe import DataFrame
from repro.postprocess.filters import FilterError, apply_filters, load_config
from repro.postprocess.perflog_reader import (
    PerflogFormatError,
    read_perflog,
    read_perflogs,
)
from repro.postprocess.plotting import (
    bar_chart_ascii,
    bar_chart_svg,
    heatmap_ascii,
)
from repro.runner.cli import load_suite
from repro.runner.executor import Executor


@pytest.fixture(scope="module")
def perflog_dir(tmp_path_factory):
    """Real perflogs from real runs on two simulated systems."""
    prefix = tmp_path_factory.mktemp("perflogs")
    classes = load_suite("babelstream")
    for system in ("archer2", "csd3"):
        ex = Executor(perflog_prefix=str(prefix))
        ex.run(classes, system, tags=["omp"])
    return str(prefix)


class TestPerflogReader:
    def test_read_single(self, perflog_dir):
        path = os.path.join(
            perflog_dir, "archer2", "compute", "BabelStreamBenchmark_omp.log"
        )
        frame = read_perflog(path)
        assert len(frame) == 5  # five kernels
        assert set(frame["perf_var"]) == {"Copy", "Mul", "Add", "Triad", "Dot"}
        assert all(v > 0 for v in frame["perf_value"])

    def test_read_all_concatenates_systems(self, perflog_dir):
        frame = read_perflogs(perflog_dir)
        assert set(frame["system"]) == {"archer2", "csd3"}
        assert len(frame) == 10

    def test_missing_prefix(self):
        with pytest.raises(FileNotFoundError):
            read_perflogs("/nonexistent/prefix")

    def test_malformed_line_rejected(self, tmp_path):
        bad = tmp_path / "bad.log"
        bad.write_text("just|three|fields\n")
        with pytest.raises(PerflogFormatError):
            read_perflog(str(bad))

    def test_non_numeric_value_rejected(self, tmp_path):
        from repro.runner.perflog import PERFLOG_FIELDS

        fields = ["x"] * len(PERFLOG_FIELDS)
        bad = tmp_path / "bad.log"
        bad.write_text("|".join(fields) + "\n")
        with pytest.raises(PerflogFormatError):
            read_perflog(str(bad))


def _record(value, test="T"):
    return "|".join([
        "2026-01-01T00:00:00", "repro-1.0.0", test, "sys", "part", "gcc",
        "stream@1.0", "8", "Triad", f"{value:.6g}", "GB/s", "pass",
    ])


def _write_log(path, values, tail=""):
    """A perflog whose last line is *tail*, written with no newline."""
    from repro.runner.perflog import PERFLOG_FIELDS

    lines = ["|".join(PERFLOG_FIELDS)] + [_record(v) for v in values]
    path.write_text("\n".join(lines) + "\n" + tail)


class TestPerflogTail:
    """A log is read whole: its last line is a row, complete or not."""

    def test_unterminated_final_row_is_read(self, tmp_path, capsys):
        log = tmp_path / "a.log"
        _write_log(log, [1.0, 2.0], tail=_record(3.0))
        frame = read_perflog(str(log))
        assert list(frame["perf_value"]) == [1.0, 2.0, 3.0]
        assert plot_main([str(tmp_path), "--csv"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 4 and out[-1].split(",")[9] == "3.0"

    def test_torn_final_row_names_file_and_line(self, tmp_path):
        log = tmp_path / "a.log"
        _write_log(log, [1.0, 2.0], tail="|".join(_record(3.0).split("|")[:6]))
        with pytest.raises(PerflogFormatError,
                           match=r"a\.log:4: expected 12 fields, got 6$"):
            read_perflog(str(log))

    def test_plot_cli_rejects_torn_tree(self, tmp_path, capsys):
        _write_log(tmp_path / "a.log", [1.0], tail="2026|repro|T")
        _write_log(tmp_path / "b.log", [1.0])
        assert plot_main([str(tmp_path), "--csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "a.log:3: expected 12 fields, got 3" in captured.err

    def test_coalesced_headers_read_as_one_log(self, tmp_path):
        _write_log(tmp_path / "one.log", [1.0, 2.0])
        _write_log(tmp_path / "two.log", [3.0])
        cat = tmp_path / "cat.log"
        cat.write_text((tmp_path / "one.log").read_text()
                       + (tmp_path / "two.log").read_text())
        assert list(read_perflog(str(cat))["perf_value"]) == [1.0, 2.0, 3.0]


class TestFsckAgreesWithReader:
    """``repro-fsck`` calls a tail torn only when ``repro-plot`` would."""

    @staticmethod
    def csv_values(tmp_path, capsys):
        capsys.readouterr()  # drop what fsck printed
        assert plot_main([str(tmp_path), "--csv"]) == 0
        out = capsys.readouterr().out.splitlines()
        return [line.split(",")[9] for line in out[1:]]

    def test_repair_keeps_a_whole_unterminated_row(self, tmp_path, capsys):
        from repro.runner.fsck import fsck_perflog, main as fsck_main

        _write_log(tmp_path / "a.log", [1.0], tail=_record(2.0))
        assert self.csv_values(tmp_path, capsys) == ["1.0", "2.0"]
        report = fsck_perflog(str(tmp_path / "a.log"))
        assert (report["checked"], report["invalid"]) == (3, 0)
        assert fsck_main([str(tmp_path)]) == 0
        for _ in range(2):
            assert fsck_main(["--repair", str(tmp_path)]) == 0
            assert self.csv_values(tmp_path, capsys) == ["1.0", "2.0"]

    def test_repair_terminates_and_covers_a_whole_row(self, tmp_path,
                                                      capsys):
        from repro.runner.fsck import main as fsck_main
        from repro.runner.perflog import sums_path, verify_sums

        log = tmp_path / "a.log"
        _write_log(log, [1.0], tail=_record(2.0))
        # one malformed sidecar line is the damage that makes repair run
        with open(sums_path(str(log)), "w", encoding="utf-8") as fh:
            fh.write("not a range\n")
        assert fsck_main([str(log)]) == 1
        assert fsck_main(["--repair", str(log)]) == 0
        assert log.read_text().endswith(_record(2.0) + "\n")
        report = verify_sums(str(log))
        assert (report["covered"], report["invalid"]) == (3, [])
        assert report["uncovered_bytes"] == 0
        assert self.csv_values(tmp_path, capsys) == ["1.0", "2.0"]

    def test_torn_tail_is_still_dropped(self, tmp_path, capsys):
        from repro.runner.fsck import main as fsck_main

        _write_log(tmp_path / "a.log", [1.0], tail="2026|repro|T")
        assert fsck_main([str(tmp_path)]) == 1
        assert fsck_main(["--repair", str(tmp_path)]) == 0
        assert self.csv_values(tmp_path, capsys) == ["1.0"]


class TestFilters:
    def frame(self):
        return DataFrame(
            {
                "system": ["archer2", "csd3", "csd3"],
                "perf_var": ["Triad", "Triad", "Copy"],
                "perf_value": [322.0, 217.0, 212.0],
            }
        )

    def test_equals_and_in(self):
        config = load_config(
            "filters:\n"
            "  - column: perf_var\n"
            "    equals: Triad\n"
            "  - column: system\n"
            "    in: [csd3]\n"
        )
        out = apply_filters(self.frame(), config)
        assert len(out) == 1 and out["perf_value"][0] == 217.0

    def test_min_max_contains(self):
        config = load_config(
            "filters:\n"
            "  - column: perf_value\n"
            "    min: 215\n"
            "    max: 400\n"
            "  - column: perf_var\n"
            "    contains: ria\n"
        )
        out = apply_filters(self.frame(), config)
        assert len(out) == 2

    def test_unknown_column_rejected(self):
        config = {"filters": [{"column": "ghost", "equals": 1}]}
        with pytest.raises(FilterError):
            apply_filters(self.frame(), config)

    def test_bad_yaml_rejected(self):
        with pytest.raises(FilterError):
            load_config("filters: [\n")
        with pytest.raises(FilterError):
            load_config("- just\n- a list\n")

    def test_filter_without_column_rejected(self):
        with pytest.raises(FilterError):
            apply_filters(self.frame(), {"filters": [{"equals": 1}]})


class TestPlotting:
    INDEX = ["archer2", "csd3"]
    SERIES = {"omp": [322.9, 217.2], "tbb": [180.8, None]}

    def test_ascii_bar_chart(self):
        text = bar_chart_ascii(self.INDEX, self.SERIES, title="Triad",
                               unit="GB/s")
        assert "Triad" in text
        assert "#" in text
        assert "*" in text  # the missing tbb cell

    def test_svg_bar_chart_wellformed(self):
        svg = bar_chart_svg(self.INDEX, self.SERIES, title="Triad")
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert svg.count("<rect") >= 3  # 3 bars + legend swatches

    def test_heatmap(self):
        cells = {"omp": {"archer2": 0.79, "csd3": 0.77},
                 "cuda": {"archer2": None, "csd3": None}}
        text = heatmap_ascii(["omp", "cuda"], ["archer2", "csd3"], cells)
        assert "0.79" in text and "*" in text


class TestPlotCli:
    def test_table_output(self, perflog_dir, capsys):
        assert plot_main([perflog_dir]) == 0
        out = capsys.readouterr().out
        assert "perf_var" in out

    def test_csv_output(self, perflog_dir, capsys):
        assert plot_main([perflog_dir, "--csv"]) == 0
        assert "Triad" in capsys.readouterr().out

    def test_config_driven_chart(self, perflog_dir, capsys, tmp_path):
        cfg = tmp_path / "plot.yaml"
        cfg.write_text(
            "filters:\n"
            "  - column: perf_var\n"
            "    equals: Triad\n"
            "x: system\n"
            "series: test\n"
            "value: perf_value\n"
            "title: Triad bandwidth\n"
        )
        svg_path = tmp_path / "out.svg"
        rc = plot_main([perflog_dir, "--config", str(cfg), "--svg",
                        str(svg_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Triad bandwidth" in out
        assert svg_path.exists()

    def test_filter_to_nothing(self, perflog_dir, capsys, tmp_path):
        cfg = tmp_path / "plot.yaml"
        cfg.write_text("filters:\n  - column: system\n    equals: summit\n")
        assert plot_main([perflog_dir, "--config", str(cfg)]) == 1

    def test_missing_perflogs(self, capsys):
        assert plot_main(["/nope"]) == 1
