"""``repro-plot``: perflogs -> filtered table / bar chart, YAML-driven.

Usage::

    repro-plot perflogs/ --config plot.yaml [--svg out.svg] [--csv]

With no config the tool prints the assimilated DataFrame.  The config
drives filtering and the pivot (see :mod:`repro.postprocess.filters`).
Every invocation reads each perflog whole, in sorted path order
(:func:`~repro.postprocess.perflog_reader.read_perflogs`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.postprocess.dataframe import DataFrame
from repro.postprocess.filters import FilterError, apply_filters, load_config
from repro.postprocess.perflog_reader import read_perflogs
from repro.postprocess.plotting import bar_chart_ascii, bar_chart_svg

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-plot", description="perflog post-processing and plotting"
    )
    parser.add_argument("perflogs", help="perflog directory or glob")
    parser.add_argument("--config", help="YAML filter/plot configuration")
    parser.add_argument("--svg", help="write an SVG bar chart to this path")
    parser.add_argument("--csv", action="store_true",
                        help="emit CSV instead of a table")
    parser.add_argument("--check-regressions", action="store_true",
                        help="CI gate: compare latest runs against the "
                             "perflog history; exit 1 on regression")
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="relative change treated as a regression")
    parser.add_argument("--timeseries", metavar="PERF_VAR",
                        help="render one FOM's history per system as an "
                             "SVG line chart (use with --svg)")
    parser.add_argument("--energy", metavar="PROVENANCE.json",
                        help="join per-case energy telemetry from a "
                             "provenance file: adds 'mean_watts' and "
                             "'perf_per_watt' columns (use e.g. "
                             "'value: perf_per_watt' in the plot config "
                             "for FOM-per-watt charts)")
    return parser


def _attach_energy(frame: "DataFrame", provenance_path: str) -> "DataFrame":
    """Join provenance energy onto the perflog frame by case identity.

    Each provenance case entry carries an ``energy`` dict (mean watts,
    joules) captured during the run stage; perflog rows have no power
    column of their own, so efficiency analysis joins the two artifacts
    on ``(test, system:partition, environ)``.  Rows without telemetry
    get NaN -- they simply drop out of numeric aggregation.
    """
    from repro.core.provenance import RunProvenance

    with open(provenance_path, encoding="utf-8") as fh:
        prov = RunProvenance.from_json(fh.read())
    watts: dict = {}
    for entry in prov.entries:
        energy = entry.get("energy")
        if not energy:
            continue
        key = (entry.get("test"), entry.get("platform"),
               entry.get("environ"))
        watts[key] = float(energy.get("mean_watts", 0.0))
    records = frame.to_records()
    col_watts = np.empty(len(records), dtype=float)
    col_per_watt = np.empty(len(records), dtype=float)
    for i, row in enumerate(records):
        platform = f"{row.get('system')}:{row.get('partition')}"
        w = watts.get((row.get("test"), platform, row.get("environ")))
        col_watts[i] = w if w else np.nan
        value = row.get("perf_value")
        try:
            value = float(value)
        except (TypeError, ValueError):
            value = np.nan
        col_per_watt[i] = value / w if w else np.nan
    frame["mean_watts"] = col_watts
    frame["perf_per_watt"] = col_per_watt
    return frame


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        frame = read_perflogs(args.perflogs)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.energy:
        try:
            frame = _attach_energy(frame, args.energy)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: --energy: {exc}", file=sys.stderr)
            return 1

    if args.check_regressions:
        from repro.core.regression import RegressionTracker

        report = RegressionTracker(threshold=args.threshold).check(frame)
        print(report.render())
        return report.exit_code()

    if args.timeseries:
        from repro.postprocess.plotting import line_chart_svg

        sub = frame.filter_eq("perf_var", args.timeseries)
        if sub.empty:
            print(f"no records for FOM {args.timeseries!r}", file=sys.stderr)
            return 1
        series: dict = {}
        for row in sub.to_records():
            key = f"{row['system']}:{row['partition']}/{row['test']}"
            pts = series.setdefault(key, [])
            pts.append((len(pts) + 1, float(row["perf_value"])))
        for key, pts in series.items():
            values = ", ".join(f"{v:.4g}" for _, v in pts)
            print(f"{key}: {values}")
        if args.svg:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(line_chart_svg(
                    series, title=f"{args.timeseries} over runs",
                    x_label="run", y_label=args.timeseries,
                ))
            print(f"wrote {args.svg}")
        return 0

    config = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = load_config(fh.read())
            frame = apply_filters(frame, config)
        except (OSError, FilterError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    if frame.empty:
        print("no data after filtering", file=sys.stderr)
        return 1

    if args.csv:
        print(frame.to_csv(), end="")
        return 0

    x = config.get("x")
    series_col = config.get("series")
    value_col = config.get("value", "perf_value")
    if x and series_col:
        # aggregate duplicates (multiple runs) by mean before pivoting
        agg = frame.groupby(
            [x, series_col], {value_col: lambda v: float(np.mean(v.astype(float)))}
        )
        index, series = agg.pivot(x, series_col, value_col)
        title = config.get("title", "")
        unit = frame.unique("perf_unit")[0] if "perf_unit" in frame else ""
        print(bar_chart_ascii(index, series, title=title, unit=str(unit)),
              end="")
        if args.svg:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(bar_chart_svg(index, series, title=title,
                                       unit=str(unit)))
            print(f"wrote {args.svg}")
    else:
        print(frame.to_string())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
