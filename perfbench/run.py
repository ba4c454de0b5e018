"""The repository benchmark: three campaign workloads, timed end to end.

Run from the repository root::

    python3 perfbench/run.py --workload incr-replay --seed 1 --seconds 35 --trace 0

``--workload`` is one of ``fleet-cold``, ``paper-suite``,
``incr-replay`` (see ``perfbench/README.md``) or ``all``, which runs the
three in turn in this one process.  Set-up is repeated three times
(median reported), then measured passes repeat until ``--seconds`` have
passed, at least three of them; every pass's outputs are checked.
``--trace 1`` alternates untraced passes with traced ones and reports
the per-layer breakdown instead of the end-to-end metrics.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (cases, over every pass) and ``metrics``
(one value per metric, summarised as ``STATISTIC`` says).  A full record -- machine, repeat counts, raw
per-pass vectors, the per-layer report -- is written under
``.perfbench/results/``.  The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
from statistics import median
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
MIN_PASSES = 3

#: how each end-to-end metric summarises a run's passes.  On a shared
#: host the same work ran anywhere from 1x to 2x its fastest time, in
#: phases of seconds to minutes, and slow passes measure the other load
#: more than the program.  A campaign pass lasts seconds and mixes
#: phases, so it is summarised by its fastest quarter, which a single
#: lucky pass does not move; an ingest lasts a fraction of a second and
#: falls in one phase, so the fastest one is kept, as ``timeit`` advises
STATISTIC = {
    "cases_per_s": "upper quartile over passes of cases / campaign "
                   "seconds",
    "time_to_table_s": "lower quartile over passes of campaign + ingest "
                       "seconds",
    "ingest_rows_per_s": "fastest ingest: max over passes of rows / ingest "
                         "seconds (each pass: fastest of its repeats)",
    "setup_s": "median import time + median build time",
    "peak_rss_mb": "process maximum (ru_maxrss)",
}

END_TO_END_UNITS = {
    "cases_per_s": "1/s",
    "time_to_table_s": "s",
    "ingest_rows_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def quartiles(values: Sequence[float]) -> List[float]:
    """q1, median, q3, interpolated within the range of ``values``."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def time_imports(modules: Sequence[str]) -> float:
    """Seconds a fresh interpreter spends importing ``modules``."""
    code = (
        "import importlib, sys, time\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "t = time.perf_counter()\n"
        f"for name in {list(modules)!r}:\n"
        "    importlib.import_module(name)\n"
        "print(time.perf_counter() - t)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True, cwd=ROOT)
    return float(out.stdout.strip().splitlines()[-1])


def git_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` (None outside git)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def machine() -> Dict[str, Any]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Set-up, measured passes and checks of one workload."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        from workloads import WORKLOADS

        self.workload = WORKLOADS[name](seed)
        self.name, self.seed = name, seed
        self.seconds, self.trace = seconds, trace
        self.import_s: List[float] = []
        self.setup_s: List[float] = []
        #: per untraced pass: cases, campaign_s, rows, ingest_s, table_s
        self.untraced: List[Dict[str, float]] = []
        #: per traced pass: (wall, per-layer metrics, absent layers, base)
        self.traced: List[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def execute(self, workdir: str) -> None:
        wl = self.workload
        for _ in range(SETUP_REPEATS):
            self.import_s.append(time_imports(wl.imports))
        # nothing under workdir is deleted before the run ends: deleting
        # thousands of files slowed the next pass's file creation
        for k in range(SETUP_REPEATS):
            gc.collect()
            start = time.perf_counter()
            wl.setup(os.path.join(workdir, f"setup{k}"))
            self.setup_s.append(time.perf_counter() - start)
        deadline = time.perf_counter() + self.seconds
        index = 0
        while (index < MIN_PASSES or time.perf_counter() < deadline
               or (self.trace and not self.traced)):
            self.one_pass(os.path.join(workdir, f"pass{index}"),
                          traced=self.trace and index % 2 == 1)
            index += 1

    def one_pass(self, passdir: str, traced: bool) -> None:
        from layers import LayerPatches, SpanClock, install_layers, \
            layer_metrics

        gc.collect()
        if traced:
            clock = SpanClock()
            patches = LayerPatches(clock)
            try:
                p = self.workload.run_pass(
                    passdir, lambda classes: install_layers(patches, classes),
                    repeat_ingest=False)
            finally:
                patches.restore()
            self.traced.append((p.table_s,) + layer_metrics(
                clock, p.table_s, self.workload.workers, p.extra_counts))
        else:
            p = self.workload.run_pass(passdir, lambda classes: None)
            self.untraced.append({
                "cases": p.cases, "campaign_s": p.campaign_s,
                "rows": p.rows, "ingest_s": p.ingest_s,
                "table_s": p.table_s})
        check = self.workload.check(p)
        self.attempted += check.attempted
        self.failed += check.failed
        self.problems.extend(check.problems)

    # -- results -------------------------------------------------------------

    def raw(self) -> Dict[str, List[float]]:
        """Per-pass values of the end-to-end metrics, plus set-up times."""
        u = self.untraced
        return {
            "cases_per_s": [m["cases"] / m["campaign_s"] for m in u],
            "time_to_table_s": [m["table_s"] for m in u],
            "ingest_rows_per_s": [m["rows"] / m["ingest_s"] for m in u],
            "import_s": self.import_s,
            "setup_build_s": self.setup_s,
        }

    def summary(self) -> Dict[str, float]:
        """The end-to-end metrics of the run (see ``STATISTIC``)."""
        u = self.untraced
        return {
            "cases_per_s": quartiles(
                [m["cases"] / m["campaign_s"] for m in u])[2],
            "time_to_table_s": quartiles([m["table_s"] for m in u])[0],
            "ingest_rows_per_s": max(m["rows"] / m["ingest_s"] for m in u),
            "setup_s": median(self.import_s) + median(self.setup_s),
            "peak_rss_mb": peak_rss_mb(),
        }

    def per_layer(self) -> Dict[str, Any]:
        from layers import LAYERS, UNITS

        metrics = {
            name: median([t[1][name] for t in self.traced])
            for name in self.traced[0][1]
        }
        untraced_wall = median([m["table_s"] for m in self.untraced])
        metrics["trace_overhead"] = (
            median([t[0] for t in self.traced]) / untraced_wall - 1.0)
        base = median([t[3] for t in self.traced])
        absent = sorted(set().union(*(t[2] for t in self.traced)))
        rows = []
        for layer, names in LAYERS.items():
            for name in names:
                rows.append({
                    "layer": layer, "metric": name,
                    "value": metrics[name], "unit": UNITS[name],
                    "absent": layer in absent,
                    "share": (metrics[name] / base
                              if UNITS[name] == "s" else None),
                })
        return {"metrics": metrics, "absent": absent, "base_s": base,
                "base": ("thread-seconds" if self.workload.workers > 1
                         else "wall seconds"),
                "rows": rows}

    def record(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "workload": self.name, "seed": self.seed,
            "seconds": self.seconds, "trace": int(self.trace),
            "machine": machine(),
            "repeats": {"setup": len(self.setup_s),
                        "untraced_passes": len(self.untraced),
                        "traced_passes": len(self.traced)},
            "statistic": STATISTIC,
            "raw": self.raw(),
            "summary": self.summary(),
            "checks": {"attempted": self.attempted, "failed": self.failed,
                       "problems": self.problems},
        }
        if self.traced:
            doc["per_layer"] = self.per_layer()
        return doc


def fmt(value: float) -> str:
    return f"{value:.6g}"


def print_report(doc: Dict[str, Any]) -> None:
    print(f"== {doc['workload']} (seed {doc['seed']}, "
          f"{doc['repeats']['untraced_passes']} untraced / "
          f"{doc['repeats']['traced_passes']} traced passes, "
          f"{doc['repeats']['setup']} set-ups) ==")
    print(f"{'metric':<22}{'value':>14}{'pass q1':>14}{'pass q3':>14}  unit")
    for name, unit in END_TO_END_UNITS.items():
        value = doc["summary"][name]
        q1, _, q3 = quartiles(doc["raw"].get(name, [value]))
        print(f"{name:<22}{fmt(value):>14}{fmt(q1):>14}{fmt(q3):>14}  {unit}")
    checks = doc["checks"]
    print(f"checks: {checks['failed']}/{checks['attempted']} case(s) failed")
    for problem in checks["problems"][:10]:
        print(f"  ! {problem}")
    layers = doc.get("per_layer")
    if layers is None:
        return
    print(f"-- per-layer (traced; shares of {fmt(layers['base_s'])} "
          f"{layers['base']}) --")
    shown = set()
    for row in layers["rows"]:
        if row["absent"]:
            if row["layer"] not in shown:
                print(f"{row['layer']:<18} absent")
                shown.add(row["layer"])
            continue
        share = ("" if row["share"] is None
                 else f"{100.0 * row['share']:6.1f}%")
        print(f"{row['layer']:<18}{row['metric']:<28}"
              f"{fmt(row['value']):>12} {row['unit']:<6}{share}")


def result_line(docs: List[Dict[str, Any]], trace: bool) -> Dict[str, Any]:
    metrics: Dict[str, Any] = {}
    for doc in docs:
        prefix = "" if len(docs) == 1 else f"{doc['workload']}."
        if trace:
            from layers import UNITS

            for name, value in doc["per_layer"]["metrics"].items():
                metrics[prefix + name] = {"value": value, "unit": UNITS[name]}
        else:
            for name, unit in END_TO_END_UNITS.items():
                metrics[prefix + name] = {"value": doc["summary"][name],
                                          "unit": unit}
    attempted = sum(d["checks"]["attempted"] for d in docs)
    failed = sum(d["checks"]["failed"] for d in docs)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def write_reference(seed: int, workdir: str) -> int:
    """Regenerate ``reference/paper-suite.json`` from the current code."""
    from workloads import PaperSuite

    wl = PaperSuite(seed)
    wl.setup(os.path.join(workdir, "setup"))
    p = wl.run_pass(os.path.join(workdir, "pass"), lambda classes: None)
    os.makedirs(os.path.dirname(wl.reference_path), exist_ok=True)
    with open(wl.reference_path, "w", encoding="utf-8") as fh:
        json.dump(wl.reference_doc(p), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.reference_path} ({p.cases} cases)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the paper-suite reference outcomes "
                             "from the current code, then exit")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to benchmark: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(WORKLOADS)}, all")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    os.makedirs(os.path.join(STATE, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(STATE, "work"))
    try:
        if args.write_reference:
            return write_reference(args.seed, workdir)
        docs = []
        for name in names:
            run = Run(name, args.seed, args.seconds, bool(args.trace))
            run.execute(os.path.join(workdir, name))
            doc = run.record()
            docs.append(doc)
            print_report(doc)
            results = os.path.join(STATE, "results")
            os.makedirs(results, exist_ok=True)
            path = os.path.join(
                results, f"{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = result_line(docs, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
