"""``repro-bench``: the command-line front-end, mirroring ``reframe``.

The paper's appendix runs e.g.::

    reframe -c benchmarks/apps/babelstream -r --tag omp \
        --system=isambard-macs:cascadelake -S build_locally=false \
        -S spack_spec='babelstream%gcc@9.2.0 +omp'

the equivalent here::

    repro-bench -c babelstream -r --tag omp \
        --system=isambard-macs:cascadelake -S build_locally=false \
        -S spack_spec='babelstream%gcc@9.2.0 +omp'

Differences are cosmetic (``-c`` takes a benchmark suite name rather than
a path).  ``-n``/``-x`` filter by test name, ``-J`` passes scheduler
options such as ``--qos=standard`` / ``--account=t01``, ``--setvar`` and
``-S`` set test variables, ``--performance-report`` prints the FOM table,
``--list`` lists without running.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.runner.benchmark import REGISTRY
from repro.runner.executor import POLICIES

__all__ = ["main", "build_parser", "load_suite"]

#: benchmark suite name -> (module registering its tests, class filter).
#: A None filter takes every class the module registers.
SUITES = {
    "babelstream": ("repro.apps.babelstream.benchmark",
                    ("BabelStreamBenchmark",)),
    "stream": ("repro.apps.babelstream.benchmark", ("StreamBenchmark",)),
    "hpcg": ("repro.apps.hpcg.benchmark", None),
    "hpgmg": ("repro.apps.hpgmg.benchmark", None),
    "osu": ("repro.apps.osu.benchmark", None),
}


def load_suite(name: str) -> List[type]:
    """Import a suite module and return the test classes it registered."""
    import importlib

    # a user's own sweep file, reframe-style: repro-bench -c my_sweep.py
    if name.endswith(".py"):
        import importlib.util
        import os

        if not os.path.exists(name):
            raise KeyError(f"benchmark file {name!r} does not exist")
        mod_name = (
            "repro_suite_" + os.path.splitext(os.path.basename(name))[0]
        )
        spec = importlib.util.spec_from_file_location(mod_name, name)
        module = importlib.util.module_from_spec(spec)
        # register before exec: inspect.getsource resolves a class's file
        # through sys.modules[cls.__module__], and without it the result
        # store's source key falls back to a placeholder -- editing the
        # sweep file would then stop invalidating --result-store entries
        sys.modules[mod_name] = module
        try:
            spec.loader.exec_module(module)
        except Exception as exc:
            del sys.modules[mod_name]
            raise KeyError(
                f"cannot load benchmark file {name!r}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        return [
            cls
            for cls in (REGISTRY.get(n) for n in REGISTRY.names())
            if cls.__module__ == mod_name
        ]

    # tolerate reframe-style paths: benchmarks/apps/babelstream
    key = name.rstrip("/").rsplit("/", 1)[-1]
    if key not in SUITES:
        raise KeyError(
            f"unknown benchmark suite {name!r}; known: "
            f"{', '.join(sorted(set(SUITES)))}"
        )
    module_name, only = SUITES[key]
    module = importlib.import_module(module_name)
    return [
        cls
        for cls in (REGISTRY.get(n) for n in REGISTRY.names())
        if cls.__module__ == module.__name__
        and (only is None or cls.__name__ in only)
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Automated, reproducible benchmarking (simulated platforms)",
    )
    # dests name CampaignSpec fields: CampaignSpec.from_args copies them
    parser.add_argument("-c", "--checkpath", dest="suites", action="append",
                        default=[], help="benchmark suite to load (babelstream/hpcg/hpgmg)")
    parser.add_argument("-r", "--run", action="store_true", help="run the tests")
    parser.add_argument("--list", action="store_true", help="list selected tests")
    parser.add_argument("--system", default=None,
                        help="target 'system[:partition]'; auto-detected otherwise")
    parser.add_argument("--site", dest="site_yaml", action="append",
                        default=[], metavar="YAML",
                        help="merge extra system definitions from a site "
                             "YAML file (repeatable); lets a campaign "
                             "target fleets not in the built-in registry")
    parser.add_argument("-S", "--spack-var", action="append", default=[],
                        metavar="VAR=VAL", help="set a test variable (spack_spec=...)")
    parser.add_argument("--setvar", action="append", default=[],
                        metavar="VAR=VAL", help="set a test variable")
    parser.add_argument("-n", "--name", action="append", default=[],
                        help="only tests whose name matches")
    parser.add_argument("-x", "--exclude", action="append", default=[],
                        help="exclude tests whose name matches")
    parser.add_argument("--tag", dest="tags", action="append", default=[],
                        help="only tests carrying this tag")
    parser.add_argument("-J", "--job-option", dest="job_options",
                        action="append", default=[],
                        help="scheduler option, e.g. -J'--qos=standard'")
    parser.add_argument("--performance-report", action="store_true")
    parser.add_argument("--perflog-dir", default="perflogs",
                        help="perflog output prefix (default: ./perflogs)")
    parser.add_argument("--environ", dest="environs", action="append",
                        default=[],
                        help="programming environment(s) to use")
    parser.add_argument("--dry-run", action="store_true",
                        help="concretize and render job scripts, run nothing")
    parser.add_argument("--policy", choices=POLICIES,
                        default="serial",
                        help="execution policy: 'serial' (one case at a "
                             "time) or 'async' (dependency wavefronts on a "
                             "thread pool); both deterministic with "
                             "serial-identical output")
    parser.add_argument("-j", "--max-workers", type=int, default=4,
                        metavar="N",
                        help="thread pool size for --policy=async "
                             "(default: 4)")
    # ---- resilience (DESIGN.md section 6) -------------------------------
    parser.add_argument("--max-retries", type=int, default=2, metavar="N",
                        help="retries per case for *transient* failures "
                             "(scheduler errors, build flakes, job "
                             "timeouts/node failures); 0 disables "
                             "(default: 2)")
    parser.add_argument("--max-failures", type=int, default=None,
                        metavar="N",
                        help="campaign circuit breaker: stop submitting "
                             "new cases after N case failures "
                             "(default: unlimited)")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="append every finished case to a crash-safe "
                             "JSONL campaign journal at PATH")
    parser.add_argument("--journal-batch", type=int, default=1,
                        metavar="N",
                        help="with --journal: group-commit journal "
                             "appends in batches of N cases (same bytes, "
                             "~N x fewer fsyncs, bounded tail-loss window; "
                             "default: 1)")
    parser.add_argument("--resume", action="store_true",
                        help="with --journal: skip cases the journal "
                             "records as completed, re-run only "
                             "incomplete ones")
    # ---- incremental campaigns (DESIGN.md section 8) --------------------
    parser.add_argument("--result-store", default=None, metavar="DIR",
                        help="content-addressed whole-case result store: "
                             "cases whose composite address (spec, system, "
                             "benchmark source, run config) is unchanged "
                             "since a previous campaign are replayed from "
                             "DIR -- same perflog rows, spans and energy, "
                             "byte for byte -- and only the invalidated "
                             "delta re-executes")
    parser.add_argument("--cache-stats", action="store_true",
                        help="with --result-store: print hit/miss/"
                             "invalidation counters after the summary")
    parser.add_argument("--inject-faults", default=None, metavar="SPEC",
                        help="deterministic chaos testing: inject faults "
                             "per SPEC, e.g. 'build:0.3,submit:0.2x2,"
                             "timeout@*hpcg*#1' (case kinds: build, "
                             "submit, timeout, hook, perflog, hang, slow, "
                             "sicknode) or storage faults with an "
                             "artifact glob, e.g. 'torn:0.05@journal,"
                             "enospc:0.01' (I/O kinds: enospc, eio, torn, "
                             "bitrot, fsync-lie; targets: journal, trace, "
                             "perflog, store, pack, index)")
    parser.add_argument("--fault-seed", type=int, default=0, metavar="N",
                        help="seed for --inject-faults selection and "
                             "backoff jitter (default: 0)")
    parser.add_argument("--durability", choices=["strict", "degrade"],
                        default="strict",
                        help="storage-failure policy (DESIGN.md section "
                             "6.6): 'strict' fail-stops on any artifact "
                             "write failure, naming the artifact; "
                             "'degrade' finishes the campaign without the "
                             "failing accelerator (result store, trace) "
                             "and reports what was absorbed "
                             "-- journals and perflogs always fail-stop "
                             "(default: strict)")
    # ---- slow faults (DESIGN.md section 6.4) ----------------------------
    parser.add_argument("--watchdog", default=None, metavar="SPEC",
                        help="per-stage deadlines on the simulated clock: "
                             "SECONDS (run deadline) or "
                             "'run=S,build=S[,heartbeat=S]'; a job past "
                             "its run budget is killed as HUNG "
                             "(transient, hence retried)")
    parser.add_argument("--speculate", action="store_true",
                        help="straggler mitigation: launch one "
                             "speculative duplicate for cases slower "
                             "than --straggler-factor x the running "
                             "median of completed peers; first completion "
                             "wins, only the winner is perflogged")
    parser.add_argument("--straggler-factor", type=float, default=2.0,
                        metavar="F",
                        help="with --speculate: threshold multiplier "
                             "over the running median case duration "
                             "(default: 2.0)")
    parser.add_argument("--drain-after", type=int, default=None,
                        metavar="N",
                        help="node health: softly drain a node after N "
                             "attributed fault events (hangs, failures, "
                             "degradations); state is journaled and "
                             "survives --resume (default: off)")
    # ---- observability (DESIGN.md section 7) ----------------------------
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="stream structured spans (pipeline stages, "
                             "scheduler lifecycle, retries, watchdog "
                             "events) to a crash-safe JSONL trace at PATH; "
                             "inspect with repro-trace.  Timestamps are "
                             "simulated seconds, so the file is "
                             "byte-identical across execution policies")
    parser.add_argument("--metrics", action="store_true",
                        help="collect campaign counters and duration "
                             "histograms and print the breakdown after "
                             "the summary (implied by --trace)")
    parser.add_argument("--live-status", default=None, metavar="PATH",
                        help="stream live windowed aggregates (per-system "
                             "throughput, latency percentiles, alerts) to "
                             "a sealed JSONL artifact at PATH while the "
                             "campaign runs; watch with repro-top PATH")
    parser.add_argument("--profile", nargs="?", const="-", default=None,
                        metavar="PATH",
                        help="profile the campaign with cProfile; print "
                             "the top functions by cumulative time, or "
                             "with PATH also save pstats data there for "
                             "snakeviz/pstats analysis")
    return parser


def _probe_writable_dir(path: str) -> Optional[str]:
    """``None`` if *path* is (creatable and) writable, else the reason.

    Probes with a real create-write-unlink cycle rather than
    ``os.access``: access bits lie on read-only mounts and over NFS
    root-squash, and a campaign must find out *now*, not at its first
    result commit.
    """
    import os

    try:
        os.makedirs(path, exist_ok=True)
        probe = os.path.join(path, f".probe-{os.getpid()}")
        fd = os.open(probe, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        try:
            os.write(fd, b"probe")
        finally:
            os.close(fd)
            os.unlink(probe)
        return None
    except OSError as exc:
        return str(exc)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if not args.suites:
        parser.error("no benchmarks selected; use -c <suite>")

    try:
        classes = []
        for path in args.suites:
            classes.extend(load_suite(path))
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.list or not args.run:
        for cls in classes:
            for test in cls.variants():
                print(f"- {test.name} (tags: {', '.join(sorted(test.tags)) or '-'})")
        if not args.run:
            return 0

    if args.cache_stats and not args.result_store:
        print("error: --cache-stats requires --result-store DIR",
              file=sys.stderr)
        return 1

    # everything from here -- site/system resolution, variable parsing,
    # case expansion, flag validation, the run itself -- lives in the
    # embeddable CampaignService; repro-bench is one client of it, the
    # repro-fleet supervisor another
    from repro.fleet.service import (
        CampaignConfigError,
        CampaignService,
        CampaignSpec,
    )

    service = CampaignService()
    try:
        prepared = service.prepare(CampaignSpec.from_args(args),
                                   resume=args.resume)
    except CampaignConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.system is None and prepared.system is not None:
        print(f"auto-detected system: {prepared.system}")
    for warning in prepared.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    executor = prepared.executor
    if args.dry_run:
        from repro.runner.pipeline import dry_run_case

        for case in prepared.cases:
            print(dry_run_case(case))
        return 0

    def run_campaign():
        return prepared.run()

    try:
        if args.profile is not None:
            # --profile[=PATH]: answer "where did the campaign's wall
            # time go" without touching the campaign's own output
            # streams -- the report goes to stderr, and the raw pstats
            # data to PATH if given
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            profiler.enable()
            try:
                report = run_campaign()
            finally:
                profiler.disable()
                stats = pstats.Stats(profiler, stream=sys.stderr)
                stats.sort_stats("cumulative")
                print("== profile (top 25 by cumulative time) ==",
                      file=sys.stderr)
                stats.print_stats(25)
                if args.profile != "-":
                    stats.dump_stats(args.profile)
                    print(f"profile data: {args.profile}", file=sys.stderr)
        else:
            report = run_campaign()
    except ValueError as exc:
        # input the run itself rejects, such as a --resume journal
        # written by a newer release: a clean error line, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.summary(), end="")
    if args.cache_stats and report.result_cache is not None:
        rc = report.result_cache
        print(
            "result store: "
            f"{rc['hits']} hit(s), {rc['misses']} miss(es), "
            f"{rc['invalidated']} invalidated, "
            f"{rc['corrupted']} corrupted "
            f"(hit rate {100.0 * rc['hit_rate']:.1f}%)",
            file=sys.stderr,
        )
    if args.performance_report:
        print(report.performance_report(), end="")
    if args.metrics and report.metrics is not None:
        from repro.obs.cli import render_metrics

        print(render_metrics(report.metrics))
    if report.trace_path is not None:
        print(f"trace: {report.trace_path}")
    if args.live_status is not None:
        print(f"live status: {args.live_status} (watch with repro-top)")
    if executor.perflog and executor.perflog.written:
        print("perflogs:")
        for path in executor.perflog.written:
            print(f"  {path}")
    # exit-code contract (README "Exit codes"): 2 = the campaign ABORTED
    # (circuit breaker, durability failure) and its results are partial;
    # 1 = it ran to completion but some cases failed; 0 = clean.  Usage
    # and validation errors stay 1 (argparse's own errors are 2).
    if report.aborted is not None:
        return 2
    return 0 if report.success else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
