"""The benchmark's three workloads: inputs, one measured pass, checks.

Each workload drives ``src/repro`` the way ``repro-bench`` followed by
``repro-plot`` would: ``Executor.expand_cases`` and ``run_cases`` (the
campaign), then ``read_perflogs`` and ``DataFrame.groupby`` (the
post-processed table).  ``setup`` builds the inputs from the seed,
``run_pass`` runs and times one campaign plus ingest in a fresh
directory, and ``check`` compares the outputs with the workload's
reference, case by case.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.trace import Tracer, load_trace, validate_nesting
from repro.postprocess import perflog_reader
from repro.runner.config import SiteConfig, default_site_config
from repro.runner.executor import Executor
from repro.runner.resilience import CampaignJournal

from probes import KERNELS, POINTS, fleet_probe, inc_class

#: perflog timestamp column, pinned so perflogs are byte-comparable
PINNED_TS = "2026-01-01T00:00:00"
FLEET_NODES = 4096
#: group-commit size for the journal and the trace writer
BATCH = 256
#: the post-processed table: one row per (test, platform, FOM), the mean
#: over runs, as ``repro-plot`` aggregates before pivoting
TABLE_KEYS = ["test", "system", "partition", "environ", "perf_var"]
TABLE_AGG = {"perf_value": lambda v: float(np.mean(v.astype(float)))}
#: the table is built at least INGEST_REPEATS times and for at least
#: INGEST_MIN_S seconds per pass: one build of a small table takes a few
#: milliseconds, too short to time steadily on its own
INGEST_REPEATS = 2
INGEST_MIN_S = 0.25

#: called with the pass's benchmark classes just before timing starts
Arm = Callable[[Sequence[type]], None]

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


@dataclass
class Pass:
    """One measured campaign + ingest, with what the checks need."""

    campaign_s: float
    table_s: float
    ingest_s: float
    cases: int
    rows: int
    report: Any
    frame: Any
    workdir: str
    extra_counts: Dict[str, float] = field(default_factory=dict)


@dataclass
class Check:
    """Outcome of one pass's correctness checks."""

    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, cases: int, problem: str) -> None:
        self.failed = min(self.attempted, self.failed + cases)
        self.problems.append(problem)


def fleet_site(environs: Sequence[Tuple[str, str, str]] = ()) -> SiteConfig:
    """The shipped systems plus one synthetic 4096-node SLURM fleet."""
    yaml = (
        "systems:\n"
        "  - name: fleet\n"
        "    description: synthetic campaign fleet\n"
        "    scheduler: slurm\n"
        f"    num_nodes: {FLEET_NODES}\n"
    )
    if environs:
        yaml += "    environs:\n" + "".join(
            f"      - {{name: {name}, compiler: {cc}, version: {ver}}}\n"
            for name, cc, ver in environs
        )
    site = default_site_config()
    site.merge_yaml(yaml)
    return site


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def tree_digests(root: str) -> Dict[str, str]:
    """relpath -> sha256 of every file under ``root``."""
    return {
        os.path.relpath(os.path.join(dirpath, fname), root):
        file_digest(os.path.join(dirpath, fname))
        for dirpath, _, files in os.walk(root) for fname in files
    }


def perflog_relpath(result: Any) -> str:
    """The perflog file a case's rows land in, relative to the prefix."""
    case = result.case
    return os.path.join(case.system.name, case.partition.name,
                        f"{case.test.name}.log")


def tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, fname))
        for dirpath, _, files in os.walk(root) for fname in files
    )


def campaign_pass(executor: Executor, expand, run, perflog_dir: str,
                  workdir: str, arm: Arm, classes: Sequence[type],
                  tracer: Optional[Tracer] = None,
                  repeat_ingest: bool = True) -> Pass:
    """Time expand + run (the campaign) and read + groupby (the table).

    ``arm(classes)`` runs just before timing starts (the traced run
    installs its wrappers there, and ingests once: ``repeat_ingest``
    false).  The pass reports the fastest ingest.
    """
    arm(classes)
    t0 = time.perf_counter()
    cases = expand(executor)
    report = run(executor, cases)
    campaign_s = time.perf_counter() - t0
    ingest: List[float] = []
    while not ingest or (repeat_ingest and (
            len(ingest) < INGEST_REPEATS or sum(ingest) < INGEST_MIN_S)):
        t1 = time.perf_counter()
        frame = perflog_reader.read_perflogs(perflog_dir)
        frame.groupby(TABLE_KEYS, TABLE_AGG)
        ingest.append(time.perf_counter() - t1)
    ingest_s = min(ingest)
    counts = {"perflog.bytes": tree_bytes(perflog_dir)}
    if tracer is not None:
        counts["trace.spans"] = tracer.spans_written
    return Pass(campaign_s=campaign_s, table_s=campaign_s + ingest_s,
                ingest_s=ingest_s, cases=len(cases), rows=len(frame),
                report=report, frame=frame, workdir=workdir,
                extra_counts=counts)


def check_values(check: Check, frame: Any,
                 expected: Dict[Tuple[str, str, str], float]) -> None:
    """Every (test, environ, FOM) row carries its expected value, once.

    Values are compared as the perflog writes them (6 significant
    digits); a case with a missing, extra, repeated or wrong row counts
    as one failed case.
    """
    seen: Dict[Tuple[str, str, str], List[float]] = {}
    for test, env, var, value in zip(frame["test"], frame["environ"],
                                     frame["perf_var"], frame["perf_value"]):
        seen.setdefault((str(test), str(env), str(var)), []).append(
            float(value))
    bad = {
        key for key in set(expected) | set(seen)
        if key not in expected
        or seen.get(key) != [float(f"{expected[key]:.6g}")]
    }
    if bad:
        cases = {(test, env) for test, env, _ in bad}
        check.fail(len(cases), f"{len(bad)} perflog row(s) differ from the "
                               f"expected values, e.g. {sorted(bad)[:3]}")


def check_journal(check: Check, path: str, cases: int) -> None:
    records = CampaignJournal(path).load()
    if len(records) != cases:
        check.fail(check.attempted,
                   f"journal holds {len(records)} case records, "
                   f"expected {cases}")


def check_trace(check: Check, path: str) -> None:
    _, spans, _ = load_trace(path)
    problems = validate_nesting(spans)
    if problems:
        check.fail(check.attempted,
                   f"trace nesting: {len(problems)} violation(s), "
                   f"e.g. {problems[0]}")


# -- fleet-cold --------------------------------------------------------------

class FleetCold:
    """1000 single-FOM probe cases on a 4096-node fleet, full artifacts."""

    name = "fleet-cold"
    workers = 1
    cases = 1000
    imports = ("repro.runner.executor", "repro.obs.trace",
               "repro.postprocess.perflog_reader")

    def __init__(self, seed: int):
        self.seed = seed
        self.reference: Optional[Dict[str, str]] = None
        self.artifacts: Optional[Dict[str, str]] = None

    def setup(self, workdir: str) -> None:
        self.site = fleet_site()
        self.probe = fleet_probe(self.cases, self.seed)

    def run_pass(self, workdir: str, arm: Arm,
                 repeat_ingest: bool = True) -> Pass:
        perflogs = os.path.join(workdir, "perflogs")
        executor = Executor(site=self.site, perflog_prefix=perflogs,
                            perflog_timestamp=PINNED_TS)
        tracer = Tracer(os.path.join(workdir, "trace.jsonl"), batch=BATCH)
        journal = os.path.join(workdir, "journal.jsonl")
        return campaign_pass(
            executor,
            lambda ex: ex.expand_cases([self.probe], "fleet"),
            lambda ex, cases: ex.run_cases(
                cases, policy="serial", journal=journal,
                journal_batch=BATCH, trace=tracer),
            perflogs, workdir, arm, [self.probe], tracer, repeat_ingest,
        )

    def check(self, p: Pass) -> Check:
        check = Check(attempted=self.cases)
        results = p.report.results
        if len(results) != self.cases or not p.report.success:
            check.fail(self.cases - len(p.report.passed),
                       f"{len(p.report.passed)}/{self.cases} cases passed")
        check_values(check, p.frame, {
            (r.case.test.name, r.case.environ_name, "value"):
            r.case.test.fom() for r in results
        })
        if p.rows != self.cases:
            check.fail(abs(p.rows - self.cases),
                       f"{p.rows} perflog rows for {self.cases} cases")
        # the perflog tree is byte-identical in every pass of a run
        digests = tree_digests(os.path.join(p.workdir, "perflogs"))
        if self.reference is None:
            self.reference = digests
        diff = {k for k in set(digests) | set(self.reference)
                if digests.get(k) != self.reference.get(k)}
        if diff:
            check.fail(len(diff), f"{len(diff)} perflog file(s) differ "
                                  f"from the run's first pass")
        # journal and trace are parsed once; later passes must reproduce
        # the first pass's bytes
        artifacts = {name: file_digest(os.path.join(p.workdir, name))
                     for name in ("journal.jsonl", "trace.jsonl")}
        if self.artifacts is None:
            check_journal(check, os.path.join(p.workdir, "journal.jsonl"),
                          self.cases)
            check_trace(check, os.path.join(p.workdir, "trace.jsonl"))
            self.artifacts = artifacts
        elif artifacts != self.artifacts:
            check.fail(self.cases, "journal/trace bytes differ from the "
                                   "run's first pass")
        return check


# -- paper-suite -------------------------------------------------------------

#: Table 3: hpgmg%gcc's concretized gcc, Python and MPI per system
TABLE3 = {
    "archer2": ("11.2.0", "3.10.12", "cray-mpich", "8.1.23"),
    "cosma8": ("11.1.0", "2.7.15", "mvapich2", "2.3.6"),
    "csd3": ("11.2.0", "3.8.2", "openmpi", "4.0.4"),
    "isambard-macs": ("9.2.0", "3.7.5", "openmpi", "4.0.3"),
}
SUITES = ("babelstream", "hpcg", "hpgmg", "osu")


def outcome(result: Any) -> str:
    return "pass" if result.passed else f"n/a:{result.failing_stage}"


def fom_digest(result: Any) -> str:
    text = ";".join(f"{var}={value!r}{unit}"
                    for var, (value, unit) in sorted(result.perfvars.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def table3_row(spec: Any) -> Tuple[str, str, str, str]:
    mpi = next(name for name in ("cray-mpich", "mvapich2", "openmpi",
                                 "intel-oneapi-mpi", "mpich")
               if name in spec)
    return (str(spec.compiler.version), str(spec["python"].version), mpi,
            str(spec[mpi].version))


class PaperSuite:
    """The paper's campaign: four suites on every registry platform."""

    name = "paper-suite"
    workers = 2
    imports = ("repro.runner.executor", "repro.runner.cli",
               "repro.postprocess.perflog_reader",
               "repro.apps.babelstream.benchmark", "repro.apps.hpcg.benchmark",
               "repro.apps.hpgmg.benchmark", "repro.apps.osu.benchmark")
    reference_path = os.path.join(REFERENCE_DIR, "paper-suite.json")

    def __init__(self, seed: int):
        """The paper's campaign is fixed: the seed selects nothing here."""

    def setup(self, workdir: str) -> None:
        from repro.runner.cli import load_suite

        self.classes = [cls for suite in SUITES for cls in load_suite(suite)]
        self.site = default_site_config()
        self.platforms = [
            f"{name}:{part}"
            for name, system in self.site.systems.items()
            for part in system.partitions
        ]
        self.reference = None
        if os.path.exists(self.reference_path):
            with open(self.reference_path, encoding="utf-8") as fh:
                self.reference = json.load(fh)["cases"]

    def run_pass(self, workdir: str, arm: Arm,
                 repeat_ingest: bool = True) -> Pass:
        perflogs = os.path.join(workdir, "perflogs")
        # a fresh executor per pass: the concretizer memo starts cold, as
        # in a new repro-bench process
        executor = Executor(site=self.site, perflog_prefix=perflogs,
                            perflog_timestamp=PINNED_TS)

        def expand(ex):
            return [case for platform in self.platforms
                    for case in ex.expand_cases(self.classes, platform)]

        return campaign_pass(
            executor, expand,
            lambda ex, cases: ex.run_cases(cases, policy="async",
                                           workers=self.workers),
            perflogs, workdir, arm, self.classes,
            repeat_ingest=repeat_ingest,
        )

    @staticmethod
    def reference_doc(p: Pass) -> Dict[str, Any]:
        return {"cases": {
            r.case.display_name: {"outcome": outcome(r),
                                  "foms": fom_digest(r)}
            for r in p.report.results
        }}

    def check(self, p: Pass) -> Check:
        if self.reference is None:
            raise FileNotFoundError(f"no reference at {self.reference_path}")
        check = Check(attempted=len(self.reference))
        got = self.reference_doc(p)["cases"]
        wrong = {name for name in set(got) | set(self.reference)
                 if got.get(name) != self.reference.get(name)}
        if wrong:
            check.fail(len(wrong), f"{len(wrong)} case(s) differ from the "
                                   f"reference, e.g. {sorted(wrong)[:3]}")
        for system, row in TABLE3.items():
            specs = [r.concrete_spec for r in p.report.results
                     if r.case.system.name == system
                     and type(r.case.test).__name__ == "HpgmgBenchmark"
                     and r.concrete_spec is not None]
            if not specs or any(table3_row(s) != row for s in specs):
                check.fail(1, f"Table 3 row for {system}: "
                              f"{[table3_row(s) for s in specs]} != {row}")
        rows = sum(max(len(r.perfvars), 1) for r in p.report.results)
        if p.rows != rows:
            check.fail(abs(p.rows - rows),
                       f"{p.rows} perflog rows, expected {rows}")
        return check


# -- incr-replay -------------------------------------------------------------

N_CLASSES = 100
ENVIRONS = (("gnu", "gcc", "12.3.0"), ("llvm", "clang", "17.0.1"),
            ("aocc", "aocc", "4.1.0"), ("cray", "cce", "16.0.0"),
            ("nvhpc", "nvhpc", "23.9"))


class IncrReplay:
    """A warm 5000-case campaign over a result store, one class edited."""

    name = "incr-replay"
    workers = 1
    cases = N_CLASSES * POINTS * len(ENVIRONS)
    delta = POINTS * len(ENVIRONS)
    imports = ("repro.runner.executor", "repro.runner.results",
               "repro.obs.trace", "repro.postprocess.perflog_reader")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.offset = rng.uniform(0.0, 50.0)
        self.edited = rng.randrange(N_CLASSES)

    def classes(self, edit: bool) -> List[type]:
        """Fresh class objects (source hashes uncached, as in a new
        process), with the seed's class edited when ``edit``."""
        return [inc_class(i, self.offset,
                          "r1" if edit and i == self.edited else "r0")
                for i in range(N_CLASSES)]

    def campaign(self, workdir: str, store: str, classes: List[type],
                 arm: Arm, repeat_ingest: bool = False) -> Pass:
        perflogs = os.path.join(workdir, "perflogs")
        executor = Executor(site=self.site, perflog_prefix=perflogs,
                            perflog_timestamp=PINNED_TS)
        tracer = Tracer(os.path.join(workdir, "trace.jsonl"), batch=BATCH)
        journal = os.path.join(workdir, "journal.jsonl")
        envs = [name for name, _, _ in ENVIRONS]
        return campaign_pass(
            executor,
            lambda ex: ex.expand_cases(classes, "fleet", environs=envs),
            lambda ex, cases: ex.run_cases(
                cases, policy="serial", journal=journal,
                journal_batch=BATCH, trace=tracer, result_store=store),
            perflogs, workdir, arm, classes, tracer, repeat_ingest,
        )

    def setup(self, workdir: str) -> None:
        """Fill a pristine store with a cold run; keep its perflogs."""
        self.site = fleet_site(ENVIRONS)
        self.store = os.path.join(workdir, "store")
        cold = self.campaign(os.path.join(workdir, "cold"), self.store,
                             self.classes(edit=False), lambda _: None)
        stats = cold.report.result_cache or {}
        if not cold.report.success or stats.get("puts") != self.cases:
            raise RuntimeError(f"cold run did not store every case: {stats}")
        self.reference = tree_digests(os.path.join(workdir, "cold",
                                                   "perflogs"))

    def run_pass(self, workdir: str, arm: Arm,
                 repeat_ingest: bool = True) -> Pass:
        # untimed: each pass edits a private copy of the pristine store
        store = os.path.join(workdir, "store")
        shutil.copytree(self.store, store)
        return self.campaign(workdir, store, self.classes(edit=True), arm,
                             repeat_ingest)

    def check(self, p: Pass) -> Check:
        check = Check(attempted=self.cases)
        report = p.report
        stats = report.result_cache or {}
        want = {"hits": self.cases - self.delta,
                "invalidated": self.delta, "puts": self.delta}
        got = {key: stats.get(key) for key in want}
        if got != want or len(report.replayed) != want["hits"]:
            check.fail(self.delta, f"result store {got}, expected {want}")
        if len(report.passed) != self.cases:
            check.fail(self.cases - len(report.passed),
                       f"{len(report.passed)}/{self.cases} cases passed")
        # the probe prints its rates with 3 decimals
        check_values(check, p.frame, {
            (r.case.test.name, r.case.environ_name, kernel.lower()):
            float(f"{r.case.test.rate(factor):.3f}")
            for r in report.results for kernel, factor in KERNELS
        })
        digests = tree_digests(os.path.join(p.workdir, "perflogs"))
        diff = {k for k in set(digests) | set(self.reference)
                if digests.get(k) != self.reference.get(k)}
        if diff:
            check.fail(
                sum(perflog_relpath(r) in diff for r in report.results),
                f"{len(diff)} perflog file(s) differ from the cold run")
        return check


WORKLOADS = {cls.name: cls for cls in (FleetCold, PaperSuite, IncrReplay)}
