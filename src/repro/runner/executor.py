"""The execution policies: expand test cases, run them, report.

Mirrors ``reframe -r``: take the selected benchmark classes, fan out over
parameter variants and the target platform's environments, push each case
through the pipeline, write perflogs, and produce the run summary (the
``[ PASSED ]`` / ``[ FAILED ]`` lines and the ``--performance-report``
table).

Two execution policies are provided (DESIGN.md section 4), both one
in-process path -- :func:`~repro.runner.parallel.run_waves` -- that
differ only in their worker count:

* ``serial`` -- one case at a time, in topological dependency order;
* ``async`` -- dependency wavefronts on a thread pool of ``workers``
  threads, with results, reports, and perflogs in the exact serial
  order (deterministic, bit-identical output).

Either way one :class:`~repro.pkgmgr.memo.ConcretizationCache` and one
:class:`~repro.pkgmgr.installer.Installer` are shared across the whole
campaign: identical abstract specs concretize once per (spec, system
config), dependency builds are reused, and roots are still rebuilt every
run (Principle 3).
"""

from __future__ import annotations

import fnmatch
import hashlib
import io
import json
import re
from dataclasses import asdict, dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Pattern,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.faults import FaultClock, FaultPlan
from repro.obs.live import LiveStatsSink, as_live_sink
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import ReplayedSpans, Tracer, as_tracer
from repro.pkgmgr.installer import Installer
from repro.pkgmgr.memo import ConcretizationCache
from repro.runner.benchmark import RegressionTest
from repro.runner.config import SiteConfig, default_site_config
from repro.runner.fields import class_variables, parameter_space
from repro.runner.health import HealthTracker
from repro.runner.parallel import (
    SpeculationPolicy,
    order_by_dependencies,
    run_waves,
)
from repro.runner.perflog import PerflogHandler
from repro.runner.pipeline import CaseResult, TestCase, run_case
from repro.runner.resilience import (
    COMPLETED_STATUSES,
    CampaignAborted,
    CampaignJournal,
    CircuitBreaker,
    DurabilityError,
    DurabilityPolicy,
    Quarantine,
    RetryPolicy,
    _sha_text,
    as_journal,
    case_fingerprint,
    make_case_record,
    result_from_record,
)
from repro.runner.results import (
    CaseResultStore,
    as_result_store,
    make_entry,
    replay_result,
)
from repro.runner.watchdog import Watchdog, WatchdogSpec, as_watchdog

__all__ = ["Executor", "RunConfig", "RunReport", "POLICIES"]

#: the execution policies run_cases accepts
POLICIES = ("serial", "async")


@dataclass(frozen=True)
class RunConfig:
    """How a campaign runs: the one declaration of its run options.

    ``Executor.run_cases(cases, config, **fields)`` runs under *config*
    with any keyword replacing one field; ``CampaignService.prepare``
    resolves a ``CampaignSpec`` into one.  Construction validates the
    options (a bad one raises :class:`ValueError` naming its CLI flag),
    and :meth:`fingerprint` hashes the ones that shape case results.
    None of the optional features are armed by default, and the default
    config runs byte-identically to earlier releases.
    """

    #: ``'serial'`` runs one case at a time, ``'async'`` dependency
    #: wavefronts on ``workers`` threads; both in the same result order
    policy: str = "serial"
    workers: int = 1
    # -- resilience (DESIGN.md section 6) ---------------------------------
    #: per-case re-attempts of transient failures (None: three attempts,
    #: exponential backoff on the virtual clock)
    retry: Optional[RetryPolicy] = None
    #: the deterministic chaos plan injected at every pipeline fault
    #: site; its I/O kinds arm a :class:`~repro.iofaults.FaultyIO` shim
    #: across every artifact writer
    faults: Optional[FaultPlan] = None
    #: campaign circuit breaker: failures are counted in deterministic
    #: result order and, once the budget is spent, the remaining cases
    #: are not run (:attr:`RunReport.aborted` carries the trip message)
    max_failures: Optional[int] = None
    #: a crash-safe JSONL journal every finished case is appended to
    #: *after* its perflog rows are flushed; compacted on success
    journal: Optional[Union[str, CampaignJournal]] = None
    #: replay the journal's completed cases instead of re-running them
    resume: bool = False
    #: with ``resume``: quarantine cases that failed this many times
    quarantine_threshold: Optional[int] = 3
    # -- slow faults (DESIGN.md section 6.4) ------------------------------
    #: per-stage deadlines on the simulated clock (spec string,
    #: :class:`WatchdogSpec` or armed :class:`Watchdog`): a job past its
    #: ``run`` budget is cancelled as HUNG (transient, hence retried), a
    #: build over its ``build`` budget fails the build stage
    watchdog: Optional[Union[str, WatchdogSpec, Watchdog]] = None
    #: launch one duplicate of any case slower than ``straggler_factor``
    #: x the running median of completed peers; only the accepted
    #: attempt is perflogged/journaled
    speculation: bool = False
    straggler_factor: float = 2.0
    #: arm a campaign-wide :class:`HealthTracker`: nodes blamed for this
    #: many fault events are softly drained from allocation; the state
    #: is journaled and restored on ``resume``
    drain_after: Optional[int] = None
    # -- observability (DESIGN.md section 7) ------------------------------
    #: a path or :class:`~repro.obs.trace.Tracer`: stream spans to a
    #: crash-safe JSONL trace, flushed per case in result order, on the
    #: simulated clock -- byte-identical across execution policies
    trace: Optional[Union[str, Tracer]] = None
    #: ``True`` or a shared :class:`MetricsRegistry`: collect counters and
    #: duration histograms into :attr:`RunReport.metrics`, the trace's
    #: final record and provenance.  Tracing implies metrics
    metrics: Optional[Union[bool, MetricsRegistry]] = None
    #: group-commit journal appends: records for up to this many cases
    #: are written in one durable append, each batch after its perflog
    #: rows are flushed.  The bytes are identical to per-case appends;
    #: the trade is ~N x fewer fsyncs against a bounded tail-loss window
    journal_batch: int = 1
    # -- incremental campaigns (DESIGN.md section 8) ----------------------
    #: a directory or :class:`~repro.runner.results.CaseResultStore`:
    #: content-address every finished case (coordinates, concretization
    #: problem, system, benchmark source, :meth:`fingerprint`) and replay
    #: unchanged cases byte-identically; replays journal as meta records
    result_store: Optional[Union[str, CaseResultStore]] = None
    # -- storage faults (DESIGN.md section 6.6) ---------------------------
    #: ``'strict'`` fail-stops on an artifact write failure with a
    #: :class:`DurabilityError` naming it; ``'degrade'`` drops the optional
    #: ones (result store, trace) and keeps running.  The journal and
    #: perflogs fail-stop under either (perflogs retry first)
    durability: str = "strict"
    # -- live analytics (DESIGN.md section 10) ----------------------------
    #: a path or :class:`~repro.obs.live.LiveStatsSink`: a pure observer
    #: of every completed case; a path streams ``live-status`` snapshots
    #: for ``repro-top``
    live: Optional[Union[str, LiveStatsSink]] = None

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown execution policy {self.policy!r}; known: "
                f"{', '.join(POLICIES)}"
            )
        if self.workers < 1:
            raise ValueError("-j/--max-workers must be >= 1")
        if self.resume and not self.journal:
            raise ValueError("--resume requires --journal PATH")
        if self.journal_batch < 1:
            raise ValueError("--journal-batch must be >= 1")
        if self.straggler_factor <= 1.0:
            raise ValueError("--straggler-factor must be > 1")
        if self.drain_after is not None and self.drain_after < 1:
            raise ValueError("--drain-after must be >= 1")
        if self.max_failures is not None and self.max_failures < 1:
            raise ValueError("--max-failures must be >= 1")
        if self.durability not in DurabilityPolicy.MODES:
            raise ValueError(
                f"--durability must be one of "
                f"{', '.join(DurabilityPolicy.MODES)}, "
                f"got {self.durability!r}"
            )

    def _speculation(self) -> Optional[SpeculationPolicy]:
        if not self.speculation:
            return None
        return SpeculationPolicy(straggler_factor=self.straggler_factor)

    def fingerprint(self) -> str:
        """Content hash of the options that shape case *results*.

        Retry policy, fault plan and seed, watchdog deadlines, straggler
        threshold and drain threshold can each change a stored result,
        so each invalidates the result store.  Policy, workers, batching
        and artifact paths choose *how* the campaign runs, not what its
        artifacts contain, so they are left out.
        """
        watchdog = as_watchdog(self.watchdog)
        speculation = self._speculation()
        doc: Dict[str, Any] = {
            "retry": asdict(self.retry or RetryPolicy()),
            "faults": (
                {"spec": self.faults.format(), "seed": self.faults.seed}
                if self.faults is not None else None
            ),
            "watchdog": (
                watchdog.spec.format() if watchdog is not None else None
            ),
            "speculation": (
                {"straggler_factor": speculation.straggler_factor}
                if speculation is not None else None
            ),
            "drain_after": self.drain_after,
        }
        return _sha_text(json.dumps(doc, sort_keys=True))


@dataclass
class RunReport:
    results: List[CaseResult] = field(default_factory=list)
    #: circuit-breaker trip message when the campaign stopped early
    aborted: Optional[str] = None
    #: nodes the health tracker drained during the campaign
    drained_nodes: List[str] = field(default_factory=list)
    #: watchdog accounting (``Watchdog.as_dict()``) when one was armed
    watchdog: Optional[Dict[str, Any]] = None
    #: node-health ledger (``HealthTracker.as_dict()``) when one ran
    health: Optional[Dict[str, Any]] = None
    #: end-of-campaign metrics snapshot (``MetricsRegistry.snapshot()``)
    #: when tracing or metrics collection was enabled -- the same dict
    #: the trace file's final record and ``attach_metrics`` carry
    metrics: Optional[Dict[str, Any]] = None
    #: the JSONL trace file spans were streamed to (None: not traced)
    trace_path: Optional[str] = None
    #: the sealed live-status artifact the live plane streamed to
    #: (None: no live sink, in-memory sink, or the stream degraded)
    live_status_path: Optional[str] = None
    #: result-store accounting (``ResultStoreStats.as_dict()``) when a
    #: --result-store was armed -- the ``Replayed:`` summary line and
    #: ``--cache-stats`` reporting read this
    result_cache: Optional[Dict[str, Any]] = None
    #: artifact -> absorbed storage-failure count under ``--durability
    #: degrade`` (None when nothing degraded: quiet summaries unchanged)
    degraded: Optional[Dict[str, int]] = None

    @property
    def num_cases(self) -> int:
        return len(self.results)

    @property
    def passed(self) -> List[CaseResult]:
        return [r for r in self.results if r.passed]

    @property
    def failed(self) -> List[CaseResult]:
        return [r for r in self.results if not r.passed and not r.skipped]

    @property
    def skipped(self) -> List[CaseResult]:
        return [r for r in self.results if r.skipped]

    @property
    def retried(self) -> List[CaseResult]:
        return [r for r in self.results if r.attempts > 1]

    @property
    def resumed(self) -> List[CaseResult]:
        return [r for r in self.results if r.resumed]

    @property
    def quarantined(self) -> List[CaseResult]:
        return [r for r in self.results if r.quarantined]

    @property
    def replayed(self) -> List[CaseResult]:
        return [r for r in self.results if r.replayed]

    @property
    def faults_injected(self) -> int:
        return sum(len(r.fault_log) for r in self.results)

    @property
    def speculated(self) -> List[CaseResult]:
        return [r for r in self.results if r.speculated]

    @property
    def speculation_wins(self) -> List[CaseResult]:
        return [r for r in self.results if r.speculation_won]

    @property
    def hung_attempts(self) -> int:
        return sum(r.hung_attempts for r in self.results)

    @property
    def success(self) -> bool:
        return not self.failed and self.aborted is None

    def summary(self) -> str:
        out = io.StringIO()
        for r in self.results:
            if r.passed:
                out.write(f"[ PASSED ] {r.case.display_name}\n")
            elif r.skipped:
                out.write(f"[  SKIP  ] {r.case.display_name}\n")
            else:
                out.write(
                    f"[ FAILED ] {r.case.display_name} "
                    f"({r.failing_stage}: {r.failure_reason})\n"
                )
        out.write(
            f"Ran {self.num_cases} case(s): {len(self.passed)} passed, "
            f"{len(self.failed)} failed, {len(self.skipped)} skipped\n"
        )
        # resilience counters, shown only when the campaign exercised them
        # (a quiet run's summary is byte-identical to the historical one)
        if self.retried:
            extra = sum(r.attempts - 1 for r in self.retried)
            out.write(
                f"Retried {len(self.retried)} case(s) "
                f"({extra} extra attempt(s))\n"
            )
        if self.resumed:
            out.write(
                f"Resumed {len(self.resumed)} case(s) from the "
                f"campaign journal\n"
            )
        if self.replayed:
            rate = 100.0 * len(self.replayed) / max(self.num_cases, 1)
            out.write(
                f"Replayed: {len(self.replayed)} case(s) from the "
                f"result store (hit rate {rate:.1f}%)\n"
            )
        if self.quarantined:
            out.write(f"Quarantined {len(self.quarantined)} case(s)\n")
        if self.faults_injected:
            out.write(f"Absorbed {self.faults_injected} injected fault(s)\n")
        if self.hung_attempts:
            out.write(
                f"Hung: {self.hung_attempts} attempt(s) killed by the "
                f"watchdog\n"
            )
        if self.speculated:
            out.write(
                f"Speculated {len(self.speculated)} straggler case(s) "
                f"({len(self.speculation_wins)} duplicate(s) won)\n"
            )
        if self.drained_nodes:
            out.write(
                f"Drained {len(self.drained_nodes)} node(s): "
                f"{', '.join(self.drained_nodes)}\n"
            )
        if self.degraded:
            detail = ", ".join(
                f"{artifact}: {count}"
                for artifact, count in sorted(self.degraded.items())
            )
            out.write(
                f"Degraded: {sum(self.degraded.values())} storage "
                f"failure(s) absorbed ({detail})\n"
            )
        if self.aborted:
            out.write(f"ABORTED: {self.aborted}\n")
        return out.getvalue()

    def performance_report(self) -> str:
        """The --performance-report table."""
        out = io.StringIO()
        out.write("PERFORMANCE REPORT\n")
        out.write("-" * 78 + "\n")
        for r in self.passed:
            if not r.perfvars:
                continue
            out.write(f"{r.case.display_name}\n")
            for var, (value, unit) in sorted(r.perfvars.items()):
                out.write(f"   - {var}: {value:.4g} {unit}\n")
        return out.getvalue()


def _compile_patterns(
    patterns: Optional[List[str]],
) -> Optional[List[Tuple[Pattern[str], str]]]:
    """Pre-compile -n/-x filters once per expansion (not once per case).

    Each pattern matches as fnmatch *or* substring, exactly as before;
    compiling ``fnmatch.translate`` output hoists the regex build out of
    the (class x variant x environment) triple loop.
    """
    if not patterns:
        return None
    return [(re.compile(fnmatch.translate(p)), p) for p in patterns]


def _name_hits(name: str, compiled: List[Tuple[Pattern[str], str]]) -> bool:
    return any(regex.match(name) or raw in name for regex, raw in compiled)


class Executor:
    """Expands and runs benchmark cases on one target platform."""

    def __init__(
        self,
        site: Optional[SiteConfig] = None,
        perflog_prefix: Optional[str] = None,
        perflog_batch: int = 64,
        perflog_timestamp: Optional[Union[str, Callable[[], str]]] = None,
    ):
        self.site = site or default_site_config()
        self.perflog = (
            PerflogHandler(
                perflog_prefix,
                batch_size=perflog_batch,
                timestamp=perflog_timestamp,
            )
            if perflog_prefix
            else None
        )
        # one installer per executor: dependency builds are reused across
        # cases within a session, roots always rebuilt (Principle 3)
        self.installer = Installer()
        # one concretization memo per executor: identical (abstract spec,
        # system config) pairs solve once per campaign (Principle 4: every
        # concretization, cached or not, still lands in the lockfile)
        self.concretizer_cache = ConcretizationCache()

    def expand_cases(
        self,
        test_classes: Sequence[Type[RegressionTest]],
        system: str,
        environs: Optional[List[str]] = None,
        setvars: Optional[Dict[str, Any]] = None,
        spec_override: Optional[str] = None,
        account: Optional[str] = None,
        qos: Optional[str] = None,
        name_patterns: Optional[List[str]] = None,
        exclude: Optional[List[str]] = None,
        tags: Optional[List[str]] = None,
    ) -> List[TestCase]:
        """All (variant, environment) cases for one 'system[:partition]'.

        ``name_patterns``/``exclude``/``tags`` filter at *variant* level:
        ``--tag omp`` selects just the OpenMP BabelStream variant, and the
        paper's ``-n HPCG_ -x HPCG_Intel`` selects by (variant) name.

        Filtering is decided once per variant -- names are computed from
        the parameter point without instantiating the test, and at most
        one probe instance is built for tag filtering -- so excluded
        variants cost no test construction at all, and included ones are
        constructed exactly once per environment.
        """
        sysconf, partconf = self.site.get(system)
        env_names = environs or ["default"]
        include_pats = _compile_patterns(name_patterns)
        exclude_pats = _compile_patterns(exclude)
        tagset = set(tags) if tags else None
        cases = []
        for cls in test_classes:
            for point in parameter_space(cls):
                # name filters need no instance at all
                name = cls.name_for_params(point)
                if include_pats is not None and not _name_hits(name, include_pats):
                    continue
                if exclude_pats is not None and _name_hits(name, exclude_pats):
                    continue
                # tags may be refined in __init__ (e.g. BabelStream adds
                # its model), so probe with one throwaway instance -- which
                # is then *reused* as the first environment's test
                probe: Optional[RegressionTest] = None
                if tagset is not None:
                    probe = cls(**point)
                    if not tagset <= set(probe.tags):
                        continue
                for env_name in env_names:
                    # a fresh instance per case: cases must not share state
                    if probe is not None:
                        test, probe = probe, None
                    else:
                        test = cls(**point)
                    self._apply_setvars(test, setvars or {})
                    if spec_override is not None and hasattr(test, "spack_spec"):
                        test.spack_spec = spec_override
                    cases.append(
                        TestCase(
                            test=test,
                            system=sysconf,
                            partition=partconf,
                            environ_name=env_name,
                            account=account,
                            qos=qos,
                        )
                    )
        return cases

    @staticmethod
    def _apply_setvars(test: RegressionTest, setvars: Dict[str, Any]) -> None:
        if not setvars:
            return  # skip the MRO walk on the expansion hot path
        declared = class_variables(type(test))
        for name, value in setvars.items():
            if name not in declared:
                raise KeyError(
                    f"--setvar {name}: {type(test).__name__} declares no "
                    f"such variable (has: {', '.join(sorted(declared))})"
                )
            if isinstance(value, str):
                value = declared[name].coerce(value)
            setattr(test, name, value)

    def run_cases(
        self,
        cases: Sequence[TestCase],
        config: Optional[RunConfig] = None,
        **fields: Any,
    ) -> RunReport:
        """Run a campaign under *config* (default: :class:`RunConfig`).

        Each keyword in *fields* replaces the :class:`RunConfig` field of
        that name, so ``run_cases(cases, policy="async", workers=4)`` and
        ``run_cases(cases, RunConfig(policy="async", workers=4))`` are the
        same campaign.  Results come back in the deterministic serial
        order under either policy.
        """
        campaign = _Campaign(self, cases, replace(config or RunConfig(),
                                                  **fields))
        aborted: Optional[str] = None
        try:
            results: Sequence[CaseResult] = run_waves(
                campaign.ordered,
                campaign.run_case,
                workers=campaign.workers,
                on_result=campaign.commit,
                speculation=campaign.speculation,
                on_wave=(campaign.on_wave if campaign.tracer is not None
                         else None),
            )
        except CampaignAborted as exc:
            aborted = str(exc)
            results = campaign.collected  # everything before the trip
        finally:
            aborted = campaign.close(aborted)
        return campaign.report(results, aborted)

    def run(
        self,
        test_classes: Sequence[Type[RegressionTest]],
        system: str,
        config: Optional[RunConfig] = None,
        **selection: Any,
    ) -> RunReport:
        """Expand *test_classes* on *system* and run them under *config*.

        *selection* takes the :meth:`expand_cases` keywords (``tags``,
        ``environs``, ``name_patterns``, ...); every run option rides in
        *config*.
        """
        return self.run_cases(
            self.expand_cases(test_classes, system, **selection), config
        )


def _case_span_attrs(result: CaseResult) -> Dict[str, Any]:
    """Campaign-track span attrs for one finished case.

    Shared between the trace record and the live sink, so the live plane
    and a later ``--replay`` of the trace attribute cases identically.
    """
    attrs: Dict[str, Any] = dict(
        status=(
            "passed" if result.passed else
            ("skipped" if result.skipped else "failed")
        ),
        attempts=result.attempts,
        resumed=result.resumed,
        speculated=result.speculated,
    )
    if result.replayed:
        # cache annotation -- the ONLY campaign-track difference between
        # a warm and a cold trace (strip_replay_attrs removes it)
        attrs["replayed"] = True
    return attrs


class _Campaign:
    """One :meth:`Executor.run_cases` call: its run state and writers.

    :meth:`run_case` is the worker side (resume replay, quarantine,
    result-store hit, or the pipeline); :meth:`commit` is the consumer
    side that :func:`~repro.runner.parallel.run_waves` streams every
    result into, in the deterministic serial order; :meth:`close` and
    :meth:`report` are the epilogue.
    """

    def __init__(self, executor: Executor, cases: Sequence[TestCase],
                 config: RunConfig):
        self.executor = executor
        self.config = config
        self.perflog = perflog = executor.perflog
        self.ordered = order_by_dependencies(cases)
        self.workers = config.workers if config.policy == "async" else 1
        self.faults = faults = config.faults
        self.retry = config.retry or RetryPolicy()
        self.clock = faults.clock if faults is not None else FaultClock()
        self.breaker = CircuitBreaker(config.max_failures)
        self.quarantine = Quarantine(config.quarantine_threshold)
        self.journal = journal = as_journal(config.journal)
        self.watchdog = as_watchdog(config.watchdog)
        self.health = health = (
            HealthTracker(drain_after=config.drain_after)
            if config.drain_after is not None else None
        )
        self.speculation = config._speculation()
        self.store = store = as_result_store(config.result_store)
        self.store_keys: Dict[int, str] = {}
        self.run_id = ""
        if store is not None:
            config_key = config.fingerprint()
            # composite keys are computed up front (cheap: sha256 over
            # sorted-key JSON, source hashes memoized per class) so the
            # campaign's run id -- the ``cached_from`` provenance marker
            # -- is itself deterministic content: the hash of every
            # case's content address, independent of policy and order
            for case in self.ordered:
                self.store_keys[id(case)] = store.key_for(case, config_key)
            self.run_id = hashlib.sha256(
                "\x1f".join(sorted(self.store_keys.values())).encode("utf-8")
            ).hexdigest()[:12]
        self.tracer = tracer = as_tracer(config.trace)
        self.registry: Optional[MetricsRegistry] = None
        if isinstance(config.metrics, MetricsRegistry):
            self.registry = config.metrics
        elif config.metrics or tracer is not None:
            self.registry = MetricsRegistry()
        # the campaign track lays accepted cases end-to-end in the
        # deterministic consumption order; flushed once, at the end
        self.campaign_rec = (
            tracer.recorder("campaign") if tracer is not None else None
        )
        self.cursor = 0.0
        self.live = as_live_sink(config.live)
        if self.live is not None:
            # the live plane listens on the writer hooks (add_sink is
            # idempotent: fleet slices reuse one executor + sink pair)
            if tracer is not None:
                tracer.add_sink(self.live)
            if perflog is not None:
                perflog.add_sink(self.live)
        self.completed: Dict[str, Dict[str, Any]] = {}
        if journal is not None and config.resume:
            self.completed = journal.load()
            self.quarantine.seed(journal.failure_counts())
            if health is not None:
                snapshot = journal.health_snapshot()
                if snapshot is not None:
                    health.restore(snapshot)
        if perflog is not None and faults is not None:
            perflog.faults = faults
        self.durpolicy = DurabilityPolicy(config.durability)
        if faults is not None and faults.has_io_faults:
            from repro.iofaults import FaultyIO

            shim = FaultyIO(faults)
            for writer, args in ((journal, ("journal",)), (perflog, ()),
                                 (tracer, ("trace",)), (store, ())):
                if writer is not None:
                    writer.attach_io(shim, *args)
        #: perflog flush attempts before giving up: storage faults are
        #: drawn per operation, so degrade mode retries hard enough that
        #: a heavy storm still converges (0.34^16 ~ 3e-8), while strict
        #: keeps the historical 3 tries and then fail-stops
        self.flush_tries = 3 if self.durpolicy.strict else 16
        self.collected: List[CaseResult] = []
        #: journal group-commit buffer: records are formatted per case in
        #: consumption order, appended every ``journal_batch`` cases
        self.jbuffer: List[Dict[str, Any]] = []

    # -- worker side -------------------------------------------------------
    def run_case(self, case: TestCase) -> CaseResult:
        """Resume replay, quarantine, store hit -- or run the pipeline."""
        fingerprint = case_fingerprint(case)
        record = self.completed.get(fingerprint)
        if record is not None and record.get("status") in COMPLETED_STATUSES:
            # crash-safe resume: replay, don't re-run
            return self._marked(result_from_record(case, record), "resumed")
        if self.quarantine.is_quarantined(fingerprint):
            result = CaseResult(case=case)
            result.failing_stage = "setup"
            result.failure_reason = (
                f"quarantined: {self.quarantine.failures(fingerprint)} "
                f"recorded failure(s) >= threshold "
                f"{self.quarantine.threshold}"
            )
            result.quarantined = True
            return self._marked(result, "quarantined")
        tracer = self.tracer
        store = self.store
        if store is not None:
            entry = store.lookup(
                self.store_keys[id(case)],
                fingerprint=fingerprint,
                need_perflog=self.perflog is not None,
                need_spans=tracer is not None,
            )
            if entry is not None:
                result = replay_result(case, entry)
                if tracer is not None:
                    # the stored encoded lines flush through the tracer
                    # like a fresh case's spans -- same bytes, same
                    # global-id sequence as the cold run -- blitted
                    # verbatim (or id-shifted by a constant after an
                    # upstream edit)
                    result._trace = ReplayedSpans(
                        case.display_name, entry.get("trace") or {}
                    )
                return result
        return run_case(
            case,
            installer=self.executor.installer,
            concretizer_cache=self.executor.concretizer_cache,
            retry=self.retry,
            faults=self.faults,
            clock=self.clock,
            watchdog=self.watchdog,
            health=self.health,
            # a fresh recorder per invocation: a speculative duplicate
            # gets its own, and only the accepted attempt's is flushed
            trace=(tracer.recorder(case.display_name)
                   if tracer is not None else None),
        )

    def _marked(self, result: CaseResult, event: str) -> CaseResult:
        """A short-circuited result, traced as one *event* on its track."""
        if self.tracer is not None:
            recorder = self.tracer.recorder(result.case.display_name)
            recorder.event(event, 0.0, "case")
            result._trace = recorder
        return result

    # -- consumer side: the per-case commit sequence (DESIGN.md 6.3) -------
    def commit(self, result: CaseResult) -> None:
        """Write one finished case's artifacts, in the crash-safe order.

        Fires per case in the deterministic serial order, as soon as the
        result is available, so the journal is crash-consistent at every
        case boundary and the breaker trips at the same case under every
        policy.  Each numbered step is one call; DESIGN.md section 6.3
        gives the invariant each keeps.
        """
        self.collected.append(result)
        failed = not result.passed and not result.skipped
        fingerprint = case_fingerprint(result.case)
        failures: Optional[int] = None
        if failed and not result.resumed:
            failures = self.quarantine.record_failure(fingerprint)  # 1.
        if not result.resumed:
            self._persist(result, fingerprint, failures)  # 2.
        if self.registry is not None and not result.skipped:
            self._observe(result)  # 3.
        if self.tracer is not None:
            self._track(result)  # 4.
        elif self.live is not None:
            self._track_untraced(result)  # 4., untraced
        if (self.store is not None and not result.resumed
                and not result.replayed and not result.quarantined):
            self._store(result)  # 5.
        if result.replayed:
            self._free_replay(result)  # 6.
        if failed:
            self._feed_breaker()  # 7.

    def _persist(self, result: CaseResult, fingerprint: str,
                 failures: Optional[int]) -> None:
        """Step 2: buffer the case's perflog rows, then its journal record.

        A journal batch is appended only after a perflog flush covering
        its cases' rows, so a journal entry always implies on-disk rows
        and ``--resume`` never loses (or duplicates) them.
        """
        perflog = self.perflog
        if perflog is not None:
            try:
                if result.replayed:
                    stored = (result._replay or {}).get("perflog")
                    if stored:
                        # the cold run's verbatim bytes, not a re-format
                        perflog.emit_replay(stored["relpath"],
                                            stored["lines"])
                else:
                    perflog.emit(result)  # may auto-flush early: safe
            except Exception:
                pass  # rows stay buffered; the next flush retries
        journal = self.journal
        if journal is None:
            return
        if result.replayed:
            # meta record: --resume must not double-count replays
            self.jbuffer.append(journal.make_replay_record(
                result, (result._replay or {}).get("key", ""),
                cached_from=result.cached_from, fingerprint=fingerprint,
            ))
        else:
            self.jbuffer.append(journal.make_record(
                result, fingerprint=fingerprint, failures=failures))
        if len(self.jbuffer) >= self.config.journal_batch:
            self._flush_journal()
        if self.health is not None and self.health.dirty:
            # snapshot *after* the case record: a resumed campaign
            # restores at least the health state this case produced
            self._flush_journal()
            self._journal_write(journal.record_health,
                                self.health.snapshot())

    def _observe(self, result: CaseResult) -> None:
        """Step 3: histograms, fed in the deterministic result order
        (so the snapshot is identical across execution policies)."""
        registry = self.registry
        registry.histogram("build.seconds").observe(result.build_seconds)
        registry.histogram("sched.queue_seconds").observe(
            result.queue_seconds
        )
        registry.histogram("sched.job_seconds").observe(result.job_seconds)
        registry.histogram("case.seconds").observe(
            result.build_seconds + result.queue_seconds
            + result.job_seconds + sum(result.backoff_schedule)
        )

    def _track(self, result: CaseResult) -> None:
        """Step 4: extend the campaign track, feed the live sink and
        flush the case's spans -- in result order, which is what makes
        the trace byte-identical across policies."""
        recorder = getattr(result, "_trace", None)
        name = result.case.display_name
        t0 = self.cursor
        self.cursor = t1 = t0 + (
            recorder.end_time if recorder is not None else 0.0)
        attrs = _case_span_attrs(result)
        self.campaign_rec.record(name, t0, t1, "case", **attrs)
        if self.live is not None:
            # the exact campaign-track record: live state reconciles
            # byte-for-byte with a later replay of the trace (sched
            # spans arrive separately through the note_flush hook)
            self.live.observe_case(name, t0, t1, attrs)
        tracer = self.tracer
        if recorder is not None and not self._absorbed(
                "trace", tracer.path, tracer.flush, recorder):
            # degrade: finish untraced rather than die -- the half-written
            # trace file is left for repro-fsck
            tracer.disable_disk()
        if self.perflog is not None and not result.resumed:
            self.campaign_rec.event("perflog-flush", t1, "io", case=name)

    def _track_untraced(self, result: CaseResult) -> None:
        """Step 4 untraced: feed the live plane alone.

        The case extent is rebuilt from the simulated durations, and it
        is NOT what a traced run's campaign track records: the trace's
        ``queue-wait`` span also holds the scheduler's dispatch latency,
        which ``queue_seconds`` leaves out, and a resumed case spans 0 s
        on the track but its full duration here.  Queue/job seconds go
        straight to the histograms: no sched spans arrive via note_flush.
        """
        extent = 0.0 if result.skipped else (
            result.build_seconds + result.queue_seconds
            + result.job_seconds + sum(result.backoff_schedule)
        )
        t0 = self.cursor
        self.cursor = t0 + extent
        self.live.observe_case(
            result.case.display_name, t0, t0 + extent,
            _case_span_attrs(result),
            durations=None if result.skipped else {
                "queue": result.queue_seconds, "job": result.job_seconds,
            },
        )

    def _store(self, result: CaseResult) -> None:
        """Step 5: put one freshly executed result into the store.

        Quarantine short-circuits are ledger state, not executed
        outcomes, and are never stored.  Runs after the case's spans
        flush, so the tracer's ``last_flush_bundle`` holds this case's
        encoded lines and first global id -- what the warm blit replays.
        """
        perflog_doc = None
        if self.perflog is not None and self.perflog.last_emit:
            path, lines = self.perflog.last_emit
            perflog_doc = {"relpath": self.perflog.relpath_for(path),
                           "lines": lines}
        trace_doc = None
        recorder = getattr(result, "_trace", None)
        bundle = (self.tracer.last_flush_bundle
                  if self.tracer is not None else None)
        if recorder is not None and bundle is not None:
            trace_doc = dict(bundle)
            trace_doc["end_time"] = recorder.end_time
        key = self.store_keys[id(result.case)]
        # the record is the shape a journal case record carries, so
        # replay_result reuses result_from_record verbatim
        record = make_case_record(
            result, fingerprint=case_fingerprint(result.case))
        entry = make_entry(result, key, self.run_id, record,
                           perflog=perflog_doc, trace=trace_doc)
        if not self._absorbed("store", str(self.store.root),
                              self.store.put, key, entry):
            # the store is an accelerator, not the record of truth: in
            # degrade mode every later case simply misses (and skips its
            # put), which only costs time
            self.store = None

    @staticmethod
    def _free_replay(result: CaseResult) -> None:
        """Step 6: drop a committed replay's decoded entry and spans.

        Its rows are emitted, its journal record made and its spans
        flushed, so a finished replay leaves no tree for the GC to walk.
        """
        result._replay = None
        result._trace = None

    def _feed_breaker(self) -> None:
        """Step 7, last: a trip aborts after this case's steps 1-6."""
        self.breaker.record_failure()
        if self.breaker.tripped:
            raise CampaignAborted(self.breaker.describe())

    def on_wave(self, index: int, size: int) -> None:
        self.campaign_rec.event("wave", self.cursor, "wave",
                                index=index, cases=size)

    # -- the writers -------------------------------------------------------
    def _absorbed(self, artifact: str, path: str,
                  write: Callable[..., Any], *args: Any) -> bool:
        """Write an optional artifact; False if degrade absorbed a failure.

        Strict mode turns the failure into a :class:`DurabilityError`;
        degrade counts it and leaves the caller to drop the artifact.
        """
        try:
            write(*args)
            return True
        except CampaignAborted:
            raise
        except Exception as exc:
            self.durpolicy.absorb(artifact, path, exc)
            return False

    def _flush_perflog(self) -> None:
        """Flush buffered rows, retrying failed files.

        The batched writer keeps exactly the unwritten files buffered,
        so each retry re-attempts just the remainder (storage faults
        draw fresh per operation).  Exhaustion is a
        :class:`DurabilityError`: perflogs are the primary data --
        there is nothing to degrade *to* -- so both policies fail-stop,
        degrade just tries much harder first.
        """
        if self.perflog is None:
            return
        last: Optional[Exception] = None
        for _ in range(self.flush_tries):
            try:
                self.perflog.flush()
                return
            except CampaignAborted:
                raise
            except Exception as exc:
                last = exc
        raise DurabilityError("perflog", self.perflog.prefix, last)

    def _journal_write(self, fn: Callable[..., Any], *args: Any) -> Any:
        """A journal write; storage failure always fail-stops.

        A campaign whose journal cannot be written must not keep
        running: resume state would silently diverge from reality.
        """
        try:
            return fn(*args)
        except OSError as exc:
            raise DurabilityError("journal", self.journal.path, exc) from exc

    def _flush_journal(self) -> None:
        if not self.jbuffer:
            return
        # the perflog-before-journal invariant: every record about to be
        # appended has its rows durably flushed; past the retry budget,
        # fail loudly rather than journal a lie
        self._flush_perflog()
        self._journal_write(self.journal.record_many, self.jbuffer)
        self.jbuffer.clear()

    # -- epilogue ----------------------------------------------------------
    def close(self, aborted: Optional[str]) -> Optional[str]:
        """Commit the buffered tail; returns the abort message, if any.

        Runs however the campaign ended, so a durability failure here
        becomes the abort diagnostic and the report still says what
        DID finish.
        """
        journal = self.journal
        try:
            if journal is not None:
                self._flush_journal()  # group-commit the batched tail first
            self._flush_perflog()
            # journal any health mutations the final cases produced
            if (journal is not None and self.health is not None
                    and self.health.dirty):
                self._journal_write(journal.record_health,
                                    self.health.snapshot())
        except CampaignAborted as exc:
            if aborted is None:
                aborted = str(exc)
        if self.store is not None:
            try:
                self.store.flush()  # compact when superseded lines dominate
            except CampaignAborted:
                raise
            except Exception as exc:
                # a strict-mode store failure is the abort message, not
                # an exception: the run's results are already committed
                try:
                    self.durpolicy.absorb("store", str(self.store.root), exc)
                except CampaignAborted as exc2:
                    if aborted is None:
                        aborted = str(exc2)
        return aborted

    def report(self, results: Sequence[CaseResult],
               aborted: Optional[str]) -> RunReport:
        """Build the :class:`RunReport`; flush the track and the live plane."""
        health, tracer, live = self.health, self.tracer, self.live
        report = RunReport(
            results=list(results),
            aborted=aborted,
            drained_nodes=health.drained if health is not None else [],
            watchdog=(self.watchdog.as_dict()
                      if self.watchdog is not None else None),
            health=health.as_dict() if health is not None else None,
            trace_path=tracer.path if tracer is not None else None,
        )
        if self.store is not None:
            report.result_cache = self.store.stats.as_dict()
        if self.durpolicy.total_degraded:
            report.degraded = self.durpolicy.snapshot()
        if self.registry is not None:
            # campaign counters are derived from the final report, so the
            # snapshot's totals equal the journal-derived counts by
            # construction (the trace smoke test locks this in)
            self._publish_metrics(report)
            report.metrics = self.registry.snapshot()
        if tracer is not None and not self._absorbed(
                "trace", tracer.path, self._flush_track, report.metrics):
            tracer.disable_disk()
            report.degraded = self.durpolicy.snapshot()
        if live is not None:
            # fold the end-of-run counters (store hit rates, degraded
            # streams) and emit the final status record; per fleet
            # slice these fold additively, like merge_snapshot
            live.finalize(report.metrics, now=self.cursor)
            report.live_status_path = live.status_path
        if self.journal is not None and report.success:
            # a finished campaign's journal only needs its latest state
            self.journal.compact()
        return report

    def _flush_track(self, metrics: Optional[Dict[str, Any]]) -> None:
        self.tracer.flush(self.campaign_rec)
        if metrics is not None:
            self.tracer.write_metrics(metrics)

    def _publish_metrics(self, report: RunReport) -> None:
        """Fold the campaign's outcome counters into the registry.

        The counter values mirror :meth:`RunReport.summary` exactly --
        every number a human reads in the ``[ PASSED ]`` epilogue has a
        machine-readable ``cases.*`` / ``retry.*`` twin in the snapshot.
        """
        registry = self.registry
        registry.counter("cases.total").add(report.num_cases)
        registry.counter("cases.passed").add(len(report.passed))
        registry.counter("cases.failed").add(len(report.failed))
        registry.counter("cases.skipped").add(len(report.skipped))
        registry.counter("cases.resumed").add(len(report.resumed))
        registry.counter("cases.retried").add(len(report.retried))
        registry.counter("cases.quarantined").add(len(report.quarantined))
        registry.counter("retry.attempts_extra").add(
            sum(r.attempts - 1 for r in report.retried)
        )
        registry.counter("faults.injected").add(report.faults_injected)
        registry.counter("watchdog.hung_attempts").add(report.hung_attempts)
        if report.watchdog is not None:
            registry.counter("watchdog.heartbeats").add(
                int(report.watchdog.get("heartbeats_observed", 0))
            )
        registry.counter("spec.speculated").add(len(report.speculated))
        registry.counter("spec.wins").add(len(report.speculation_wins))
        registry.counter("health.drained_nodes").add(
            len(report.drained_nodes)
        )
        registry.gauge("campaign.aborted").set(
            1.0 if report.aborted else 0.0
        )
        # subsystem caches publish their own namespaces
        self.executor.concretizer_cache.stats.publish(registry, "concretize")
        if self.store is not None:
            # only when a result store is armed: cold campaigns keep the
            # exact metrics namespace (and trace trailer bytes) they had
            # before incremental mode existed
            registry.counter("cases.replayed").add(len(report.replayed))
            self.store.stats.publish(registry, "resultstore")
        if report.degraded:
            # only when a storage failure was actually absorbed: quiet
            # campaigns keep a byte-identical metrics namespace
            for artifact, count in sorted(report.degraded.items()):
                registry.counter(f"io.degraded.{artifact}").add(count)
