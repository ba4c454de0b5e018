"""Deterministic fault injection: the chaos layer of the resilience stack.

The paper's Principles 4-6 promise *unattended*, repeatable campaigns, so
the framework must be testable against exactly the failures that real
facilities produce: transient build breakage, scheduler submit errors,
job timeouts and node failures, misbehaving test hooks, and perflog
write errors.  This module provides a **seedable, deterministic** fault
harness -- the same seed always yields the same fault schedule, regardless
of execution policy or worker count -- so that resilience tests (and
``repro-bench --inject-faults SPEC --fault-seed N``) are themselves
reproducible experiments.

Fault-spec grammar (``--inject-faults``)::

    SPEC    := CLAUSE (',' CLAUSE)*
    CLAUSE  := KIND ':' RATE ['x' COUNT]     probabilistic over cases
             | KIND ':' RATE '@' GLOB        probabilistic, target-filtered
             | KIND '@' GLOB ['#' COUNT]     explicit case coordinates
    KIND    := build | submit | timeout | hook | perflog
             | hang | slow | sicknode
             | enospc | eio | torn | bitrot | fsync-lie
             | lease-expire | supervisor-crash
    RATE    := float in [0, 1]   fraction of (kind, case) coordinates hit
    COUNT   := positive int | '*'   attempts that fault (default 1;
                                    '*' = every attempt, i.e. *permanent*)

Examples::

    build:0.3                 30% of cases fail their first build attempt
    submit:0.2x2              20% of cases fail the first two submits
    hook@HPCG_*               every HPCG variant's first hook call raises
    perflog@*#*               every perflog write fails, forever
    hang:0.2                  20% of cases hang their first job (watchdog food)
    slow@HPCG_*               every HPCG variant's first job straggles
    sicknode@nid0002#*        node nid0002 is permanently degraded
    enospc:0.01               1% of storage operations hit a full disk
    torn:0.05@journal         5% of journal appends tear mid-batch
    lease-expire:0.3          30% of fleet campaigns lose their lease once
    supervisor-crash:0.2      20% of campaigns take the supervisor down

The two *fleet* kinds (``lease-expire``/``supervisor-crash``) target the
:mod:`repro.fleet` supervisor rather than a pipeline stage: the target
is a *campaign id*, and the supervisor consults the plan once per
executed campaign slice.  A firing ``lease-expire`` makes the supervisor
lose its lease on that campaign mid-run (the queue reclaims it after the
TTL and the next claimant resumes from the campaign journal); a firing
``supervisor-crash`` kills the whole supervisor process loop after the
slice, leaving leases dangling for a restarted supervisor to reclaim.

The five *I/O* kinds (``enospc``/``eio``/``torn``/``bitrot``/
``fsync-lie``) target durable-artifact operations instead of cases: the
target is an artifact label (``journal``, ``perflog``, ``trace``,
``store``, ``pack``, ``index``) and selection is drawn *per
operation* via :meth:`FaultPlan.check_io`, not once per target -- a
storage device does not remember which files it has already eaten.  They
are routed through :class:`repro.iofaults.FaultyIO` rather than raised at
pipeline stages.

The *slow-fault* kinds (DESIGN.md section 6.4) differ from the fail-fast
ones in how they manifest: ``hang`` makes the job stop progressing (the
payload's simulated duration becomes effectively unbounded -- without a
watchdog it devolves into the job's walltime TIMEOUT; with one it is
cancelled as HUNG at the deadline), ``slow`` multiplies the job's
duration by :data:`SLOW_FACTOR` (straggler food for speculative
execution), and ``sicknode`` targets a *node name* rather than a case:
every job allocated onto a selected node is degraded by
:data:`SICK_FACTOR` until node-health tracking drains it.

Selection is a pure function of ``(seed, kind, case)`` -- a SHA-256 hash
mapped to [0, 1) and compared against the rate -- so whether a coordinate
faults never depends on thread interleaving or on how many other cases
ran first.  The *attempt* at which a site is visited is tracked by a
:class:`FaultClock`, a thread-safe attempt ledger doubling as the virtual
clock that retry backoff sleeps against (no real time passes).
"""

from __future__ import annotations

import fnmatch
import hashlib
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "FAULT_KINDS",
    "FLEET_FAULT_KINDS",
    "IO_FAULT_KINDS",
    "SLOW_FACTOR",
    "SICK_FACTOR",
    "HANG_FACTOR",
    "Fault",
    "FaultClock",
    "FaultPlan",
    "FaultSpecError",
    "InjectedFault",
    "JobEffects",
    "parse_fault_spec",
    "unit_hash",
]

#: the injectable failure categories, one per resilience-relevant layer.
#: ``hang``/``slow``/``sicknode`` are the *slow-fault* kinds: they do not
#: raise at an injection site but degrade a job's simulated execution
#: (see :meth:`SchedulerFaultInjector.job_effects`)
#: the storage-fault kinds: consulted per *operation* (not per target)
#: through :meth:`FaultPlan.check_io` and acted out by
#: :class:`repro.iofaults.FaultyIO` on the raw os.write/fsync/rename
#: paths of every durable artifact
IO_FAULT_KINDS = ("enospc", "eio", "torn", "bitrot", "fsync-lie")

#: the fleet-supervisor kinds: consulted by
#: :class:`repro.fleet.supervisor.FleetSupervisor` with a *campaign id*
#: target -- ``lease-expire`` forfeits one campaign's lease mid-run,
#: ``supervisor-crash`` kills the supervisor loop itself
FLEET_FAULT_KINDS = ("lease-expire", "supervisor-crash")

FAULT_KINDS = (
    "build", "submit", "timeout", "hook", "perflog",
    "hang", "slow", "sicknode",
) + IO_FAULT_KINDS + FLEET_FAULT_KINDS

#: duration multiplier for a job hit by a ``slow`` fault (a straggler:
#: well past any sane --straggler-factor, well short of a hang)
SLOW_FACTOR = 8.0

#: duration multiplier for a job placed on a ``sicknode`` (degraded, not
#: dead: the node completes work, slowly, poisoning whatever lands on it)
SICK_FACTOR = 6.0

#: duration multiplier for a ``hang`` fault: makes the job overshoot any
#: watchdog deadline *and* its own walltime, so an undetected hang still
#: terminates (as TIMEOUT) instead of wedging the simulation
HANG_FACTOR = 1e6


class FaultSpecError(ValueError):
    """A malformed ``--inject-faults`` specification."""


def unit_hash(seed: int, *parts: str) -> float:
    """A deterministic uniform draw in [0, 1) from (seed, parts).

    Shared by fault selection and retry-backoff jitter: both must be
    order- and thread-independent, which a stateful RNG cannot give.
    """
    payload = "\x1f".join([str(seed), *parts]).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


@dataclass(frozen=True)
class Fault:
    """One injected failure at a (kind, target, attempt) coordinate."""

    kind: str
    target: str
    attempt: int
    transient: bool = True

    def describe(self) -> str:
        perm = "" if self.transient else ":permanent"
        return f"injected:{self.kind}@{self.target}#{self.attempt}{perm}"


class InjectedFault(Exception):
    """The exception a firing fault raises at its injection site.

    ``transient`` faults clear after their configured attempt count --
    the retry layer classifies them as worth retrying; permanent ones
    (``COUNT='*'``) never clear and are classified like any other hard
    failure.
    """

    def __init__(self, fault: Fault):
        super().__init__(fault.describe())
        self.fault = fault

    @property
    def transient(self) -> bool:
        return self.fault.transient


class FaultClock:
    """Thread-safe attempt ledger + virtual backoff clock.

    Two jobs, both deterministic:

    * :meth:`next_attempt` counts how many times each ``(kind, target)``
      injection site has been visited -- what lets a transient fault fire
      on the first N visits and then clear;
    * :meth:`sleep` advances a *virtual* clock by the retry layer's
      backoff delays, so exponential backoff is fully recorded (and
      testable) without a campaign ever sleeping wall-clock time.
    """

    def __init__(self, start: float = 0.0):
        self._lock = threading.Lock()
        self._start = float(start)
        self._now = float(start)
        self._attempts: Dict[Tuple[str, ...], int] = {}

    @property
    def now(self) -> float:
        with self._lock:
            return self._now

    @property
    def slept_seconds(self) -> float:
        with self._lock:
            return self._now - self._start

    def sleep(self, seconds: float) -> float:
        """Advance virtual time; returns the new ``now``."""
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        with self._lock:
            self._now += seconds
            return self._now

    def next_attempt(self, key: Tuple[str, ...]) -> int:
        """Increment and return the 1-based visit count for *key*."""
        with self._lock:
            count = self._attempts.get(key, 0) + 1
            self._attempts[key] = count
            return count

    def attempts(self, key: Tuple[str, ...]) -> int:
        with self._lock:
            return self._attempts.get(key, 0)

    def reset(self) -> None:
        with self._lock:
            self._now = self._start
            self._attempts.clear()


@dataclass(frozen=True)
class FaultClause:
    """One parsed clause of a fault spec."""

    kind: str
    #: probabilistic selection rate (None = glob-only explicit selection)
    rate: Optional[float] = None
    #: fnmatch pattern over the target id; with a rate it *filters* which
    #: targets are eligible for the probabilistic draw
    glob: Optional[str] = None
    #: attempts on which the fault fires (None = every attempt, permanent)
    count: Optional[int] = 1

    def selects(self, seed: int, target: str) -> bool:
        if self.glob is not None and not fnmatch.fnmatch(target, self.glob):
            return False
        if self.rate is None:
            return self.glob is not None
        return unit_hash(seed, self.kind, target) < self.rate

    def fires_on(self, attempt: int) -> bool:
        return self.count is None or attempt <= self.count

    @property
    def transient(self) -> bool:
        return self.count is not None

    def format(self) -> str:
        if self.rate is None:
            count = "*" if self.count is None else str(self.count)
            return f"{self.kind}@{self.glob}#{count}"
        suffix = "" if self.count == 1 else (
            "x*" if self.count is None else f"x{self.count}"
        )
        tail = "" if self.glob is None else f"@{self.glob}"
        return f"{self.kind}:{self.rate:g}{suffix}{tail}"


def _parse_count(text: str, clause: str) -> Optional[int]:
    if text == "*":
        return None
    try:
        count = int(text)
    except ValueError:
        raise FaultSpecError(
            f"bad attempt count {text!r} in clause {clause!r}"
        ) from None
    if count < 1:
        raise FaultSpecError(f"attempt count must be >= 1 in {clause!r}")
    return count


def parse_fault_spec(spec: str) -> List[FaultClause]:
    """Parse a ``--inject-faults`` string into clauses (grammar above)."""
    clauses: List[FaultClause] = []
    for raw in spec.split(","):
        text = raw.strip()
        if not text:
            continue
        if ":" in text and ("@" not in text or text.index(":") < text.index("@")):
            kind, _, rest = text.partition(":")
            rest, _, glob = rest.partition("@")
            rate_text, _, count_text = rest.partition("x")
            try:
                rate = float(rate_text)
            except ValueError:
                raise FaultSpecError(
                    f"bad rate {rate_text!r} in clause {text!r}"
                ) from None
            if not 0.0 <= rate <= 1.0:
                raise FaultSpecError(f"rate must be in [0, 1] in {text!r}")
            count = _parse_count(count_text, text) if count_text else 1
            clause = FaultClause(kind=kind.strip(), rate=rate,
                                 glob=glob or None, count=count)
        elif "@" in text:
            kind, _, rest = text.partition("@")
            glob, _, count_text = rest.partition("#")
            if not glob:
                raise FaultSpecError(f"empty case pattern in {text!r}")
            count = _parse_count(count_text, text) if count_text else 1
            clause = FaultClause(kind=kind.strip(), glob=glob, count=count)
        else:
            raise FaultSpecError(
                f"clause {text!r} is neither KIND:RATE nor KIND@GLOB"
            )
        if clause.kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {clause.kind!r}; known: "
                f"{', '.join(FAULT_KINDS)}"
            )
        clauses.append(clause)
    if not clauses:
        raise FaultSpecError(f"empty fault spec {spec!r}")
    return clauses


class FaultPlan:
    """A seeded schedule of injectable faults for one campaign.

    The plan is consulted at each injection site with
    :meth:`check`/:meth:`fire`; every consultation advances the site's
    attempt counter on the shared :class:`FaultClock`, and every fault
    that actually fires is appended to :attr:`log` (campaign provenance:
    the full fault history ends up in the run summary and the journal).
    """

    def __init__(
        self,
        clauses: Sequence[FaultClause] = (),
        seed: int = 0,
        clock: Optional[FaultClock] = None,
    ):
        self.clauses = list(clauses)
        self.seed = int(seed)
        self.clock = clock or FaultClock()
        self.log: List[Fault] = []
        self._lock = threading.Lock()

    # -- construction --------------------------------------------------------
    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        return cls(parse_fault_spec(spec), seed=seed)

    @classmethod
    def at(
        cls,
        kind: str,
        glob: str = "*",
        attempts: Optional[int] = 1,
        seed: int = 0,
    ) -> "FaultPlan":
        """An explicit single-clause plan (the test-suite convenience)."""
        if kind not in FAULT_KINDS:
            raise FaultSpecError(f"unknown fault kind {kind!r}")
        return cls([FaultClause(kind=kind, glob=glob, count=attempts)],
                   seed=seed)

    # -- consultation --------------------------------------------------------
    def check(self, kind: str, target: str) -> Optional[Fault]:
        """Visit the (kind, target) site; return the firing fault, if any."""
        attempt = self.clock.next_attempt((kind, target))
        for clause in self.clauses:
            if clause.kind != kind:
                continue
            if clause.selects(self.seed, target) and clause.fires_on(attempt):
                fault = Fault(
                    kind=kind,
                    target=target,
                    attempt=attempt,
                    transient=clause.transient,
                )
                with self._lock:
                    self.log.append(fault)
                return fault
        return None

    def fire(self, kind: str, target: str) -> None:
        """Like :meth:`check`, but raise :class:`InjectedFault` on a hit."""
        fault = self.check(kind, target)
        if fault is not None:
            raise InjectedFault(fault)

    @property
    def has_io_faults(self) -> bool:
        """Whether any clause targets the storage plane (arms FaultyIO)."""
        return any(c.kind in IO_FAULT_KINDS for c in self.clauses)

    def check_io(self, label: str) -> Optional[Fault]:
        """Visit one storage *operation* against artifact *label*.

        Unlike :meth:`check` -- where a probabilistic clause selects a
        target once and then replays on every attempt -- storage faults
        are drawn fresh per operation: the draw is keyed by the
        operation ordinal on the ``("io", label)`` clock, so an append
        that failed and is retried faces independent (but still fully
        deterministic) odds.  Glob-only clauses fire on the first
        ``count`` operations touching a matching label.
        """
        op = self.clock.next_attempt(("io", label))
        for clause in self.clauses:
            if clause.kind not in IO_FAULT_KINDS:
                continue
            if clause.glob is not None and not fnmatch.fnmatch(label, clause.glob):
                continue
            if clause.rate is not None:
                if unit_hash(self.seed, clause.kind, label, str(op)) >= clause.rate:
                    continue
            elif not clause.fires_on(op):
                continue
            fault = Fault(kind=clause.kind, target=label, attempt=op,
                          transient=clause.rate is not None or clause.transient)
            with self._lock:
                self.log.append(fault)
            return fault
        return None

    # -- accounting ----------------------------------------------------------
    @property
    def fired(self) -> int:
        with self._lock:
            return len(self.log)

    def faults_for(self, target: str) -> List[Fault]:
        with self._lock:
            return [f for f in self.log if f.target == target]

    def format(self) -> str:
        return ",".join(c.format() for c in self.clauses)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.format()!r}, seed={self.seed})"


@dataclass
class JobEffects:
    """Slow-fault degradations applied to one starting job.

    Computed once per job start by :meth:`SchedulerFaultInjector.job_effects`
    and consumed by :meth:`repro.scheduler.base.BatchScheduler._start`:
    the job's simulated duration is multiplied by :attr:`slowdown`
    (compounding ``slow`` and ``sicknode`` hits), and :attr:`hung` marks
    a job that stopped progressing entirely.  :attr:`sick_nodes` names
    the degraded allocation members so node-health tracking can
    attribute the slowdown to the machine, not the program.
    """

    hung: bool = False
    slowdown: float = 1.0
    sick_nodes: List[str] = None  # type: ignore[assignment]
    faults: List[Fault] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.sick_nodes is None:
            self.sick_nodes = []
        if self.faults is None:
            self.faults = []

    @property
    def degraded(self) -> bool:
        return self.hung or self.slowdown > 1.0


class SchedulerFaultInjector:
    """Adapter binding a :class:`FaultPlan` to one case for the scheduler.

    The batch-scheduler layer is deliberately ignorant of fault plans; it
    accepts any object with this duck-typed interface:

    * :meth:`on_submit` -- called during ``submit()``; raising aborts the
      submission (the pipeline sees a scheduler error);
    * :meth:`on_start` -- called when a job starts; returning a
      :class:`Fault` makes the job die as a node failure with partial
      stdout;
    * :meth:`job_effects` -- called when a job starts with its node
      allocation; returns the :class:`JobEffects` degradations (hang /
      slowdown) the slow-fault kinds impose on this job.
    """

    def __init__(self, plan: FaultPlan, target: str):
        self.plan = plan
        self.target = target

    def on_submit(self, job: object) -> None:
        self.plan.fire("submit", self.target)

    def on_start(self, job: object) -> Optional[Fault]:
        return self.plan.check("timeout", self.target)

    def job_effects(self, job: object, nodes: Sequence[str]) -> JobEffects:
        """Slow-fault consultation for one starting job.

        ``hang`` and ``slow`` are keyed by the case target (application-
        or placement-level pathology); ``sicknode`` is keyed by *node
        name*, so the same degraded node poisons every case allocated
        onto it -- which is exactly the signal node-health scoring needs.
        """
        effects = JobEffects()
        hang = self.plan.check("hang", self.target)
        if hang is not None:
            effects.hung = True
            effects.slowdown = max(effects.slowdown, HANG_FACTOR)
            effects.faults.append(hang)
        slow = self.plan.check("slow", self.target)
        if slow is not None:
            effects.slowdown *= SLOW_FACTOR
            effects.faults.append(slow)
        for node in nodes:
            sick = self.plan.check("sicknode", node)
            if sick is not None:
                effects.slowdown *= SICK_FACTOR
                effects.sick_nodes.append(node)
                effects.faults.append(sick)
        return effects
