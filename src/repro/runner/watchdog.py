"""Hang detection: per-stage deadlines, heartbeats, and the kill switch.

PR 3's resilience layer handles *fail-fast* faults (crashes, rejections,
node death); this module handles the other half of what kills unattended
campaigns (DESIGN.md section 6.4): *slow* faults.  A hung build or a
wedged job produces no exception -- it simply stops making progress --
so the framework needs an active component that (a) observes progress
and (b) enforces deadlines:

* :class:`WatchdogSpec` -- parsed from ``repro-bench --watchdog SPEC``;
  per-stage wall-clock budgets on the *simulated* clock (``build`` and
  ``run``), plus the heartbeat period;
* :class:`Watchdog` -- armed by :meth:`BatchScheduler._start
  <repro.scheduler.base.BatchScheduler._start>` for every dispatched
  job.  It schedules heartbeat/progress events on the scheduler's own
  discrete-event queue (observability: every beat is recorded with the
  job's progress fraction) and one deadline event that cancels the job
  as :attr:`~repro.scheduler.job.JobState.HUNG` if it is still running
  -- freeing its allocation for the rest of the campaign.  HUNG is a
  *transient* failure, so the retry taxonomy re-attempts the case, and
  a transient ``hang`` fault clears on the retry.

Spec grammar (``--watchdog``)::

    SPEC  := SECONDS                      # run deadline only
           | PART (',' PART)*
    PART  := ('run' | 'build' | 'heartbeat') '=' SECONDS

Examples: ``--watchdog 600``, ``--watchdog run=600,build=300``,
``--watchdog run=120,heartbeat=10``.

Everything here runs on simulated time: deadlines are deterministic,
thread-independent, and a campaign with a watchdog never sleeps
wall-clock time waiting for one to fire.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.scheduler.job import JobState

__all__ = ["Watchdog", "WatchdogSpec", "WatchdogSpecError", "as_watchdog"]


class WatchdogSpecError(ValueError):
    """A malformed ``--watchdog`` specification."""


_STAGES = ("run", "build", "heartbeat")


@dataclass(frozen=True)
class WatchdogSpec:
    """Per-stage deadline budgets, in simulated seconds."""

    #: kill a job still running after this many sim-seconds (None: off)
    run: Optional[float] = None
    #: fail the build stage when its simulated duration exceeds this
    build: Optional[float] = None
    #: heartbeat/progress event period while a job runs
    heartbeat: float = 30.0

    def __post_init__(self) -> None:
        for name in ("run", "build"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise WatchdogSpecError(
                    f"watchdog {name} deadline must be > 0, got {value}"
                )
        if self.heartbeat <= 0:
            raise WatchdogSpecError(
                f"watchdog heartbeat must be > 0, got {self.heartbeat}"
            )

    @classmethod
    def parse(cls, text: str) -> "WatchdogSpec":
        """Parse a ``--watchdog`` string (grammar in the module docstring)."""
        text = text.strip()
        if not text:
            raise WatchdogSpecError("empty watchdog spec")
        values: Dict[str, float] = {}
        if "=" not in text:
            try:
                values["run"] = float(text)
            except ValueError:
                raise WatchdogSpecError(
                    f"bad watchdog spec {text!r}: expected SECONDS or "
                    f"'run=S,build=S[,heartbeat=S]'"
                ) from None
        else:
            for part in text.split(","):
                part = part.strip()
                if not part:
                    continue
                key, sep, raw = part.partition("=")
                key = key.strip()
                if not sep or key not in _STAGES:
                    raise WatchdogSpecError(
                        f"bad watchdog clause {part!r}; known stages: "
                        f"{', '.join(_STAGES)}"
                    )
                try:
                    values[key] = float(raw)
                except ValueError:
                    raise WatchdogSpecError(
                        f"bad watchdog seconds {raw!r} in {part!r}"
                    ) from None
        kwargs: Dict[str, Any] = {k: v for k, v in values.items()}
        return cls(**kwargs)

    def format(self) -> str:
        parts = []
        if self.run is not None:
            parts.append(f"run={self.run:g}")
        if self.build is not None:
            parts.append(f"build={self.build:g}")
        parts.append(f"heartbeat={self.heartbeat:g}")
        return ",".join(parts)


@dataclass
class HeartbeatEvent:
    """One observed heartbeat: provenance for hang forensics."""

    job: str
    elapsed: float
    progress: float


class Watchdog:
    """Deadline enforcement shared by every scheduler in one campaign.

    One instance is shared campaign-wide (cases may run on worker
    threads, each driving its own scheduler simulation), so counters are
    lock-protected.  Determinism: every decision depends only on the
    simulated clock of the scheduler that armed it, never on wall time
    or thread interleaving.
    """

    def __init__(self, spec: WatchdogSpec):
        self.spec = spec
        self._lock = threading.Lock()
        #: descriptions of every job killed as HUNG
        self.hung_jobs: List[str] = []
        #: build-stage budget violations (case display names)
        self.hung_builds: List[str] = []
        #: recorded heartbeat/progress events (most recent campaigns are
        #: small; tests and provenance read this)
        self.heartbeats: List[HeartbeatEvent] = []

    # -- accounting ----------------------------------------------------------
    @property
    def hung_count(self) -> int:
        with self._lock:
            return len(self.hung_jobs) + len(self.hung_builds)

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "spec": self.spec.format(),
                "hung_jobs": list(self.hung_jobs),
                "hung_builds": list(self.hung_builds),
                "heartbeats_observed": len(self.heartbeats),
            }

    # -- scheduler side ------------------------------------------------------
    def arm(self, scheduler: Any, job_id: int) -> None:
        """Watch one just-started job on *scheduler*'s event queue.

        Schedules the heartbeat chain (progress observability) and, when
        a ``run`` deadline is configured, the kill event: if the job is
        still running at ``start + deadline`` it is cancelled as HUNG
        with the partial stdout it had produced.
        """
        start = scheduler.clock.now
        job = scheduler.job(job_id)
        name = job.name
        interval = self.spec.heartbeat
        trace = getattr(scheduler, "trace", None)
        # per-job entry tokens ([beat, kill]) kept on the scheduler, so
        # disarm() can cancel the pending events in place when the job
        # finishes -- no no-op events churn the heap, and the queue
        # drains at the finish instant.  The dict lives on the scheduler
        # (per-case, single-threaded); only the counters need the lock.
        armed = getattr(scheduler, "_watchdog_armed", None)
        if armed is None:
            armed = scheduler._watchdog_armed = {}
        holder: List[Any] = [None, None]
        armed[job_id] = holder

        def beat() -> None:
            progress = scheduler.job_progress(job_id)
            if progress is None:
                return  # finished or killed: stop the chain
            elapsed = scheduler.clock.now - start
            with self._lock:
                self.heartbeats.append(
                    HeartbeatEvent(job=name, elapsed=elapsed,
                                   progress=progress)
                )
            if trace is not None:
                trace.event("heartbeat", scheduler.clock.now, "watchdog",
                            job=name, progress=round(progress, 6))
            holder[0] = scheduler.events.schedule_in(interval, beat)

        holder[0] = scheduler.events.schedule_in(interval, beat)

        deadline = self.spec.run
        if deadline is None:
            return

        def kill() -> None:
            if not scheduler.is_running(job_id):
                return  # finished in time
            progress = scheduler.job_progress(job_id)
            reason = (
                f"{scheduler.kind.upper()}: watchdog killed job {job_id} "
                f"({name}): no completion after {deadline:g}s "
                f"(progress {progress:.1%})"
            )
            cancelled = scheduler.cancel(
                job_id, state=JobState.HUNG, reason=reason
            )
            if cancelled:
                with self._lock:
                    self.hung_jobs.append(f"{name}#{job_id}")
                if trace is not None:
                    trace.event("watchdog-kill", scheduler.clock.now,
                                "watchdog", job=name,
                                deadline=float(deadline))

        holder[1] = scheduler.events.schedule_in(deadline, kill)

    def disarm(self, scheduler: Any, job_id: int) -> None:
        """Cancel the pending heartbeat/deadline events for one job.

        Called by the scheduler when the job finishes or is cancelled;
        cancelling entries that already ran (including the kill event
        that triggered a cancel) is a harmless no-op.
        """
        armed = getattr(scheduler, "_watchdog_armed", None)
        if not armed:
            return
        holder = armed.pop(job_id, None)
        if holder is None:
            return
        for entry in holder:
            if entry is not None:
                scheduler.events.cancel(entry)

    # -- pipeline side -------------------------------------------------------
    def check_build(self, target: str, build_seconds: float) -> Optional[str]:
        """Build-stage budget: returns the violation message, or None.

        Called by the pipeline after the build completes (the simulation
        has no mid-build preemption point); a violation fails the build
        stage as hung -- transient, like a job hang, because on real
        systems a wedged build node is exactly as retryable as a wedged
        compute node.
        """
        budget = self.spec.build
        if budget is None or build_seconds <= budget:
            return None
        with self._lock:
            self.hung_builds.append(target)
        return (
            f"build hung: {build_seconds:g}s exceeds the watchdog build "
            f"budget ({budget:g}s)"
        )


def as_watchdog(value: Any) -> Optional[Watchdog]:
    """Coerce CLI/API input (str | WatchdogSpec | Watchdog) to a Watchdog."""
    if value is None or isinstance(value, Watchdog):
        return value
    if isinstance(value, WatchdogSpec):
        return Watchdog(value)
    return Watchdog(WatchdogSpec.parse(str(value)))
