"""The fleet supervisor: leases, bulkheads, slices, graceful drain.

One supervisor multiplexes many campaigns over one simulated cluster:

* it **claims** campaigns from the durable queue under heartbeat
  leases on the fault clock (per-tenant node quotas and priorities
  gate what it may hold concurrently);
* it **slices** each claimed campaign -- runs the next ``slice_cases``
  cases through the embeddable :class:`CampaignService`, round-robin
  across campaigns, renewing leases at every slice boundary.  The
  cursor into a campaign is *derived from its journal* (the largest
  dependency-ordered prefix with journal records), never held only in
  memory, so any successor supervisor resumes exactly where the bytes
  say the campaign is;
* it **bulkheads** campaigns from each other -- a circuit-breaker
  trip, :class:`DurabilityError` or any ``CampaignAborted`` becomes
  *that campaign's* terminal queue record plus ``fleet.degraded.*``
  metrics, and the loop moves on;
* it **drains** gracefully -- :meth:`request_drain` (the SIGTERM path)
  or a ``drain-request`` queue record makes the supervisor finish its
  in-flight slices, release its leases, write a drain marker and
  return; a restarted supervisor reclaims and resumes with zero
  re-executed completed cases.

Crash semantics are exact, not best-effort: killing a supervisor at
*any* point leaves (a) a queue whose leases simply expire, (b)
campaign journals whose prefix property holds, and (c) perflogs that a
resumed run appends to byte-identically -- the fleet chaos test sweeps
kill points to prove it.  The ``supervisor-crash`` and ``lease-expire``
fault kinds (:mod:`repro.faults`) simulate those deaths
deterministically inside one process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.faults import FaultClock, FaultPlan
from repro.fleet.queue import CampaignQueue, CampaignState
from repro.fleet.service import (
    CampaignConfigError,
    CampaignService,
    CampaignSpec,
    PreparedCampaign,
)
from repro.fleet.timeline import ResultsTimeline, foms_from_journal
from repro.obs.live import as_live_sink
from repro.obs.metrics import MetricsRegistry
from repro.runner.resilience import (
    COMPLETED_STATUSES,
    CampaignAborted,
    CampaignJournal,
    case_fingerprint,
)

__all__ = ["FleetReport", "FleetSupervisor", "SupervisorCrash"]


class SupervisorCrash(RuntimeError):
    """The supervisor process dying mid-fleet (simulated SIGKILL).

    Raised out of :meth:`FleetSupervisor.run` when a
    ``supervisor-crash`` fault fires: everything durable (queue,
    journals, perflogs) keeps whatever was committed before the crash
    point; nothing is released or completed.  A fresh supervisor
    constructed over the same queue recovers the fleet.
    """


@dataclass
class CampaignOutcome:
    """What one campaign came to under this supervisor."""

    id: str
    status: str  # "completed" | "failed" | "aborted" | "released" | "lost"
    detail: str = ""
    passed: int = 0
    failed: int = 0
    slices: int = 0


@dataclass
class FleetReport:
    worker: str
    outcomes: Dict[str, CampaignOutcome] = field(default_factory=dict)
    drained: bool = False
    metrics: Optional[Dict[str, Any]] = None

    @property
    def completed(self) -> List[CampaignOutcome]:
        return [o for o in self.outcomes.values() if o.status == "completed"]

    @property
    def degraded(self) -> List[CampaignOutcome]:
        return [
            o for o in self.outcomes.values()
            if o.status in ("aborted", "failed")
        ]

    def summary(self) -> str:
        lines = [f"FLEET SUMMARY ({self.worker})", "-" * 60]
        for cid in sorted(self.outcomes):
            o = self.outcomes[cid]
            detail = f" -- {o.detail}" if o.detail else ""
            lines.append(
                f"  {cid}: {o.status} "
                f"({o.passed} passed, {o.failed} failed, "
                f"{o.slices} slice(s)){detail}"
            )
        lines.append(
            f"{len(self.completed)} completed, {len(self.degraded)} "
            f"degraded, drained={str(self.drained).lower()}"
        )
        return "\n".join(lines)


@dataclass
class _Running:
    """Supervisor-side runtime for one leased campaign."""

    state: CampaignState
    spec: CampaignSpec
    prepared: PreparedCampaign
    journal: CampaignJournal
    cursor: int = 0
    slices: int = 0
    zombie: bool = False  # lease-expire fired: stop renewing, let it lapse


class FleetSupervisor:
    """Runs the claim/slice/renew loop over a durable campaign queue.

    Parameters
    ----------
    queue:
        The durable campaign queue; its recorded simulated times seed
        this supervisor's clock so restarted supervisors never move
        time backwards.
    worker:
        This supervisor's identity in queue records.  A restarted
        supervisor reusing the same identity may reclaim its own
        unexpired leases immediately; a different identity waits for
        them to expire.
    slice_cases:
        Cases per campaign per scheduling round.
    slice_seconds:
        Simulated seconds one slice advances the clock -- the unit
        lease TTLs are measured against.
    lease_seconds:
        Heartbeat lease TTL; must comfortably exceed ``slice_seconds``
        or a healthy supervisor's leases expire mid-round.
    cluster_nodes / tenant_quotas:
        Concurrency gates: the node counts of concurrently held
        campaigns may not exceed the cluster total, nor a tenant's
        share exceed its quota.
    faults:
        A :class:`FaultPlan` consulted once per campaign slice for the
        fleet kinds (``supervisor-crash``, ``lease-expire``), keyed by
        campaign id.
    on_slice:
        Test/observer hook called after every slice with
        ``(campaign_id, slices_so_far)``.
    live:
        Live analytics plane: a path (sealed live-status artifact) or
        a shared :class:`~repro.obs.live.LiveStatsSink`.  The sink is
        threaded into every campaign slice and fed per-campaign fleet
        progress at each slice boundary; ``repro-fleet status`` and
        ``repro-top`` read the artifact from a second process.
    """

    def __init__(
        self,
        queue: CampaignQueue,
        worker: str = "fleet-0",
        service: Optional[CampaignService] = None,
        slice_cases: int = 4,
        slice_seconds: float = 1.0,
        lease_seconds: float = 10.0,
        max_concurrent: int = 4,
        cluster_nodes: Optional[int] = None,
        tenant_quotas: Optional[Dict[str, int]] = None,
        faults: Optional[FaultPlan] = None,
        metrics: Optional[MetricsRegistry] = None,
        timeline: Optional[ResultsTimeline] = None,
        on_slice: Optional[Callable[[str, int], None]] = None,
        live: Optional[Any] = None,
    ):
        if slice_cases < 1:
            raise ValueError("slice_cases must be >= 1")
        if lease_seconds <= slice_seconds:
            raise ValueError(
                "lease_seconds must exceed slice_seconds, or healthy "
                "leases expire between heartbeats"
            )
        self.queue = queue
        self.worker = worker
        self.service = service or CampaignService()
        self.slice_cases = slice_cases
        self.slice_seconds = float(slice_seconds)
        self.lease_seconds = float(lease_seconds)
        self.max_concurrent = max_concurrent
        self.cluster_nodes = cluster_nodes
        self.tenant_quotas = dict(tenant_quotas or {})
        self.faults = faults
        self.metrics = metrics or MetricsRegistry()
        self.timeline = timeline
        self.on_slice = on_slice
        # the live analytics plane: one shared sink across every
        # campaign this supervisor holds (a path arms a sealed
        # live-status artifact that `repro-fleet status` / `repro-top`
        # tail from a second process)
        self.live = as_live_sink(live)
        # resume the simulated clock from the queue: leases this
        # supervisor grants must postdate every recorded one
        self.clock = (
            faults.clock if faults is not None
            else FaultClock(start=queue.max_time())
        )
        if self.clock.now < queue.max_time():
            self.clock.sleep(queue.max_time() - self.clock.now)
        self._drain_requested = False

    # -- external control -----------------------------------------------------
    def request_drain(self) -> None:
        """In-process drain request (the SIGTERM handler calls this)."""
        self._drain_requested = True

    # -- the supervision loop -------------------------------------------------
    def run(self) -> FleetReport:
        """Supervise until the queue is terminal, drained, or crashed."""
        report = FleetReport(worker=self.worker)
        started_at = self.clock.now
        running: Dict[str, _Running] = {}
        while True:
            if self._drain_due(started_at):
                self._drain(running, report)
                break
            self._fill_slots(running, report)
            if not running:
                if self._wait_for_leases():
                    continue
                break  # nothing claimable, nothing leased: fleet done
            # one slice per running campaign, priority-then-seq order --
            # the same deterministic order claims are granted in
            for cid in sorted(
                running,
                key=lambda c: (-running[c].state.priority,
                               running[c].state.seq),
            ):
                self._run_slice(cid, running, report)
                if self._drain_requested:
                    break  # honour SIGTERM at the next slice boundary
        report.metrics = self.metrics.snapshot()
        return report

    # -- claiming -------------------------------------------------------------
    def _fill_slots(
        self, running: Dict[str, _Running], report: FleetReport
    ) -> None:
        while len(running) < self.max_concurrent:
            state = self.queue.claim(
                self.worker,
                self.clock.now,
                self.lease_seconds,
                accept=self._admission(running),
            )
            if state is None:
                return
            self.metrics.counter("fleet.campaigns.claimed").add()
            try:
                spec = CampaignSpec.from_doc(state.spec)
                if not spec.journal:
                    # fleet campaigns are always journaled -- the journal
                    # IS the resume cursor -- so an unjournaled spec gets
                    # a deterministic per-campaign path beside the queue
                    spec.journal = f"{self.queue.path}.journals/{state.id}.jsonl"
                    os.makedirs(os.path.dirname(spec.journal), exist_ok=True)
                prepared = self.service.prepare(spec)
            except CampaignConfigError as exc:
                # an unpreparable campaign is its own failure, not ours
                self.metrics.counter("fleet.degraded.config").add()
                self.queue.complete(
                    state.id, self.worker, "failed", self.clock.now,
                    detail=str(exc),
                )
                report.outcomes[state.id] = CampaignOutcome(
                    id=state.id, status="failed", detail=str(exc)
                )
                continue
            journal = CampaignJournal(spec.journal)
            running[state.id] = _Running(
                state=state,
                spec=spec,
                prepared=prepared,
                journal=journal,
                cursor=self._journaled_prefix(prepared, journal),
            )

    def _admission(
        self, running: Dict[str, _Running]
    ) -> Callable[[CampaignState], bool]:
        """Quota gate for :meth:`CampaignQueue.claim`."""
        def accept(candidate: CampaignState) -> bool:
            if candidate.id in running:
                # own-worker reclaim is for *restarted* supervisors; a
                # live one must not re-claim what it already holds
                return False
            held = [rt.state for rt in running.values()]
            if self.cluster_nodes is not None:
                used = sum(s.nodes for s in held)
                if used + candidate.nodes > self.cluster_nodes:
                    self.metrics.counter("fleet.admission.cluster_full").add()
                    return False
            quota = self.tenant_quotas.get(candidate.tenant)
            if quota is not None:
                used = sum(
                    s.nodes for s in held if s.tenant == candidate.tenant
                )
                if used + candidate.nodes > quota:
                    self.metrics.counter("fleet.admission.quota").add()
                    return False
            return True
        return accept

    @staticmethod
    def _journaled_prefix(
        prepared: PreparedCampaign, journal: CampaignJournal
    ) -> int:
        """The resume cursor: leading cases the journal already covers.

        Any journal record counts -- passed, skipped *or* failed: a
        failed case already consumed its retry budget, and re-offering
        it would loop the campaign forever.  The prefix property holds
        because journal appends happen in deterministic serial order
        under every execution policy.
        """
        try:
            done = journal.load()
        except FileNotFoundError:
            return 0
        cursor = 0
        for case in prepared.cases:
            if case_fingerprint(case) not in done:
                break
            cursor += 1
        return cursor

    # -- slicing --------------------------------------------------------------
    def _run_slice(
        self,
        cid: str,
        running: Dict[str, _Running],
        report: FleetReport,
    ) -> None:
        rt = running[cid]
        if rt.cursor >= len(rt.prepared.cases):
            # reclaimed a campaign whose journal already covers every
            # case (the predecessor died after its last slice landed)
            self._finalize(cid, rt, running, report)
            return
        chunk = rt.prepared.cases[rt.cursor:rt.cursor + self.slice_cases]
        crash = lease_expire = None
        if self.faults is not None:
            crash = self.faults.check("supervisor-crash", cid)
            lease_expire = self.faults.check("lease-expire", cid)
        if crash is not None:
            # die mid-slice: half the chunk lands durably, then SIGKILL
            chunk = chunk[: max(1, len(chunk) // 2)]
        try:
            run_report = rt.prepared.run(
                cases=chunk, resume=True, live=self.live,
            )
        except CampaignAborted as exc:
            # backstop bulkhead: run_cases converts aborts into
            # report.aborted, but a trace-flush durability failure can
            # still surface here -- contain it identically
            self._terminal(cid, rt, running, report, "aborted", str(exc))
            return
        rt.slices += 1
        self.metrics.counter("fleet.slices").add()
        if run_report.metrics is not None:
            # fold the campaign's own counters into the fleet registry
            self.metrics.merge_snapshot(run_report.metrics)
        self.clock.sleep(self.slice_seconds)
        if crash is not None:
            self.metrics.counter("fleet.crashes.injected").add()
            raise SupervisorCrash(
                f"supervisor {self.worker} killed mid-slice of {cid} "
                f"(injected, attempt {crash.attempt})"
            )
        if run_report.aborted is not None:
            self.metrics.counter("fleet.degraded.aborted").add()
            self._terminal(
                cid, rt, running, report, "aborted", run_report.aborted
            )
            return
        rt.cursor += len(chunk)
        self._note_live(cid, rt, "running")
        if self.on_slice is not None:
            self.on_slice(cid, rt.slices)
        if rt.cursor >= len(rt.prepared.cases):
            self._finalize(cid, rt, running, report)
        elif lease_expire is not None:
            # the lease lapses un-renewed: this supervisor walks away
            # from the campaign mid-flight (a simulated hang) and the
            # queue's TTL makes it claimable again later
            self.metrics.counter("fleet.leases.expired").add()
            rt.zombie = True
            del running[cid]
            report.outcomes[cid] = CampaignOutcome(
                id=cid, status="lost", slices=rt.slices,
                detail="lease expired (injected)",
            )
            self._note_live(cid, rt, "lost")
        else:
            self.metrics.counter("fleet.leases.renewed").add()
            self.queue.renew(
                cid, self.worker, self.clock.now, self.lease_seconds
            )

    def _finalize(
        self,
        cid: str,
        rt: _Running,
        running: Dict[str, _Running],
        report: FleetReport,
    ) -> None:
        """Every case accounted for: complete + feed the timeline."""
        # count from the journal, not in-memory reports: cases run by a
        # crashed predecessor supervisor count too
        journal_records = list(rt.journal.load().values())
        passed = sum(
            1 for record in journal_records
            if record.get("status") in COMPLETED_STATUSES
        )
        failed = len(journal_records) - passed
        rt.journal.compact()
        status = "completed" if failed == 0 else "failed"
        self.metrics.counter(f"fleet.campaigns.{status}").add()
        self.queue.complete(
            cid, self.worker, status, self.clock.now,
            detail="" if failed == 0 else f"{failed} case(s) failed",
            passed=passed, failed=failed,
        )
        if self.timeline is not None and journal_records:
            self.timeline.record_run(
                cid,
                CampaignSpec.from_doc(rt.state.spec).content_id(),
                foms_from_journal(journal_records),
                now=self.clock.now,
            )
        del running[cid]
        report.outcomes[cid] = CampaignOutcome(
            id=cid, status=status, passed=passed, failed=failed,
            slices=rt.slices,
            detail="" if failed == 0 else f"{failed} case(s) failed",
        )
        self._note_live(cid, rt, status)

    def _terminal(
        self,
        cid: str,
        rt: _Running,
        running: Dict[str, _Running],
        report: FleetReport,
        status: str,
        detail: str,
    ) -> None:
        """Bulkhead: contain one campaign's abort as its terminal state."""
        self.queue.complete(
            cid, self.worker, status, self.clock.now, detail=detail
        )
        del running[cid]
        report.outcomes[cid] = CampaignOutcome(
            id=cid, status=status, detail=detail, slices=rt.slices
        )
        self._note_live(cid, rt, status)

    def _note_live(self, cid: str, rt: _Running, status: str) -> None:
        """Feed one campaign's progress into the live plane (if armed)."""
        if self.live is None:
            return
        total = len(rt.prepared.cases)
        done = total if status == "completed" else min(rt.cursor, total)
        self.live.note_fleet(
            cid,
            tenant=rt.state.tenant,
            nodes=rt.state.nodes,
            done=done,
            total=total,
            slices=rt.slices,
            status=status,
            now=self.clock.now,
        )
        self.live.emit_status(self.clock.now)

    # -- drain / idle ---------------------------------------------------------
    def _drain_due(self, started_at: float) -> bool:
        if self._drain_requested:
            return True
        if self.queue.drain_requested_since(started_at):
            self._drain_requested = True
            return True
        return False

    def _drain(
        self, running: Dict[str, _Running], report: FleetReport
    ) -> None:
        """Checkpoint + release everything, then mark the drain.

        In-flight slices already finished (drain is honoured at slice
        boundaries only) and their cases are journaled, so release is
        just giving the leases back: nothing is lost, nothing re-runs.
        """
        for cid in sorted(running):
            rt = running.pop(cid)
            self.queue.release(cid, self.worker, self.clock.now,
                               reason="drain")
            report.outcomes[cid] = CampaignOutcome(
                id=cid, status="released", slices=rt.slices,
                detail="drained",
            )
        self.queue.mark_drain(self.worker, self.clock.now)
        self.metrics.counter("fleet.drains").add()
        report.drained = True

    def _wait_for_leases(self) -> bool:
        """Idle path: sleep to the next foreign lease expiry, if any.

        Returns ``True`` when there is something to wait for (another
        worker's lease that may lapse), ``False`` when every campaign
        is terminal or the queue is empty of work for us.
        """
        states = self.queue.load().values()
        open_states = [s for s in states if not s.terminal]
        if not open_states:
            return False
        expiry = self.queue.next_lease_expiry()
        if expiry is None:
            return False
        if expiry > self.clock.now:
            self.clock.sleep(expiry - self.clock.now)
        else:
            self.clock.sleep(self.slice_seconds)
        return True
