"""Run provenance: everything needed to repeat a benchmarking campaign.

The paper contrasts *archaeological* reproducibility (documenting what
happened, for later audit) with collecting results so they are
reproducible *a priori*.  :class:`RunProvenance` serves both: it is
written as JSON next to the perflogs and contains the concretized specs,
job scripts, launcher commands and framework configuration -- enough for
anyone (including the original author, per the paper's "it becomes
impossible for someone else to reproduce our work if we ourselves do not
reproduce it") to re-run the campaign.
"""

from __future__ import annotations

import json
import platform as _platform
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.runner.pipeline import CaseResult

__all__ = ["RunProvenance"]

_FRAMEWORK_VERSION = "1.0.0"


@dataclass
class RunProvenance:
    """A JSON-able record of one campaign (one Executor run)."""

    system: str
    invocation: List[str] = field(default_factory=list)
    entries: List[Dict[str, Any]] = field(default_factory=list)
    #: perflog ingest-cache accounting (``PerflogStore.stats.as_dict()``),
    #: surfaced alongside the per-case concretization-memo hits: whether
    #: an analytics pass re-parsed history or extended a manifest is as
    #: provenance-relevant as whether a solve came from the memo table
    ingest_cache: Optional[Dict[str, Any]] = None
    #: campaign-level resilience accounting (DESIGN.md section 6): the
    #: fault plan + seed in force, retry policy, whether the run resumed
    #: from a journal, and the circuit-breaker outcome.  A retried or
    #: resumed campaign that is not *recorded* as such is archaeology.
    resilience: Optional[Dict[str, Any]] = None
    #: node-health ledger (``HealthTracker.as_dict()``): which nodes the
    #: campaign drained, their scores/strikes -- a result obtained while
    #: steering around a sick node must say so (DESIGN.md section 6.4)
    health: Optional[Dict[str, Any]] = None
    #: end-of-campaign metrics snapshot
    #: (``MetricsRegistry.snapshot()``, DESIGN.md section 7): the same
    #: counters/histograms the trace file's final record carries, so an
    #: auditor can cross-check provenance against the trace byte stream
    metrics: Optional[Dict[str, Any]] = None
    #: path of the JSONL span trace streamed during the campaign, when
    #: ``--trace`` was armed (the pointer, not the spans: traces can be
    #: large and live next to the perflogs they describe)
    trace_file: Optional[str] = None
    #: path of the sealed live-status artifact, when ``--live-status``
    #: was armed -- same pointer-not-payload rule as the trace, and the
    #: handle ``repro-fsck --provenance`` uses to discover/verify it
    live_status: Optional[str] = None
    #: result-store accounting (``ResultStoreStats.as_dict()``) when
    #: ``--result-store`` was armed: how many cases were replayed from
    #: the content-addressed store vs executed fresh.  An incremental
    #: campaign whose provenance hides that it replayed is archaeology
    #: (DESIGN.md section 8)
    result_cache: Optional[Dict[str, Any]] = None

    def attach_ingest_cache(self, stats: Any) -> None:
        """Record perflog-store accounting (a ``StoreStats`` or dict)."""
        self.ingest_cache = (
            stats.as_dict() if hasattr(stats, "as_dict") else dict(stats)
        )

    def attach_metrics(
        self, snapshot: Any, trace_path: Optional[str] = None,
        live_status: Optional[str] = None,
    ) -> None:
        """Record the campaign metrics snapshot (and the trace pointer).

        Accepts a :class:`~repro.obs.metrics.MetricsRegistry`, anything
        with ``snapshot()``/``as_dict()``, or a plain dict -- typically
        ``report.metrics`` straight off the :class:`RunReport`, with
        ``report.trace_path`` as *trace_path* and the ``--live-status``
        path (if armed) as *live_status*.
        """
        if hasattr(snapshot, "snapshot"):
            self.metrics = snapshot.snapshot()
        elif hasattr(snapshot, "as_dict"):
            self.metrics = snapshot.as_dict()
        elif snapshot is not None:
            self.metrics = dict(snapshot)
        if trace_path is not None:
            self.trace_file = str(trace_path)
        if live_status is not None:
            self.live_status = str(live_status)

    def attach_result_cache(self, stats: Any) -> None:
        """Record result-store accounting (``ResultStoreStats`` or dict)."""
        self.result_cache = (
            stats.as_dict() if hasattr(stats, "as_dict") else dict(stats)
        )

    def add_case(self, result: CaseResult) -> None:
        case = result.case
        self.entries.append(
            {
                "test": case.test.name,
                "platform": case.platform,
                "environ": case.environ_name,
                "passed": result.passed,
                "failing_stage": result.failing_stage,
                "failure_reason": result.failure_reason,
                "spec": (
                    result.concrete_spec.format()
                    if result.concrete_spec is not None
                    else None
                ),
                "spec_hash": (
                    result.concrete_spec.dag_hash()
                    if result.concrete_spec is not None
                    else None
                ),
                "spec_dag": (
                    result.concrete_spec.dag_dict()
                    if result.concrete_spec is not None
                    else None
                ),
                # whether the concretizer *solve* came from the memo cache
                # (the binary itself is still rebuilt every run, Principle
                # 3; the solve being reused is itself provenance-relevant)
                "concretize_cache_hit": result.concretize_cache_hit,
                "run_command": result.run_command,
                "job_script": result.job_script,
                "perfvars": {
                    k: {"value": v, "unit": u}
                    for k, (v, u) in result.perfvars.items()
                },
                "build_seconds": result.build_seconds,
                "job_seconds": result.job_seconds,
                "queue_seconds": result.queue_seconds,
                "energy": (
                    result.energy.as_dict() if result.energy is not None
                    else None
                ),
                # efficiency provenance: each FOM normalized by the
                # case's mean power draw (None without telemetry)
                "perfvars_per_watt": (
                    {
                        k: result.energy.fom_per_watt(v)
                        for k, (v, _u) in result.perfvars.items()
                    }
                    if result.energy is not None else None
                ),
                # resilience provenance: how hard this result was to get
                "attempts": result.attempts,
                "backoff_schedule": list(result.backoff_schedule),
                "faults": list(result.fault_log),
                "resumed": result.resumed,
                "quarantined": result.quarantined,
                "speculated": result.speculated,
                "speculation_won": result.speculation_won,
                "hung_attempts": result.hung_attempts,
            }
        )
        if result.replayed:
            # cache annotations only -- a cold run's provenance entry is
            # byte-identical whether or not a store was armed, and a
            # warm run's differs from it *only* by these two keys (the
            # byte-identity gate compares modulo them)
            self.entries[-1]["replayed"] = True
            self.entries[-1]["cached_from"] = result.cached_from

    def to_json(self) -> str:
        return json.dumps(
            {
                "framework_version": _FRAMEWORK_VERSION,
                "host_python": _platform.python_version(),
                "system": self.system,
                "invocation": self.invocation,
                "cases": self.entries,
                "ingest_cache": self.ingest_cache,
                "resilience": self.resilience,
                "health": self.health,
                "metrics": self.metrics,
                "trace_file": self.trace_file,
                "live_status": self.live_status,
                "result_cache": self.result_cache,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunProvenance":
        doc = json.loads(text)
        prov = cls(system=doc["system"], invocation=doc.get("invocation", []))
        prov.entries = doc.get("cases", [])
        prov.ingest_cache = doc.get("ingest_cache")
        prov.resilience = doc.get("resilience")
        prov.health = doc.get("health")
        # observability fields arrived later; .get keeps old files loading
        prov.metrics = doc.get("metrics")
        prov.trace_file = doc.get("trace_file")
        prov.live_status = doc.get("live_status")
        prov.result_cache = doc.get("result_cache")
        return prov

    def spec_hashes(self) -> List[str]:
        return [e["spec_hash"] for e in self.entries if e.get("spec_hash")]
