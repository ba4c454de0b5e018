"""The embeddable campaign API extracted from ``repro-bench``.

``runner/cli.py`` used to be the only way to run a campaign end to end:
suite loading, site/system resolution, variable parsing, case expansion,
flag validation and the ``run_cases`` call all lived inside ``main()``.
The fleet supervisor needs exactly that pipeline *without* the terminal
attached, so it moves here:

* :class:`CampaignSpec` -- a plain-data description of one campaign
  (the CLI namespace, made serialisable so it can ride in a queue
  record);
* :class:`CampaignService` -- turns a spec into a
  :class:`PreparedCampaign`: a configured :class:`Executor`, the
  dependency-ordered case list and a validated :class:`RunConfig`;
* :class:`PreparedCampaign` -- runs the whole campaign or any slice of
  it (``run(cases=..., resume=True)``), which is what lets the
  supervisor multiplex many campaigns over one simulated cluster and
  resume them after a crash.

``repro-bench`` is now one client of this API and ``repro-fleet``
another; both surface the same validation errors
(:class:`CampaignConfigError`) with the same messages the CLI always
printed.
"""

from __future__ import annotations

import argparse
import socket
import sys
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.runner.config import ConfigError, SiteConfig, default_site_config
from repro.runner.executor import Executor, RunConfig, RunReport
from repro.runner.parallel import order_by_dependencies
from repro.runner.resilience import RetryPolicy

__all__ = [
    "CampaignConfigError",
    "CampaignService",
    "CampaignSpec",
    "PreparedCampaign",
]


class CampaignConfigError(ValueError):
    """A campaign spec that cannot be turned into a runnable campaign.

    The message carries no ``error:`` prefix; clients (CLIs, the fleet
    supervisor) decorate it for their own surface.
    """


@dataclass
class CampaignSpec:
    """Everything needed to run one campaign, as plain data.

    Field names track the ``repro-bench`` flags they came from; the
    whole record round-trips through JSON (:meth:`to_doc` /
    :meth:`from_doc`) so a spec can live inside a durable queue record
    and be re-hydrated by whichever supervisor claims it.
    """

    suites: List[str] = field(default_factory=list)
    system: Optional[str] = None
    site_yaml: List[str] = field(default_factory=list)
    setvar: List[str] = field(default_factory=list)
    spack_var: List[str] = field(default_factory=list)
    name: List[str] = field(default_factory=list)
    exclude: List[str] = field(default_factory=list)
    tags: List[str] = field(default_factory=list)
    job_options: List[str] = field(default_factory=list)
    environs: List[str] = field(default_factory=list)
    perflog_dir: Optional[str] = "perflogs"
    policy: str = "serial"
    max_workers: int = 4
    max_retries: int = 2
    max_failures: Optional[int] = None
    journal: Optional[str] = None
    journal_batch: int = 1
    result_store: Optional[str] = None
    inject_faults: Optional[str] = None
    fault_seed: int = 0
    durability: str = "strict"
    watchdog: Optional[str] = None
    speculate: bool = False
    straggler_factor: float = 2.0
    drain_after: Optional[int] = None
    trace: Optional[str] = None
    metrics: bool = False
    #: live analytics plane: stream sealed status snapshots here while
    #: the campaign runs (``repro-bench --live-status`` / ``repro-top``)
    live_status: Optional[str] = None
    #: pin perflog timestamps (fleet determinism / byte-identity tests)
    perflog_timestamp: Optional[str] = None

    def to_doc(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "CampaignSpec":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in doc.items() if k in known})

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "CampaignSpec":
        """The spec a parsed CLI namespace describes.

        Every flag whose ``dest`` names a spec field is copied; fields
        the parser does not define keep their defaults.
        """
        return cls.from_doc(vars(args))

    def content_id(self) -> str:
        """Content address of the spec -- the longitudinal-timeline key.

        Two submissions of the same spec share a content id (their FOMs
        land on the same timeline row), while any change to what runs
        -- suite, system, variables, environment -- starts a new one.
        Run-mechanics fields (policy, workers, journal paths, fault
        injection) are excluded: they change *how* the campaign runs,
        not *what* it measures.
        """
        import hashlib
        import json

        measured = {
            "suites": sorted(self.suites),
            "system": self.system,
            "site_yaml": list(self.site_yaml),
            "setvar": sorted(self.setvar),
            "spack_var": sorted(self.spack_var),
            "name": sorted(self.name),
            "exclude": sorted(self.exclude),
            "tags": sorted(self.tags),
            "job_options": sorted(self.job_options),
            "environs": sorted(self.environs),
        }
        payload = json.dumps(measured, sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]


@dataclass
class PreparedCampaign:
    """A validated, ready-to-run campaign.

    ``cases`` is the dependency-ordered expansion and ``config`` the
    options it runs under; ``run()`` executes
    all of it, or -- for a supervisor multiplexing several campaigns --
    any contiguous slice of it with ``resume=True`` so completed work
    journals forward.  ``warnings`` collects non-fatal degradations
    (e.g. a result store probe failure under ``durability='degrade'``)
    for the client to surface however it likes.
    """

    spec: CampaignSpec
    executor: Executor
    cases: List[Any]
    config: RunConfig
    #: the resolved target, for specs that left ``system`` to detection
    system: Optional[str] = None
    warnings: List[str] = field(default_factory=list)

    def run(
        self,
        cases: Optional[Sequence[Any]] = None,
        resume: bool = False,
        live: Optional[Any] = None,
    ) -> RunReport:
        return self.executor.run_cases(
            self.cases if cases is None else list(cases),
            self.config,
            resume=resume or self.config.resume,
            # a supervisor shares one LiveStatsSink across campaigns;
            # it overrides any per-spec live-status path
            live=self.config.live if live is None else live,
        )


class CampaignService:
    """Builds runnable campaigns from :class:`CampaignSpec` documents."""

    def __init__(self, site: Optional[SiteConfig] = None):
        self._base_site = site

    # -- spec -> prepared campaign ---------------------------------------
    def prepare(
        self,
        spec: CampaignSpec,
        resume: bool = False,
    ) -> PreparedCampaign:
        """Validate *spec* end to end and return a runnable campaign.

        Raises :class:`CampaignConfigError` on anything ``repro-bench``
        would have rejected at argument-validation time, with the same
        message text.
        """
        if not spec.suites:
            raise CampaignConfigError("no benchmarks selected; use -c <suite>")
        classes = self._load_classes(spec.suites)
        site = self._build_site(spec.site_yaml)
        system = self._resolve_system(spec.system, site)
        setvars, spec_override = self._parse_variables(spec)
        job_opts = _parse_job_options(spec.job_options)
        if spec.max_retries < 0:
            raise CampaignConfigError("--max-retries must be >= 0")
        warnings: List[str] = []
        result_store = self._probe_result_store(spec, warnings)
        faults = self._parse_faults(spec)
        watchdog = self._parse_watchdog(spec)
        try:
            # the one place a spec's run flags become a RunConfig
            config = RunConfig(
                policy=spec.policy,
                workers=spec.max_workers,
                retry=RetryPolicy(
                    max_attempts=spec.max_retries + 1, seed=spec.fault_seed
                ),
                faults=faults,
                max_failures=spec.max_failures,
                journal=spec.journal,
                resume=resume,
                watchdog=watchdog,
                speculation=spec.speculate,
                straggler_factor=spec.straggler_factor,
                drain_after=spec.drain_after,
                trace=spec.trace,
                metrics=spec.metrics,
                journal_batch=spec.journal_batch,
                result_store=result_store,
                durability=spec.durability,
                live=spec.live_status,
            )
        except ValueError as exc:
            raise CampaignConfigError(str(exc)) from exc
        # a flag that only tunes an unarmed feature would do nothing; the
        # fleet supervisor fills in a journal path before it prepares
        if config.journal_batch != 1 and not config.journal:
            raise CampaignConfigError("--journal-batch requires --journal PATH")
        if (config.straggler_factor != RunConfig.straggler_factor
                and not config.speculation):
            raise CampaignConfigError("--straggler-factor requires --speculate")

        executor = Executor(
            site=site,
            perflog_prefix=spec.perflog_dir,
            perflog_timestamp=spec.perflog_timestamp,
        )
        try:
            expanded = executor.expand_cases(
                classes,
                system,
                environs=spec.environs or None,
                setvars=setvars,
                spec_override=spec_override,
                account=job_opts["account"],
                qos=job_opts["qos"],
                name_patterns=spec.name or None,
                exclude=spec.exclude or None,
                tags=spec.tags or None,
            )
        except Exception as exc:
            raise CampaignConfigError(str(exc)) from exc
        if not expanded:
            raise CampaignConfigError("no tests match the selection")
        try:
            ordered = order_by_dependencies(expanded)
        except ValueError as exc:
            raise CampaignConfigError(str(exc)) from exc

        return PreparedCampaign(
            spec=spec,
            executor=executor,
            cases=ordered,
            config=config,
            system=system,
            warnings=warnings,
        )

    def run(self, spec: CampaignSpec, resume: bool = False) -> RunReport:
        """One-shot: prepare and run the whole campaign."""
        prepared = self.prepare(spec, resume=resume)
        for warning in prepared.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        return prepared.run()

    # -- the pieces ``repro-bench`` main() used to inline -----------------
    def _load_classes(self, suites: Sequence[str]) -> List[type]:
        from repro.runner.cli import load_suite

        classes: List[type] = []
        try:
            for path in suites:
                classes.extend(load_suite(path))
        except KeyError as exc:
            # KeyError str() wraps its message in quotes; keep that --
            # it is what repro-bench has always printed
            raise CampaignConfigError(str(exc)) from exc
        return classes

    def _build_site(self, site_yaml: Sequence[str]) -> SiteConfig:
        site = self._base_site or default_site_config()
        for site_path in site_yaml:
            try:
                with open(site_path, encoding="utf-8") as fh:
                    site.merge_yaml(fh.read())
            except OSError as exc:
                raise CampaignConfigError(
                    f"cannot read --site {site_path}: {exc}"
                ) from exc
            except ConfigError as exc:
                raise CampaignConfigError(str(exc)) from exc
        return site

    def _resolve_system(
        self, system: Optional[str], site: SiteConfig
    ) -> str:
        if system is not None:
            return system
        detected = site.detect(socket.gethostname())
        if detected is None:
            raise CampaignConfigError(
                "cannot auto-detect the system (ambiguous login node "
                "names); pass --system=<name> explicitly"
            )
        return detected

    def _parse_variables(self, spec: CampaignSpec):
        try:
            setvars = _parse_assignments(spec.setvar)
            spack_vars = _parse_assignments(spec.spack_var)
        except ValueError as exc:
            raise CampaignConfigError(str(exc)) from exc
        spec_override = spack_vars.pop("spack_spec", None)
        spack_vars.pop("build_locally", None)  # meaningless under simulation
        setvars.update(spack_vars)
        return setvars, spec_override

    def _probe_result_store(
        self, spec: CampaignSpec, warnings: List[str]
    ) -> Optional[str]:
        if not spec.result_store:
            return None
        from repro.runner.cli import _probe_writable_dir

        # fail at validation time, not hours in at the first put()
        probe_err = _probe_writable_dir(spec.result_store)
        if probe_err is None:
            return spec.result_store
        if spec.durability == "degrade":
            warnings.append(
                f"--result-store {spec.result_store} is not writable "
                f"({probe_err}); continuing without the result store"
            )
            return None
        raise CampaignConfigError(
            f"--result-store directory {spec.result_store} is not "
            f"writable: {probe_err}"
        )

    def _parse_faults(self, spec: CampaignSpec):
        if not spec.inject_faults:
            return None
        from repro.faults import FaultPlan, FaultSpecError

        try:
            return FaultPlan.parse(spec.inject_faults, seed=spec.fault_seed)
        except FaultSpecError as exc:
            raise CampaignConfigError(f"--inject-faults: {exc}") from exc

    def _parse_watchdog(self, spec: CampaignSpec):
        if not spec.watchdog:
            return None
        from repro.runner.watchdog import WatchdogSpecError, as_watchdog

        try:
            return as_watchdog(spec.watchdog)
        except WatchdogSpecError as exc:
            raise CampaignConfigError(f"--watchdog: {exc}") from exc


def _parse_assignments(pairs: Sequence[str]) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"expected VAR=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        out[key.strip()] = value.strip().strip("'\"")
    return out


def _parse_job_options(opts: Sequence[str]) -> Dict[str, Optional[str]]:
    """Extract account/qos from -J options (the rest are recorded only)."""
    parsed: Dict[str, Optional[str]] = {"account": None, "qos": None}
    for opt in opts:
        text = opt.strip().strip("'\"")
        for key in ("account", "qos"):
            marker = f"--{key}="
            if text.startswith(marker):
                parsed[key] = text[len(marker):]
    return parsed
