"""``repro-fleet``: operate a campaign fleet from the command line.

Subcommands::

    repro-fleet submit --queue fleet.q -c babelstream --system sim:cpu ...
    repro-fleet run    --queue fleet.q [--worker w0] [--max-concurrent 4]
    repro-fleet status --queue fleet.q
    repro-fleet drain  --queue fleet.q
    repro-fleet regressions --timeline fleet.timeline

``submit`` enqueues a campaign spec (the ``repro-bench`` flag surface,
made durable); ``run`` starts a supervisor that claims, slices and
completes queued campaigns until the queue is terminal -- SIGTERM makes
it drain gracefully at the next slice boundary; ``drain`` asks a
*remote* supervisor (another process, another host sharing the queue
file) to do the same via a durable drain-request record; ``status``
prints the folded per-campaign queue state; ``regressions`` scans the
longitudinal timeline for sustained cross-run FOM shifts.

Exit codes follow the ``repro-bench`` contract: 0 when everything the
command touched is healthy, 1 when campaigns completed with failed
cases (or regressions were found), 2 when a campaign aborted.
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import List, Optional

from repro.fleet.queue import CampaignQueue
from repro.fleet.service import CampaignSpec
from repro.fleet.supervisor import FleetSupervisor
from repro.fleet.timeline import ResultsTimeline
from repro.runner.executor import POLICIES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fleet",
        description="Supervised multi-campaign benchmarking fleet",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    submit = sub.add_parser("submit", help="enqueue one campaign")
    submit.add_argument("--queue", required=True, metavar="PATH",
                        help="durable campaign queue file")
    submit.add_argument("--tenant", default="default",
                        help="tenant the campaign's node usage is "
                             "accounted to (default: default)")
    submit.add_argument("--priority", type=int, default=0,
                        help="claim priority; higher runs first "
                             "(default: 0)")
    submit.add_argument("--nodes", type=int, default=1,
                        help="node budget the campaign occupies while "
                             "leased (default: 1)")
    # the repro-bench surface a queued spec can carry; dests name
    # CampaignSpec fields, which CampaignSpec.from_args copies
    submit.add_argument("-c", "--checkpath", dest="suites", action="append",
                        default=[], required=True,
                        help="benchmark suite to load")
    submit.add_argument("--system", default=None)
    submit.add_argument("--site", dest="site_yaml", action="append",
                        default=[], metavar="YAML")
    submit.add_argument("-S", "--spack-var", action="append", default=[],
                        metavar="VAR=VAL")
    submit.add_argument("--setvar", action="append", default=[],
                        metavar="VAR=VAL")
    submit.add_argument("-n", "--name", action="append", default=[])
    submit.add_argument("-x", "--exclude", action="append", default=[])
    submit.add_argument("--tag", dest="tags", action="append", default=[])
    submit.add_argument("-J", "--job-option", dest="job_options",
                        action="append", default=[])
    submit.add_argument("--environ", dest="environs", action="append",
                        default=[])
    submit.add_argument("--perflog-dir", default="perflogs")
    submit.add_argument("--policy", choices=POLICIES, default="serial")
    submit.add_argument("-j", "--max-workers", type=int, default=4)
    submit.add_argument("--max-retries", type=int, default=2)
    submit.add_argument("--max-failures", type=int, default=None)
    submit.add_argument("--journal", default=None, metavar="PATH",
                        help="campaign journal path (default: derived "
                             "per-campaign beside the queue)")
    submit.add_argument("--journal-batch", type=int, default=1)
    submit.add_argument("--result-store", default=None, metavar="DIR")
    submit.add_argument("--inject-faults", default=None, metavar="SPEC")
    submit.add_argument("--fault-seed", type=int, default=0)
    submit.add_argument("--durability", choices=["strict", "degrade"],
                        default="strict")
    submit.add_argument("--watchdog", default=None, metavar="SPEC")

    run = sub.add_parser("run", help="supervise the queue until done")
    run.add_argument("--queue", required=True, metavar="PATH")
    run.add_argument("--worker", default="fleet-0",
                     help="supervisor identity in queue records; reuse "
                          "it to reclaim your own leases after a "
                          "restart (default: fleet-0)")
    run.add_argument("--slice-cases", type=int, default=4,
                     help="cases per campaign per scheduling round "
                          "(default: 4)")
    run.add_argument("--lease-seconds", type=float, default=10.0,
                     help="heartbeat lease TTL on the simulated clock "
                          "(default: 10)")
    run.add_argument("--max-concurrent", type=int, default=4,
                     help="campaigns held concurrently (default: 4)")
    run.add_argument("--cluster-nodes", type=int, default=None,
                     help="total node budget across held campaigns "
                          "(default: unlimited)")
    run.add_argument("--tenant-quota", action="append", default=[],
                     metavar="TENANT=NODES",
                     help="per-tenant concurrent node cap (repeatable)")
    run.add_argument("--inject-faults", default=None, metavar="SPEC",
                     help="fleet-level chaos: supervisor-crash / "
                          "lease-expire clauses keyed by campaign id")
    run.add_argument("--fault-seed", type=int, default=0)
    run.add_argument("--timeline", default=None, metavar="PATH",
                     help="append completed campaigns' FOMs to this "
                          "longitudinal results timeline")
    run.add_argument("--metrics", action="store_true",
                     help="print fleet.* counters after the summary")
    run.add_argument("--live-status", nargs="?", const="", default=None,
                     metavar="PATH",
                     help="stream live fleet aggregates to a sealed "
                          "JSONL artifact (default: <queue>.live.jsonl); "
                          "watch with repro-top or repro-fleet status")

    status = sub.add_parser("status", help="show per-campaign state")
    status.add_argument("--queue", required=True, metavar="PATH")
    status.add_argument("--live-status", default=None, metavar="PATH",
                        help="live-status artifact to read per-campaign "
                             "progress from (default: <queue>.live.jsonl "
                             "when present)")

    drain = sub.add_parser(
        "drain", help="ask the running supervisor to drain gracefully"
    )
    drain.add_argument("--queue", required=True, metavar="PATH")

    regressions = sub.add_parser(
        "regressions", help="scan the timeline for cross-run FOM shifts"
    )
    regressions.add_argument("--timeline", required=True, metavar="PATH")
    regressions.add_argument("--min-runs", type=int, default=5,
                             help="runs a cell needs before change-point "
                                  "detection applies (default: 5)")
    regressions.add_argument("--threshold", type=float, default=0.05,
                             help="relative shift treated as meaningful "
                                  "(default: 0.05)")
    return parser


def _cmd_submit(args: argparse.Namespace) -> int:
    spec = CampaignSpec.from_args(args)
    queue = CampaignQueue(args.queue)
    campaign_id = queue.submit(
        spec.to_doc(),
        tenant=args.tenant,
        priority=args.priority,
        nodes=args.nodes,
        now=queue.max_time(),
    )
    print(f"submitted: {campaign_id}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    quotas = {}
    for pair in args.tenant_quota:
        if "=" not in pair:
            print(f"error: expected TENANT=NODES, got {pair!r}",
                  file=sys.stderr)
            return 1
        tenant, _, nodes = pair.partition("=")
        try:
            quotas[tenant.strip()] = int(nodes)
        except ValueError:
            print(f"error: expected TENANT=NODES, got {pair!r}",
                  file=sys.stderr)
            return 1
    faults = None
    if args.inject_faults:
        from repro.faults import FaultPlan, FaultSpecError

        try:
            faults = FaultPlan.parse(args.inject_faults,
                                     seed=args.fault_seed)
        except FaultSpecError as exc:
            print(f"error: --inject-faults: {exc}", file=sys.stderr)
            return 1
    queue = CampaignQueue(args.queue)
    timeline = (
        ResultsTimeline(args.timeline) if args.timeline else None
    )
    live = args.live_status
    if live == "":
        live = f"{args.queue}.live.jsonl"
    supervisor = FleetSupervisor(
        queue,
        worker=args.worker,
        slice_cases=args.slice_cases,
        lease_seconds=args.lease_seconds,
        max_concurrent=args.max_concurrent,
        cluster_nodes=args.cluster_nodes,
        tenant_quotas=quotas,
        faults=faults,
        timeline=timeline,
        live=live,
    )

    # SIGTERM = graceful drain at the next slice boundary: running
    # campaigns checkpoint through their journals, leases are released,
    # the queue records the drain, a restarted supervisor resumes
    previous = signal.signal(
        signal.SIGTERM, lambda signum, frame: supervisor.request_drain()
    )
    try:
        report = supervisor.run()
    finally:
        signal.signal(signal.SIGTERM, previous)
    print(report.summary())
    if args.metrics and report.metrics:
        from repro.obs.cli import render_metrics

        print(render_metrics(report.metrics))
    if any(o.status == "aborted" for o in report.outcomes.values()):
        return 2
    if any(o.status == "failed" for o in report.outcomes.values()):
        return 1
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    queue = CampaignQueue(args.queue)
    states = queue.load()
    for cid in sorted(states, key=lambda c: states[c].seq):
        s = states[cid]
        extra = ""
        if s.status == "leased":
            extra = f" worker={s.worker} lease_until={s.lease_until:g}"
        elif s.terminal:
            extra = f" passed={s.passed} failed={s.failed}"
            if s.detail:
                extra += f" ({s.detail})"
        print(f"{cid}: {s.status} tenant={s.tenant} "
              f"priority={s.priority} nodes={s.nodes}{extra}")
    counts = queue.stats()
    print(", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    _print_live_status(args)
    return 0


def _print_live_status(args: argparse.Namespace) -> None:
    """Augment queue-fold state with live per-campaign progress.

    The supervisor's live-status artifact (``run --live-status``) is a
    sealed JSONL stream of windowed snapshots; the latest one carries
    per-campaign done/total counters and fleet-wide rates that the
    queue fold alone cannot know mid-slice.
    """
    import os

    path = args.live_status or f"{args.queue}.live.jsonl"
    if not os.path.exists(path):
        return
    from repro.obs.live import read_live_status

    _, statuses = read_live_status(path)
    if not statuses:
        return
    snap = statuses[-1].get("snapshot") or {}
    cases = snap.get("cases") or {}
    rates = snap.get("rates") or {}
    rate = rates.get("cases_per_second")
    print(
        f"live: t=+{snap.get('clock', 0):g}s  "
        f"{cases.get('total', 0)} case(s) done fleet-wide"
        + (f", {rate:g} cases/s" if rate else "")
        + f"  ({path})"
    )
    fleet = snap.get("fleet") or {}
    for cid in sorted(fleet):
        info = fleet[cid]
        total = info.get("total", 0)
        done = info.get("done", 0)
        pct = f" ({done * 100 // total}%)" if total else ""
        print(f"  {cid}: {done}/{total} case(s){pct}, "
              f"{info.get('slices', 0)} slice(s), {info.get('status', '?')}")
    for alert in snap.get("alerts") or []:
        print(f"  ! {alert}")


def _cmd_drain(args: argparse.Namespace) -> int:
    queue = CampaignQueue(args.queue)
    queue.request_drain(now=queue.max_time())
    print("drain requested")
    return 0


def _cmd_regressions(args: argparse.Namespace) -> int:
    timeline = ResultsTimeline(args.timeline)
    findings = timeline.detect_regressions(
        min_runs=args.min_runs, threshold=args.threshold
    )
    print(timeline.render(findings))
    regressed = [
        f for f in findings if f.change.direction == "regressed"
    ]
    return 1 if regressed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "submit": _cmd_submit,
        "run": _cmd_run,
        "status": _cmd_status,
        "drain": _cmd_drain,
        "regressions": _cmd_regressions,
    }[args.command]
    try:
        return handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
