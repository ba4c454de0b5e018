"""``repro-fsck``: verify and heal a campaign's on-disk artifacts.

Every artifact the runner writes is self-verifying (DESIGN.md section
6.6): journal and trace records carry a ``cs`` CRC32 field, perflogs
grow a ``.sums`` checksum sidecar when chaos injection is armed, and
result-store pack lines seal their entries the same way.  This tool is the
offline complement: it walks an artifact tree, re-verifies every
checksum, and -- with ``--repair`` -- excises exactly the damaged bytes
while preserving every intact record::

    repro-fsck perflogs/ campaign.jsonl trace.jsonl .result-store/
    repro-fsck --repair --provenance perflogs/provenance.json

What each artifact class gets:

* **JSONL (journal / trace / metrics / live-status)** -- every line is
  decoded and checksum-verified; repair rewrites the file atomically
  with only the intact records (re-sealed), dropping torn tails and
  quarantining mid-file bit rot.  ``*.live.jsonl`` streams are reported
  under their own ``live-status`` kind.
* **Perflogs** -- each ``.sums`` range is re-checksummed; repair
  rebuilds the log from the valid ranges plus any complete uncovered
  tail lines, then regenerates the sidecar.  Without a sidecar only a
  torn tail is healable: an unterminated last line that the perflog
  reader would reject.  An unterminated line it reads as a whole row is
  kept, terminated and covered by the new sidecar.
* **Result store** -- every ``pack.jsonl`` line must carry a verifying
  sealed entry; repair rewrites the pack atomically from the intact
  lines, in the bytes ``put`` writes (a dropped entry is a store miss,
  never wrong data).

Exit status: 0 when everything verifies (or every problem was healed),
1 when damage was found (check mode) or remains (repair mode), 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.iofaults import FaultyIO
from repro.obs.jsonl import scan_jsonl, write_jsonl_atomic
from repro.runner.perflog import (
    _range_ok, _read_sums, _sums_entries, sums_path, verify_sums,
)
from repro.runner.results import _pack_line, _unpack_line

__all__ = [
    "main", "fsck_jsonl", "fsck_live_status", "fsck_perflog", "fsck_store",
]


def _report(kind: str, path: str, checked: int, invalid: int,
            healed: int = 0) -> Dict[str, Any]:
    return {
        "kind": kind,
        "path": path,
        "checked": checked,
        "invalid": invalid,
        "healed": healed,
    }


# -- JSONL artifacts (journal / trace / metrics) ---------------------------------------
def fsck_jsonl(path: str, repair: bool = False) -> Dict[str, Any]:
    """Verify (and optionally heal) one sealed-JSONL artifact."""
    records, stats = scan_jsonl(path)
    invalid = stats["bad_tail"] + stats["bad_mid"]
    healed = 0
    if invalid and repair:
        # survivors only, re-sealed, swapped in atomically: the dropped
        # lines were unreadable regardless of what this tool does
        write_jsonl_atomic(path, records)
        healed = invalid
    return _report("jsonl", path, stats["ok"] + invalid, invalid, healed)


def fsck_live_status(path: str, repair: bool = False) -> Dict[str, Any]:
    """Verify/heal a ``repro-live`` status artifact.

    Mechanically identical to :func:`fsck_jsonl` (the live plane emits
    the same sealed-JSONL lines as journals and traces), but reported
    under its own kind so an auditor can see at a glance that the
    dashboard stream -- not the ledger -- is what rotted.
    """
    report = fsck_jsonl(path, repair=repair)
    report["kind"] = "live-status"
    return report


# -- perflogs + .sums sidecars ---------------------------------------------------------
#: temp + fsync + rename: a crash mid-repair leaves the old file or the
#: healed one, and the healed one is durable before it replaces the old
_write_atomic = FaultyIO().write_atomic


def _is_row(tail: bytes, path: str) -> bool:
    """Whether an unterminated last line is whole by the reader's test.

    ``repro-plot`` reads a last row that lacks only its newline, so fsck
    counts the tail torn exactly when :func:`parse_block` rejects it.
    """
    from repro.postprocess.perflog_reader import (
        PerflogFormatError, parse_block,
    )

    try:
        parse_block(tail.decode("utf-8"), path)
    except (UnicodeDecodeError, PerflogFormatError):
        return False
    return True


def _whole_lines(data: bytes, path: str) -> bytes:
    """*data*'s complete lines, an unterminated whole row terminated."""
    cut = data.rfind(b"\n") + 1
    tail = data[cut:]
    if tail and _is_row(tail, path):
        return data + b"\n"
    return data[:cut]


def fsck_perflog(path: str, repair: bool = False) -> Dict[str, Any]:
    """Verify one perflog against its sidecar; heal damaged ranges."""
    report = verify_sums(path)
    invalid = len(report["invalid"])
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        data = b""
    # a torn (unterminated, not whole) tail is damage even without a
    # sidecar; a whole last row that lacks its newline is data
    tail = data[data.rfind(b"\n") + 1:]
    torn_tail = bool(tail) and not _is_row(tail, path)
    checked = int(report["covered"]) or data.count(b"\n") + bool(tail)
    problems = invalid + (1 if torn_tail else 0)
    healed = 0
    if problems and repair:
        ranges = [r for r in _read_sums(path) if r is not None]
        keep = bytearray()
        end = 0
        for start, length, crc in ranges:
            if _range_ok(data, start, length, crc):
                keep.extend(data[start:start + length])
            end = max(end, start + length)
        # rows appended without a sidecar are unverifiable but
        # keepable when they are whole lines
        keep.extend(_whole_lines(data[end:], path))
        healed_data = bytes(keep)
        _write_atomic(path, healed_data, "perflog")
        entries, _ = _sums_entries(0, healed_data)
        _write_atomic(sums_path(path),
                      "".join(e + "\n" for e in entries).encode("utf-8"),
                      "perflog")
        healed = problems
    return _report("perflog", path, checked, problems, healed)


# -- result store ----------------------------------------------------------------------
def fsck_store(root: str, repair: bool = False) -> Dict[str, Any]:
    """Verify a :class:`CaseResultStore`'s pack, one pass over its lines.

    Lines are verified as the store loads them.  Repair keeps the intact
    lines, in order, in the bytes ``put`` writes: a line in the sealed
    layout is spliced verbatim, one an older writer laid out is
    re-sealed; the torn and rotten ones drop.
    """
    pack_file = os.path.join(root, "pack.jsonl")
    intact: List[Tuple[str, str]] = []
    checked = 0
    try:
        with open(pack_file, encoding="utf-8", errors="replace") as fh:
            for line in fh:
                checked += 1
                key, sealed = _unpack_line(line)
                if sealed is not None:
                    intact.append((key, sealed))
    except OSError:
        pass
    invalid = checked - len(intact)
    healed = 0
    if invalid and repair:
        body = "".join(_pack_line(key, sealed) for key, sealed in intact)
        _write_atomic(pack_file, body.encode("utf-8"), "store")
        healed = invalid
    return _report("store", root, checked, invalid, healed)


# -- target discovery ------------------------------------------------------------------
def _is_store(path: str) -> bool:
    return (
        os.path.isdir(os.path.join(path, "objects"))
        or os.path.exists(os.path.join(path, "pack.jsonl"))
        or os.path.exists(os.path.join(path, "index.json"))
    )


def collect_targets(paths: List[str]) -> List[Tuple[str, str]]:
    """Classify *paths* into ``(kind, path)`` work items.

    A directory that looks like a result store is checked as one; any
    other directory is walked for ``*.log`` perflogs, ``*.jsonl``
    artifacts, and nested store roots.
    """
    targets: List[Tuple[str, str]] = []
    seen = set()

    def add(kind: str, path: str) -> None:
        key = (kind, os.path.abspath(path))
        if key not in seen:
            seen.add(key)
            targets.append((kind, path))

    for path in paths:
        if os.path.isdir(path):
            if _is_store(path):
                add("store", path)
                continue
            for dirpath, dirnames, filenames in os.walk(path):
                if _is_store(dirpath):
                    add("store", dirpath)
                    dirnames[:] = []
                    continue
                for name in sorted(filenames):
                    full = os.path.join(dirpath, name)
                    if name.endswith(".log"):
                        add("perflog", full)
                    elif name.endswith(".live.jsonl"):
                        add("live-status", full)
                    elif name.endswith(".jsonl"):
                        add("jsonl", full)
        elif path.endswith(".log"):
            add("perflog", path)
        elif path.endswith(".live.jsonl"):
            add("live-status", path)
        else:
            add("jsonl", path)
    return targets


def targets_from_provenance(path: str) -> List[str]:
    """Artifact paths a provenance record names (plus its own tree)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    out: List[str] = []
    trace = doc.get("trace_file")
    if trace:
        out.append(trace)
    live = doc.get("live_status")
    if live:
        out.append(live)
    journal = (doc.get("resilience") or {}).get("journal")
    if journal:
        out.append(journal)
    # provenance lives next to the perflogs it describes
    tree = os.path.dirname(os.path.abspath(path))
    out.append(tree)
    return out


# -- CLI -------------------------------------------------------------------------------
_CHECKERS = {
    "jsonl": fsck_jsonl,
    "live-status": fsck_live_status,
    "perflog": fsck_perflog,
    "store": fsck_store,
}


def _run_pass(targets: List[Tuple[str, str]],
              repair: bool) -> List[Dict[str, Any]]:
    return [_CHECKERS[kind](path, repair=repair) for kind, path in targets]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-fsck",
        description="verify and heal a campaign's self-verifying "
                    "artifacts (journals, traces, perflogs, result "
                    "stores)",
    )
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="artifact files or directories to check")
    parser.add_argument("--provenance", default=None, metavar="JSON",
                        help="seed the artifact list from a campaign "
                             "provenance record (trace file, journal, "
                             "and the perflog tree it lives in)")
    parser.add_argument("--repair", action="store_true",
                        help="heal what verification finds: drop torn/"
                             "rotten records, rebuild sidecars, and "
                             "rewrite store packs from their intact "
                             "lines (default: report only)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="print only artifacts with problems")
    args = parser.parse_args(argv)

    paths = list(args.paths)
    if args.provenance:
        try:
            paths.extend(targets_from_provenance(args.provenance))
        except (OSError, ValueError) as exc:
            print(f"error: cannot read provenance {args.provenance}: "
                  f"{exc}", file=sys.stderr)
            return 2
    if not paths:
        parser.error("no artifacts given; pass PATH... or --provenance")
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        for p in missing:
            print(f"error: no such artifact: {p}", file=sys.stderr)
        return 2

    targets = collect_targets(paths)
    reports = _run_pass(targets, repair=args.repair)
    if args.repair:
        # the proof is a clean re-verification, not the heal code path
        reverify = {
            (r["kind"], r["path"]): r
            for r in _run_pass(targets, repair=False)
        }
    else:
        reverify = {}

    found = healed = remaining = 0
    for rep in reports:
        found += rep["invalid"]
        healed += rep["healed"]
        after = reverify.get((rep["kind"], rep["path"]))
        left = after["invalid"] if after is not None else rep["invalid"]
        if args.repair:
            remaining += left
        if args.quiet and not rep["invalid"]:
            continue
        status = "ok"
        if rep["invalid"]:
            if args.repair:
                status = "healed" if left == 0 else "UNHEALED"
            else:
                status = "DAMAGED"
        print(f"{rep['kind']:<13} {rep['path']}: "
              f"{rep['checked']} checked, {rep['invalid']} invalid"
              f" [{status}]")
    verb = "healed" if args.repair else "found"
    count = healed if args.repair else found
    print(f"fsck: {len(targets)} artifact(s), {found} problem(s), "
          f"{count} {verb}")
    if args.repair:
        return 0 if remaining == 0 else 1
    return 0 if found == 0 else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
