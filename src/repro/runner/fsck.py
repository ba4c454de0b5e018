"""``repro-fsck``: verify and heal a campaign's on-disk artifacts.

Every artifact the runner writes is self-verifying (DESIGN.md section
6.6): journal and trace records carry a ``cs`` CRC32 field, perflogs
grow a ``.sums`` checksum sidecar when chaos injection is armed, and
result-store objects seal their entries the same way.  This tool is the
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
  torn (unterminated) tail is healable.
* **Result store** -- every ``objects/*.json`` entry must verify;
  repair unlinks damaged objects (a store miss, never wrong data),
  rebuilds ``pack.jsonl`` from the surviving canonical objects, and
  filters ``index.json`` down to keys that still exist.

Exit status: 0 when everything verifies (or every problem was healed),
1 when damage was found (check mode) or remains (repair mode), 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.jsonl import (
    scan_jsonl, seal_line, verify_line, write_jsonl_atomic,
)
from repro.runner.perflog import sums_path, verify_sums
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
def _read_sums(path: str) -> List[Tuple[int, int, int]]:
    """Parse a ``.sums`` sidecar into ``(start, length, crc)`` tuples."""
    ranges: List[Tuple[int, int, int]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                parts = raw.split()
                if len(parts) != 3:
                    continue
                try:
                    ranges.append(
                        (int(parts[0]), int(parts[1]), int(parts[2], 16))
                    )
                except ValueError:
                    continue
    except OSError:
        pass
    return ranges


def _rebuild_sums(path: str, data: bytes) -> None:
    lines = []
    offset = 0
    for line in data.split(b"\n")[:-1]:
        chunk = line + b"\n"
        crc = zlib.crc32(chunk) & 0xFFFFFFFF
        lines.append(f"{offset} {len(chunk)} {crc:08x}\n")
        offset += len(chunk)
    tmp = sums_path(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))
    os.replace(tmp, sums_path(path))


def fsck_perflog(path: str, repair: bool = False) -> Dict[str, Any]:
    """Verify one perflog against its sidecar; heal damaged ranges."""
    report = verify_sums(path)
    invalid = len(report["invalid"])
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        data = b""
    # a torn (unterminated) tail is damage even without a sidecar
    torn_tail = bool(data) and not data.endswith(b"\n")
    checked = int(report["covered"]) or data.count(b"\n")
    problems = invalid + (1 if torn_tail else 0)
    healed = 0
    if problems and repair:
        ranges = _read_sums(sums_path(path))
        if ranges:
            keep = bytearray()
            end = 0
            for start, length, want in ranges:
                chunk = data[start:start + length]
                if (len(chunk) == length
                        and (zlib.crc32(chunk) & 0xFFFFFFFF) == want):
                    keep.extend(chunk)
                end = max(end, start + length)
            # rows appended without a sidecar are unverifiable but
            # keepable when they are complete lines
            tail = data[end:]
            keep.extend(tail[: tail.rfind(b"\n") + 1])
            healed_data = bytes(keep)
        else:
            healed_data = data[: data.rfind(b"\n") + 1]
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(healed_data)
        os.replace(tmp, path)
        _rebuild_sums(path, healed_data)
        healed = problems
    return _report("perflog", path, checked, problems, healed)


# -- result store ----------------------------------------------------------------------
def fsck_store(root: str, repair: bool = False) -> List[Dict[str, Any]]:
    """Verify a :class:`CaseResultStore` tree; heal objects/pack/index."""
    objects_dir = os.path.join(root, "objects")
    pack_file = os.path.join(root, "pack.jsonl")
    index_file = os.path.join(root, "index.json")
    survivors: Dict[str, Dict[str, Any]] = {}  # key -> verified entry
    checked = bad = healed = 0
    names = []
    if os.path.isdir(objects_dir):
        names = sorted(
            n for n in os.listdir(objects_dir) if n.endswith(".json")
        )
    for name in names:
        full = os.path.join(objects_dir, name)
        checked += 1
        try:
            with open(full, encoding="utf-8") as fh:
                entry = verify_line(fh.read())
        except (OSError, ValueError):
            entry = None
        if entry is None:
            bad += 1
            if repair:
                # a damaged object becomes a cache miss, never wrong data
                try:
                    os.unlink(full)
                except OSError:
                    pass
                healed += 1
            continue
        survivors[name[: -len(".json")]] = entry
    reports = [_report("store-objects", objects_dir, checked, bad, healed)]

    # pack: a sequential replica of the objects; every line must carry a
    # verifying sealed entry whose object survived
    pack_checked = pack_bad = pack_healed = 0
    if os.path.exists(pack_file):
        try:
            with open(pack_file, encoding="utf-8") as fh:
                pack_lines = fh.read().splitlines()
        except OSError:
            pack_lines = []
        for line in pack_lines:
            pack_checked += 1
            unpacked = _unpack_line(line)
            if unpacked is None or unpacked[0] not in survivors:
                pack_bad += 1
        if pack_bad and repair:
            # the layout put writes, so the healed pack keeps the
            # raw-CRC fast path
            body = "".join(
                _pack_line(key, seal_line(entry))
                for key, entry in survivors.items()
            )
            tmp = pack_file + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(body)
            os.replace(tmp, pack_file)
            pack_healed = pack_bad
    reports.append(
        _report("store-pack", pack_file, pack_checked, pack_bad,
                pack_healed)
    )

    # index: advisory identity map; entries must point at live objects
    idx_checked = idx_bad = idx_healed = 0
    if os.path.exists(index_file):
        try:
            with open(index_file, encoding="utf-8") as fh:
                index = json.load(fh)
            if not isinstance(index, dict):
                raise ValueError("index is not an object")
        except (OSError, ValueError):
            index = None
        if index is None:
            idx_checked = idx_bad = 1
            if repair:
                # rebuild from the surviving entries' own fingerprints
                index = {
                    str(entry["fingerprint"]): key
                    for key, entry in survivors.items()
                    if entry.get("fingerprint")
                }
                idx_healed = 1
        else:
            idx_checked = len(index)
            live = {
                str(k): str(v) for k, v in index.items()
                if str(v) in survivors
            }
            idx_bad = len(index) - len(live)
            if idx_bad and repair:
                index = live
                idx_healed = idx_bad
        if repair and idx_healed:
            tmp = index_file + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(index, fh, sort_keys=True)
            os.replace(tmp, index_file)
    reports.append(
        _report("store-index", index_file, idx_checked, idx_bad,
                idx_healed)
    )
    return reports


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
}


def _run_pass(targets: List[Tuple[str, str]],
              repair: bool) -> List[Dict[str, Any]]:
    reports: List[Dict[str, Any]] = []
    for kind, path in targets:
        if kind == "store":
            reports.extend(fsck_store(path, repair=repair))
        else:
            reports.append(_CHECKERS[kind](path, repair=repair))
    return reports


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
                             "rotten records, rebuild sidecars, excise "
                             "damaged store objects and rebuild the "
                             "pack (default: report only)")
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
