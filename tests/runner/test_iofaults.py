"""Unit tests for the storage-fault plane: grammar, draws, FaultyIO.

The contract under test (DESIGN.md section 6.5/6.6): I/O faults are
selected by ``KIND:RATE@GLOB`` clauses drawn *fresh per operation* (a
disk does not remember which files it already ate), every ``FaultyIO``
append is atomic-or-fail (damage only survives a simulated crash), and
the whole schedule is a pure function of the seed.
"""

import os

import pytest

from repro.faults import (
    FAULT_KINDS,
    IO_FAULT_KINDS,
    FaultPlan,
    FaultSpecError,
    parse_fault_spec,
)
from repro.iofaults import FaultyIO, InjectedIOFault, flip_byte, tear_tail

pytestmark = pytest.mark.iochaos


class TestIoGrammar:
    def test_io_kinds_registered(self):
        for kind in IO_FAULT_KINDS:
            assert kind in FAULT_KINDS

    def test_rate_with_artifact_glob(self):
        (clause,) = parse_fault_spec("torn:0.05@journal")
        assert clause.kind == "torn"
        assert clause.rate == 0.05
        assert clause.glob == "journal"

    def test_bare_rate_clause(self):
        (clause,) = parse_fault_spec("enospc:0.01")
        assert clause.rate == 0.01
        assert clause.glob is None

    def test_glob_only_clause_has_no_rate(self):
        (clause,) = parse_fault_spec("eio@store#2")
        assert clause.rate is None
        assert clause.glob == "store"
        assert clause.count == 2

    def test_roundtrip_format(self):
        spec = "enospc:0.01,torn:0.05@journal,bitrot:0.1x2@store,eio@store#*"
        plan = FaultPlan.parse(spec)
        assert plan.format() == spec

    def test_storm_spec_parses(self):
        plan = FaultPlan.parse(
            "enospc:0.08,eio:0.08,torn:0.08,bitrot:0.08,fsync-lie:0.08"
        )
        assert plan.has_io_faults
        assert len(plan.clauses) == 5

    def test_case_only_plan_has_no_io_faults(self):
        assert not FaultPlan.parse("build:0.3,submit:0.2").has_io_faults

    def test_bad_rate_rejected(self):
        with pytest.raises(FaultSpecError):
            parse_fault_spec("torn:1.5@journal")

    @pytest.mark.parametrize("spec", ["eio@pack", "eio@index#*",
                                      "torn:0.05@pack", "bitrot@jrnl"])
    def test_io_glob_matching_no_artifact_rejected(self, spec):
        """A chaos run that injects nothing must not pass silently."""
        with pytest.raises(FaultSpecError) as err:
            parse_fault_spec(spec)
        for label in ("journal", "perflog", "trace", "store"):
            assert label in str(err.value)

    @pytest.mark.parametrize("spec", ["eio@stor*", "torn:0.1@*",
                                      "eio@journal", "build@pack"])
    def test_io_globs_that_match_stay_valid(self, spec):
        assert parse_fault_spec(spec)


class TestCheckIoDraws:
    def test_same_seed_same_schedule(self):
        plan_a = FaultPlan.parse("torn:0.3@journal", seed=7)
        plan_b = FaultPlan.parse("torn:0.3@journal", seed=7)
        seq_a = [plan_a.check_io("journal") is not None for _ in range(200)]
        seq_b = [plan_b.check_io("journal") is not None for _ in range(200)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)

    def test_different_seed_different_schedule(self):
        seqs = []
        for seed in (1, 2):
            plan = FaultPlan.parse("eio:0.5", seed=seed)
            seqs.append(
                [plan.check_io("perflog") is not None for _ in range(64)]
            )
        assert seqs[0] != seqs[1]

    def test_draws_are_fresh_per_operation(self):
        """Unlike case faults, a label is never 'selected forever'."""
        plan = FaultPlan.parse("enospc:0.5", seed=3)
        seq = [plan.check_io("store") is not None for _ in range(64)]
        assert any(seq) and not all(seq)

    def test_glob_filters_labels(self):
        plan = FaultPlan.parse("torn:1.0@journal", seed=0)
        assert plan.check_io("trace") is None
        assert plan.check_io("journal") is not None

    def test_glob_only_clause_fires_on_first_count_ops(self):
        plan = FaultPlan.parse("eio@store#2", seed=0)
        hits = [plan.check_io("store") is not None for _ in range(4)]
        assert hits == [True, True, False, False]

    def test_rate_zero_never_fires(self):
        plan = FaultPlan.parse("bitrot:0.0", seed=0)
        assert all(plan.check_io("pack") is None for _ in range(50))

    def test_case_check_untouched_by_io_clauses(self):
        plan = FaultPlan.parse("torn:1.0")
        assert plan.check("build", "CaseA") is None


def _always(kind):
    return FaultyIO(FaultPlan.parse(f"{kind}:1.0"))


class TestFaultyIOAppend:
    def test_clean_append_without_plan(self, tmp_path):
        io = FaultyIO(None)
        path = str(tmp_path / "a.jsonl")
        io.append(path, b"one\n", "journal")
        io.append(path, b"two\n", "journal")
        assert open(path, "rb").read() == b"one\ntwo\n"

    @pytest.mark.parametrize("kind", ["enospc", "eio"])
    def test_fail_fast_kinds_leave_file_untouched(self, tmp_path, kind):
        path = str(tmp_path / "a.jsonl")
        with open(path, "wb") as fh:
            fh.write(b"intact\n")
        with pytest.raises(InjectedIOFault) as err:
            _always(kind).append(path, b"more\n", "journal")
        assert err.value.transient
        assert open(path, "rb").read() == b"intact\n"

    @pytest.mark.parametrize("kind", ["torn", "bitrot"])
    def test_physical_damage_is_rolled_back(self, tmp_path, kind):
        """Atomic-or-fail: the caller never sees the damaged bytes."""
        path = str(tmp_path / "a.jsonl")
        with open(path, "wb") as fh:
            fh.write(b"intact\n")
        with pytest.raises(InjectedIOFault):
            _always(kind).append(path, b"abcdefgh\n", "journal")
        assert open(path, "rb").read() == b"intact\n"

    def test_fsync_lie_then_crash_leaves_torn_fragment(self, tmp_path):
        path = str(tmp_path / "a.jsonl")
        io = _always("fsync-lie")
        io.append(path, b"0123456789\n", "journal")
        # before the crash the data looks fine...
        assert open(path, "rb").read() == b"0123456789\n"
        assert io.unsynced_paths == [path]
        damaged = io.lose_unsynced()
        # ...after it, only a torn fragment of the unsynced tail remains
        assert damaged == [path]
        data = open(path, "rb").read()
        assert 0 < len(data) < 11
        assert b"0123456789\n".startswith(data)
        assert io.unsynced_paths == []

    def test_injected_fault_is_oserror_with_errno(self, tmp_path):
        with pytest.raises(OSError) as err:
            _always("enospc").append(str(tmp_path / "x"), b"x\n", "perflog")
        import errno

        assert err.value.errno == errno.ENOSPC


class TestFaultyIOAtomic:
    def test_torn_write_atomic_keeps_old_file(self, tmp_path):
        path = str(tmp_path / "doc.json")
        with open(path, "wb") as fh:
            fh.write(b"{}")
        with pytest.raises(InjectedIOFault):
            _always("torn").write_atomic(path, b'{"k": 1}', "store")
        assert open(path, "rb").read() == b"{}"

    def test_bitrot_commits_silently(self, tmp_path):
        """The one kind that *succeeds* with wrong bytes -- checksum food."""
        path = str(tmp_path / "doc.json")
        payload = b'{"k": 12345}'
        _always("bitrot").write_atomic(path, payload, "store")
        landed = open(path, "rb").read()
        assert landed != payload
        assert len(landed) == len(payload)

    def test_replace_guarded(self, tmp_path):
        src, dst = str(tmp_path / "s"), str(tmp_path / "d")
        with open(src, "wb") as fh:
            fh.write(b"x")
        with pytest.raises(InjectedIOFault):
            _always("eio").replace(src, dst, "pack")
        assert os.path.exists(src) and not os.path.exists(dst)


class TestDamageHelpers:
    def test_tear_tail(self, tmp_path):
        path = str(tmp_path / "f")
        with open(path, "wb") as fh:
            fh.write(b"0123456789")
        assert tear_tail(path, drop=4) == 6
        assert open(path, "rb").read() == b"012345"

    def test_flip_byte_never_hits_newline(self, tmp_path):
        path = str(tmp_path / "f")
        original = b"ab\ncd\nef\n"
        with open(path, "wb") as fh:
            fh.write(original)
        pos = flip_byte(path)
        mutated = open(path, "rb").read()
        assert mutated != original
        assert mutated.count(b"\n") == original.count(b"\n")
        assert original[pos] != mutated[pos]
