"""Content-addressed result store: keys, invalidation, replay, journal.

The invalidation matrix is the contract: a warm campaign re-executes a
case iff one of the composite key's components changed (spec problem,
system fingerprint, benchmark source, run config) -- and nothing else.
Key stability across process restarts and dict orderings is
hypothesis-tested; torn and deleted entries are tolerated, never fatal.
"""

import gc
import inspect
import json
import os
import subprocess
import sys
import weakref
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan
from repro.runner import sanity as sn
from repro.runner.benchmark import RegressionTest, SpackTest
from repro.runner.cli import main as bench_main
from repro.runner.config import default_site_config
from repro.runner.executor import Executor, RunConfig
from repro.runner.fields import parameter, variable
from repro.runner.resilience import (
    _SOURCE_HASH_CACHE,
    CampaignJournal,
    RetryPolicy,
    benchmark_source_hash,
    case_fingerprint,
    content_address,
)
from repro.runner.results import CaseResultStore
from repro.runner.watchdog import WatchdogSpec

PINNED_TS = "2026-01-01T00:00:00"


class Alpha(RegressionTest):
    """Stable half of the delta campaign (never edited)."""

    size = parameter([1, 2, 3])

    def program(self, ctx):
        return f"alpha {self.size}: {self.size * 2.0}\n", 1.0

    def check_sanity(self, stdout):
        sn.assert_found(r"alpha", stdout)

    def extract_performance(self, stdout):
        v = sn.extractsingle(r": ([\d.]+)", stdout, 1, float)
        return {"value": (v, "units")}


class Beta(RegressionTest):
    """The half the tests edit (a plain class attr carries the rev)."""

    size = parameter([1, 2, 3])
    rev = "r0"

    def program(self, ctx):
        return f"beta {self.size}: {self.size * 3.0}\n", 1.0

    def check_sanity(self, stdout):
        sn.assert_found(r"beta", stdout)

    def extract_performance(self, stdout):
        v = sn.extractsingle(r": ([\d.]+)", stdout, 1, float)
        return {"value": (v, "units")}


class SpecProbe(SpackTest):
    """Key-only fixture for the spec component (never run)."""

    spack_spec = variable(str, value="babelstream@4.0 +omp")

    def check_sanity(self, stdout):
        sn.assert_found(r".", stdout)


@pytest.fixture(autouse=True)
def _reset_edits():
    yield
    Beta.rev = "r0"
    _SOURCE_HASH_CACHE.clear()


def edit_beta(rev):
    """The in-process stand-in for editing Beta's source between runs."""
    Beta.rev = rev
    # the memo caches per class object; a real edit arrives in a fresh
    # process where the memo starts empty
    _SOURCE_HASH_CACHE.clear()


def make_executor(tmp_path, tag):
    return Executor(
        perflog_prefix=str(tmp_path / f"perflogs-{tag}"),
        perflog_timestamp=PINNED_TS,
    )


def run(tmp_path, tag, store, classes=(Alpha, Beta), **kwargs):
    ex = make_executor(tmp_path, tag)
    cases = ex.expand_cases(list(classes), "archer2")
    report = ex.run_cases(cases, result_store=store, **kwargs)
    return ex, report


def read_tree(prefix):
    out = {}
    for root, _, files in os.walk(prefix):
        for fname in files:
            path = os.path.join(root, fname)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, prefix)] = fh.read()
    return out


# --------------------------------------------------------------------------
# the invalidation matrix (table-driven, key level)
# --------------------------------------------------------------------------

def _case(cls=Beta, system="archer2"):
    ex = Executor()
    return ex.expand_cases([cls], system)[0]


def _fleet_site(num_nodes):
    site = default_site_config()
    site.merge_yaml(
        "systems:\n"
        "  - name: fleet\n"
        f"    num_nodes: {num_nodes}\n"
    )
    return site


MATRIX = [
    ("no_edit", False),
    ("spec", True),
    ("system", True),
    ("source", True),
    ("config", True),
]


@pytest.mark.parametrize("dimension,should_change", MATRIX)
def test_invalidation_matrix(tmp_path, dimension, should_change):
    """Exactly the edited component changes the composite key."""
    store = CaseResultStore(str(tmp_path / "store"))
    if dimension == "spec":
        base = store.key_for(Executor().expand_cases(
            [SpecProbe], "archer2")[0])
        edited = store.key_for(Executor().expand_cases(
            [SpecProbe], "archer2",
            setvars={"spack_spec": "babelstream@4.0 +cuda"})[0])
    elif dimension == "system":
        a = Executor(site=_fleet_site(8)).expand_cases([Beta], "fleet")[0]
        b = Executor(site=_fleet_site(16)).expand_cases([Beta], "fleet")[0]
        base, edited = store.key_for(a), store.key_for(b)
        # same case identity: this is an *edit*, not a different case
        assert case_fingerprint(a) == case_fingerprint(b)
    elif dimension == "source":
        base = store.key_for(_case())
        edit_beta("r1")
        edited = CaseResultStore(str(tmp_path / "s2")).key_for(_case())
    elif dimension == "config":
        case = _case()
        base = store.key_for(case, RunConfig().fingerprint())
        edited = store.key_for(case, RunConfig(
            faults=FaultPlan.parse("build:0.3", seed=1)).fingerprint())
    else:  # no_edit: two independent computations, fresh store
        base = store.key_for(_case())
        edited = CaseResultStore(str(tmp_path / "s2")).key_for(_case())
    assert (base != edited) == should_change


#: one config per knob the result key covers, with its digest at the
#: commit that introduced RunConfig: a store filled by earlier releases
#: must keep hitting, so these may never move
CONFIG_VARIANTS = {
    "default": RunConfig(),
    "build-seed0": RunConfig(faults=FaultPlan.parse("build:0.3", seed=0)),
    "build-seed1": RunConfig(faults=FaultPlan.parse("build:0.3", seed=1)),
    "submit-seed0": RunConfig(faults=FaultPlan.parse("submit:0.2", seed=0)),
    "retry5": RunConfig(retry=RetryPolicy(max_attempts=5)),
    "watchdog": RunConfig(watchdog=WatchdogSpec(run=9.0)),
    "drain3": RunConfig(drain_after=3),
}
GOLDEN_CONFIG_DIGESTS = {
    "default":
        "90d076d02c0bfc8eacc90697bb815581afa054cb49204c5487d90c345a4fe89e",
    "build-seed0":
        "3b8a5f651b1d6a32353a5707b149010201b2dea4747f29b0679cc29816c58b84",
    "build-seed1":
        "18f2c1dd4cb8f8b1d9bd77a8aa2cebf9a1990268b2abe49ce87d29a0d33bd9c7",
    "submit-seed0":
        "1c0dae6264ae4e6916d1a997a59886d8dee7da672cae798c3ec72b0ac06fa296",
    "retry5":
        "bbbb87708e232b6e3f0aa5a5abf7e36381b1de4b7bac6d99e6a414fcb43b7cd6",
    "watchdog":
        "a2fdf49336746149f8da39489dde385349df2eba36c1dc3cd67c594b21b3a67c",
    "drain3":
        "6d2865684b0ef09e85ec368f570b18e7e9138206d072498a4517b7f454c72495",
}


def test_run_config_fingerprint_goldens():
    assert {name: config.fingerprint()
            for name, config in CONFIG_VARIANTS.items()} == \
        GOLDEN_CONFIG_DIGESTS


def test_run_config_fingerprint_ignores_how_the_campaign_runs():
    """Policy, workers, batching and artifact paths must not invalidate."""
    base = RunConfig().fingerprint()
    assert RunConfig(policy="async", workers=8, journal_batch=16,
                     journal="j.jsonl", trace="t.jsonl", metrics=True,
                     durability="degrade").fingerprint() == base
    # speculation hashes its threshold, and only while it is armed
    flag = RunConfig(speculation=True, straggler_factor=1.5).fingerprint()
    assert flag != base
    assert flag != RunConfig(speculation=True).fingerprint()
    assert RunConfig(straggler_factor=1.5).fingerprint() == base


def test_changed_fault_injection_invalidates():
    """The case_fingerprint blind spot: --inject-faults must invalidate."""
    keys = {config.fingerprint() for config in CONFIG_VARIANTS.values()}
    assert len(keys) == 7  # every knob lands in the key, all distinct


def test_source_hash_sees_factory_attrs():
    """type()-built classes sharing source text still hash distinctly."""
    def factory(tag):
        cls = type("Twin", (Beta,), {"twin_tag": tag})
        return cls

    a, b = factory("x"), factory("y")
    assert benchmark_source_hash(a) != benchmark_source_hash(b)


class _Golden:
    """Fixture for the pinned digest below: its only base is ``object``,
    so framework edits do not move it."""

    rev = "r0"
    sizes = (1, 2)

    def program(self, ctx):
        return f"golden {self.rev}\n", 1.0


#: benchmark_source_hash(_Golden).  A change here changes every store key
#: and turns every existing store into misses: update it only on purpose.
GOLDEN_SOURCE_HASH = (
    "b5201051cbf3a0c70de9c6e4b6fc21333f6fe47a3cda3b601ddad1d209a6b148"
)


def test_source_hash_golden_digest():
    assert benchmark_source_hash(_Golden) == GOLDEN_SOURCE_HASH


def test_source_hash_cache_lets_classes_die():
    """The memos are weak-keyed: hashing a class does not keep it alive
    (a fleet supervisor loads fresh sweep classes for every campaign)."""
    cls = type("Ephemeral", (Beta,), {"tag": "x"})
    benchmark_source_hash(cls)
    assert cls in _SOURCE_HASH_CACHE
    ref = weakref.ref(cls)
    del cls
    gc.collect()
    assert ref() is None
    assert all(klass.__name__ != "Ephemeral" for klass in _SOURCE_HASH_CACHE)


def test_base_class_source_read_once(monkeypatch):
    """A shared base is parsed once, not once per leaf class hashed; the
    leaves' data attributes are still read on every hash."""
    reads = []
    real = inspect.getsource
    monkeypatch.setattr(
        inspect, "getsource", lambda obj: (reads.append(obj), real(obj))[1]
    )
    leaves = [type("Leaf", (Beta,), {"tag": i}) for i in range(3)]
    digests = {benchmark_source_hash(leaf) for leaf in leaves}
    assert len(digests) == 3
    assert reads.count(RegressionTest) <= 1
    assert reads.count(Beta) <= 1


# --------------------------------------------------------------------------
# key stability (hypothesis + cross-process)
# --------------------------------------------------------------------------

class _FakeTest:
    def __init__(self, name, num_tasks, opts):
        self.name = name
        self.num_tasks = num_tasks
        self.num_tasks_per_node = None
        self.time_limit = None
        self.executable = "x"
        self.executable_opts = opts


class _FakeCase:
    def __init__(self, name, num_tasks, opts, platform, environ):
        self.test = _FakeTest(name, num_tasks, opts)
        self.platform = platform
        self.environ_name = environ
        self.account = None
        self.qos = None


@settings(max_examples=50, deadline=None)
@given(
    name=st.text(min_size=1, max_size=20),
    num_tasks=st.integers(min_value=1, max_value=4096),
    opts=st.lists(st.text(max_size=8), max_size=4),
    spec=st.text(max_size=16),
)
def test_content_address_is_deterministic(name, num_tasks, opts, spec):
    case = _FakeCase(name, num_tasks, opts, "sys:part", "env")
    first = content_address(case, spec_key=spec)
    again = content_address(
        _FakeCase(name, num_tasks, list(opts), "sys:part", "env"),
        spec_key=spec,
    )
    assert first == again
    assert len(first) == 64 and int(first, 16) >= 0


@settings(max_examples=30, deadline=None)
@given(
    max_attempts=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31),
    drain=st.one_of(st.none(), st.integers(min_value=1, max_value=9)),
)
def test_run_config_fingerprint_is_deterministic(max_attempts, seed, drain):
    a = RunConfig(
        retry=RetryPolicy(max_attempts=max_attempts, seed=seed),
        drain_after=drain,
    ).fingerprint()
    b = RunConfig(
        retry=RetryPolicy(max_attempts=max_attempts, seed=seed),
        drain_after=drain,
    ).fingerprint()
    assert a == b
    assert a != RunConfig(
        retry=RetryPolicy(max_attempts=max_attempts + 1, seed=seed),
        drain_after=drain,
    ).fingerprint()


SUBPROCESS_KEY = """
import sys
sys.path.insert(0, {src!r})
from repro.runner.executor import Executor, RunConfig
from repro.runner.results import CaseResultStore
sys.path.insert(0, {here!r})
from tests.runner.test_resultstore import Beta
store = CaseResultStore({store!r})
case = Executor().expand_cases([Beta], "archer2")[0]
print(store.key_for(case, RunConfig().fingerprint()))
"""


def test_key_stable_across_process_restarts(tmp_path):
    """Same class + case -> same key under fresh interpreters and
    randomized hash seeds (no Python ``hash()`` anywhere in the key)."""
    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    src = os.path.join(here, "src")
    script = SUBPROCESS_KEY.format(
        src=src, here=here, store=str(tmp_path / "s"))
    keys = set()
    for hashseed in ("1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, check=True,
        )
        keys.add(out.stdout.strip())
    local = CaseResultStore(str(tmp_path / "local")).key_for(
        _case(), RunConfig().fingerprint())
    keys.add(local)
    assert len(keys) == 1, f"key unstable across processes: {keys}"


# --------------------------------------------------------------------------
# delta re-execution (executor level)
# --------------------------------------------------------------------------

def test_warm_run_replays_everything_unchanged(tmp_path):
    store = str(tmp_path / "store")
    _, cold = run(tmp_path, "cold", store)
    assert cold.success and not cold.replayed
    assert cold.result_cache["puts"] == 6

    ex, warm = run(tmp_path, "warm", store)
    assert warm.success
    assert len(warm.replayed) == 6
    assert warm.result_cache["hits"] == 6
    assert warm.result_cache["hit_rate"] == 1.0
    assert "Replayed: 6 case(s)" in warm.summary()
    # byte-identical perflogs: the replayed rows are the cold bytes
    assert (read_tree(str(tmp_path / "perflogs-cold"))
            == read_tree(str(tmp_path / "perflogs-warm")))


def test_edit_reexecutes_exactly_the_delta(tmp_path):
    store = str(tmp_path / "store")
    run(tmp_path, "cold", store)
    edit_beta("r1")
    _, warm = run(tmp_path, "warm", store)
    assert warm.success
    replayed = {r.case.display_name for r in warm.replayed}
    executed = {r.case.display_name for r in warm.results} - replayed
    assert all(name.startswith("Alpha") for name in replayed)
    assert all(name.startswith("Beta") for name in executed)
    assert len(replayed) == 3 and len(executed) == 3
    # the Beta misses classify as *invalidated*: same case identity,
    # different content (the identity index still points at the old key)
    assert warm.result_cache["invalidated"] == 3
    # edited results were re-stored: a third run replays everything
    _, third = run(tmp_path, "third", store)
    assert len(third.replayed) == 6


def test_replay_carries_result_material(tmp_path):
    store = str(tmp_path / "store")
    run(tmp_path, "cold", store)
    _, warm = run(tmp_path, "warm", store)
    result = warm.replayed[0]
    assert result.replayed and not result.resumed
    assert result.cached_from  # the cold campaign's deterministic run id
    assert result.perfvars["value"][1] == "units"
    assert result.run_command
    assert result.stdout


def test_provenance_annotates_replays(tmp_path):
    from repro.core.provenance import RunProvenance

    store = str(tmp_path / "store")
    _, cold = run(tmp_path, "cold", store)
    _, warm = run(tmp_path, "warm", store)

    def entries(report):
        prov = RunProvenance(system="archer2")
        for result in report.results:
            prov.add_case(result)
        return json.loads(prov.to_json())["cases"]

    cold_entries, warm_entries = entries(cold), entries(warm)
    for entry in warm_entries:
        assert entry.pop("replayed") is True
        assert entry.pop("cached_from")
    # modulo the cache annotations, provenance is byte-identical
    assert cold_entries == warm_entries


def test_failed_results_replay_too(tmp_path):
    class Hopeless(RegressionTest):
        runs = 0

        def program(self, ctx):
            Hopeless.runs += 1
            return "bad\n", 1.0

        def check_sanity(self, stdout):
            from repro.runner.sanity import SanityError

            raise SanityError("always wrong")

    store = str(tmp_path / "store")
    _, cold = run(tmp_path, "cold", store, classes=(Hopeless,),
                  retry=RetryPolicy(max_attempts=1))
    assert not cold.success and Hopeless.runs == 1
    _, warm = run(tmp_path, "warm", store, classes=(Hopeless,),
                  retry=RetryPolicy(max_attempts=1))
    assert not warm.success
    assert len(warm.replayed) == 1
    assert Hopeless.runs == 1  # deterministic world: the failure replays


# --------------------------------------------------------------------------
# store durability: corruption, deleted objects
# --------------------------------------------------------------------------

def test_torn_entry_is_a_miss_not_a_crash(tmp_path):
    store_dir = str(tmp_path / "store")
    run(tmp_path, "cold", store_dir)
    os.unlink(os.path.join(store_dir, "pack.jsonl"))  # force the file path
    objects = os.path.join(store_dir, "objects")
    victims = sorted(os.listdir(objects))
    # one torn mid-write, one outright garbage
    with open(os.path.join(objects, victims[0]), "w") as fh:
        fh.write('{"version": 1, "record": {"stat')
    with open(os.path.join(objects, victims[1]), "w") as fh:
        fh.write("not json at all")
    _, warm = run(tmp_path, "warm", store_dir)
    assert warm.success
    assert len(warm.replayed) == 4
    assert warm.result_cache["corrupted"] == 2
    assert warm.result_cache["misses"] == 2
    # the re-executed cases rewrote their entries: next run is all-warm
    _, third = run(tmp_path, "third", store_dir)
    assert len(third.replayed) == 6


def _write_legacy_layout(store_dir):
    """Rewrite a store in the byte layout of the previous store format:
    compact ``json.dump`` object files sealed with a ``cs`` CRC over the
    ``sort_keys`` encoding, plus ``{"key", "entry"}`` pack lines encoded
    with compact separators."""
    objects = os.path.join(store_dir, "objects")
    pack = []
    for name in sorted(os.listdir(objects)):
        path = os.path.join(objects, name)
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        entry.pop("cs")
        canonical = json.dumps(entry, sort_keys=True).encode("utf-8")
        sealed = {"cs": f"{zlib.crc32(canonical) & 0xFFFFFFFF:08x}",
                  **entry}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sealed, fh, separators=(",", ":"))
        pack.append(json.dumps({"key": name[:-len(".json")],
                                "entry": sealed}, separators=(",", ":")))
    with open(os.path.join(store_dir, "pack.jsonl"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(pack) + "\n")
    return sorted(os.listdir(objects))


def test_store_in_previous_layout_still_hits(tmp_path):
    """A store written by the previous layout is served whole: from its
    pack, and from its object files alone."""
    store_dir = str(tmp_path / "store")
    run(tmp_path, "cold", store_dir)
    keys = _write_legacy_layout(store_dir)
    legacy = CaseResultStore(store_dir)
    with legacy._lock:
        pack = legacy._load_pack_locked()
    assert len(pack) == 6  # the legacy pack lines verify
    for tag in ("warm-pack", "warm-objects"):
        if tag == "warm-objects":
            os.unlink(os.path.join(store_dir, "pack.jsonl"))
        _, warm = run(tmp_path, tag, store_dir)
        assert warm.success
        assert len(warm.replayed) == 6
        assert warm.result_cache["hits"] == 6
        assert warm.result_cache["corrupted"] == 0
        assert warm.result_cache["puts"] == 0
        assert sorted(os.listdir(os.path.join(store_dir, "objects"))) == keys
        assert (read_tree(str(tmp_path / "perflogs-cold"))
                == read_tree(str(tmp_path / f"perflogs-{tag}")))


def test_pack_line_splices_the_object_bytes(tmp_path):
    """put writes one sealed text: the object file holds it, and the
    pack line embeds it verbatim under the same decoded values."""
    store_dir = str(tmp_path / "store")
    run(tmp_path, "cold", store_dir)
    objects = os.path.join(store_dir, "objects")
    with open(os.path.join(store_dir, "pack.jsonl"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 6
    for line in lines:
        doc = json.loads(line)
        with open(os.path.join(objects, doc["key"] + ".json"),
                  encoding="utf-8") as fh:
            sealed = fh.read()
        assert line == '{"key":"%s","entry":%s}' % (doc["key"], sealed)
        assert json.loads(sealed) == doc["entry"]


def test_rotten_pack_line_falls_back_to_the_object(tmp_path):
    store_dir = str(tmp_path / "store")
    run(tmp_path, "cold", store_dir)
    pack = os.path.join(store_dir, "pack.jsonl")
    with open(pack, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    # bit rot inside a value: still valid JSON, only the CRC can tell
    assert "--ntasks=1" in lines[0]
    lines[0] = lines[0].replace("--ntasks=1", "--ntasks=7", 1)
    with open(pack, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    store = CaseResultStore(store_dir)
    with store._lock:
        pack = store._load_pack_locked()
    assert len(pack) == 5
    _, warm = run(tmp_path, "warm", store_dir)
    assert len(warm.replayed) == 6
    assert warm.result_cache["corrupted"] == 0


def test_pack_is_a_redundant_replica(tmp_path):
    """An intact pack line serves an entry whose object file was torn."""
    store_dir = str(tmp_path / "store")
    run(tmp_path, "cold", store_dir)
    objects = os.path.join(store_dir, "objects")
    victim = sorted(os.listdir(objects))[0]
    with open(os.path.join(objects, victim), "w") as fh:
        fh.write('{"version": 1, "record": {"stat')  # torn object file
    _, warm = run(tmp_path, "warm", store_dir)
    assert warm.success
    assert len(warm.replayed) == 6  # the pack still has the good bytes
    assert warm.result_cache["corrupted"] == 0


def test_pack_respects_eviction(tmp_path):
    """A pack line whose object file is gone (deleted) is a miss."""
    store_dir = str(tmp_path / "store")
    run(tmp_path, "cold", store_dir)
    objects = os.path.join(store_dir, "objects")
    victim = sorted(os.listdir(objects))[0]
    # what a corrupted-entry miss and repro-fsck --repair both do
    os.unlink(os.path.join(objects, victim))
    assert len(CaseResultStore(store_dir)) == 5  # objects, not pack lines
    _, warm = run(tmp_path, "warm", store_dir)
    assert warm.success
    assert len(warm.replayed) == 5
    assert warm.result_cache["misses"] == 1
    assert warm.result_cache["evictions"] == 0


def test_version_skew_is_a_miss(tmp_path):
    store = CaseResultStore(str(tmp_path / "store"))
    key = "k" * 64
    store.put(key, {"version": 999, "fingerprint": "fp"})
    assert store.lookup(key) is None
    assert store.stats.corrupted == 1


def test_missing_artifacts_force_reexecution(tmp_path):
    """An entry stored without trace lines is a miss for --trace."""
    store = str(tmp_path / "store")
    run(tmp_path, "cold", store)  # no tracer: entries carry trace=None
    _, warm = run(tmp_path, "warm", store,
                  trace=str(tmp_path / "trace.jsonl"))
    assert warm.success
    assert not warm.replayed  # all misses: the store lacks their trace
    _, third = run(tmp_path, "third", store,
                   trace=str(tmp_path / "trace3.jsonl"))
    assert len(third.replayed) == 6  # rewritten entries carry the trace


# --------------------------------------------------------------------------
# journal interplay (--resume + --result-store compose)
# --------------------------------------------------------------------------

def test_replays_journal_as_meta_records(tmp_path):
    store = str(tmp_path / "store")
    journal_path = str(tmp_path / "journal.jsonl")
    run(tmp_path, "cold", store)
    _, warm = run(tmp_path, "warm", store, journal=journal_path)
    assert len(warm.replayed) == 6
    journal = CampaignJournal(journal_path)
    records = list(journal.entries())
    replays = [r for r in records if r.get("kind") == "replay"]
    assert len(replays) == 6
    for record in replays:
        assert record["status"] == "passed"
        assert record["key"] and record["cached_from"]
    # replay meta records are invisible to resume state and quarantine
    assert journal.load() == {}
    assert journal.failure_counts() == {}


def test_resume_takes_precedence_over_store(tmp_path):
    """A journal-resumed case neither hits the store nor re-emits rows."""
    store = str(tmp_path / "store")
    journal_path = str(tmp_path / "journal.jsonl")
    run(tmp_path, "cold", store, journal=journal_path)
    ex, resumed = run(tmp_path, "resume", store, journal=journal_path,
                      resume=True)
    assert len(resumed.resumed) == 6
    assert not resumed.replayed
    assert resumed.result_cache["hits"] == 0  # store never consulted
    # resumed cases re-emit nothing: no perflogs in this run's prefix
    assert read_tree(str(tmp_path / "perflogs-resume")) == {}


def test_compact_keeps_latest_replay_per_fingerprint(tmp_path):
    journal = CampaignJournal(str(tmp_path / "journal.jsonl"))

    class R:
        pass

    def fake(status):
        r = R()
        r.passed = status == "passed"
        r.skipped = False

        class C:
            display_name = "case-x"
        r.case = C()
        return r

    for status, key, run, fp in (("passed", "k1", "run1", "fp1"),
                                 ("failed", "k2", "run2", "fp1"),
                                 ("passed", "k3", "run3", "fp2")):
        journal.record_many([journal.make_replay_record(
            fake(status), key=key, cached_from=run, fingerprint=fp)])
    # an unknown future record shape must survive compaction untouched
    journal._append({"kind": "future", "fingerprint": "fp9", "x": 1})
    journal.compact()
    records = list(journal.entries())
    replays = {r["fingerprint"]: r for r in records
               if r.get("kind") == "replay"}
    assert set(replays) == {"fp1", "fp2"}
    assert replays["fp1"]["key"] == "k2"  # the *latest* per fingerprint
    assert {"kind": "future", "fingerprint": "fp9", "x": 1} in records


# --------------------------------------------------------------------------
# CLI: --result-store / --cache-stats end to end (Spack suite included)
# --------------------------------------------------------------------------

def test_cli_incremental_spack_campaign(tmp_path, capsys):
    store = str(tmp_path / "store")

    def invoke(tag):
        rc = bench_main([
            "-c", "babelstream", "-r", "--tag", "omp",
            "--system", "archer2",
            "--perflog-dir", str(tmp_path / f"perflogs-{tag}"),
            "--result-store", store,
            "--cache-stats",
            "--performance-report",
        ])
        captured = capsys.readouterr()
        assert rc == 0, captured.out + captured.err
        return captured

    cold = invoke("cold")
    assert "Replayed" not in cold.out
    assert "0 hit(s)" in cold.err
    warm = invoke("warm")
    assert "Replayed: " in warm.out
    assert "(hit rate 100.0%)" in warm.out
    assert "0 miss(es)" in warm.err
    # the replayed Spack case kept its rendered spec: perflog rows (spec
    # column included) are the cold bytes, and the FOM table still renders
    assert (read_tree(str(tmp_path / "perflogs-cold"))
            == read_tree(str(tmp_path / "perflogs-warm")))
    assert "PERFORMANCE REPORT" in warm.out


def test_cli_cache_stats_requires_store(capsys):
    rc = bench_main(["-c", "babelstream", "-r", "--system", "archer2",
                     "--cache-stats"])
    assert rc == 1
    assert "--cache-stats requires --result-store" in capsys.readouterr().err
