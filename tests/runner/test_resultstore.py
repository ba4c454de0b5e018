"""Content-addressed result store: keys, invalidation, replay, journal.

The invalidation matrix is the contract: a warm campaign re-executes a
case iff one of the composite key's components changed (spec problem,
system fingerprint, benchmark source, run config) -- and nothing else.
Key stability across process restarts and dict orderings is
hypothesis-tested; torn and deleted entries are tolerated, never fatal.
"""

import ast
import gc
import importlib
import importlib.util
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
    _class_source,
    benchmark_source_hash,
    case_fingerprint,
    content_address,
)
from repro.runner.results import CaseResultStore, _pack_line
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


def _import_file(path, name, monkeypatch):
    """Import the file at *path* as module *name* for one test."""
    spec = importlib.util.spec_from_file_location(name, str(path))
    module = importlib.util.module_from_spec(spec)
    # the source finder resolves a class's file through sys.modules
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _load_module(path, name, text, monkeypatch):
    """Write *text* to *path* and import it as module *name*."""
    path.write_text(text, encoding="utf-8")
    return _import_file(path, name, monkeypatch)


def test_base_class_source_read_once(tmp_path, monkeypatch):
    """N leaf classes cost one parse of each source file in their MROs,
    not one per class; the leaves' data attributes still count."""
    from repro.runner import resilience

    leaves = 8
    text = "from repro.runner.benchmark import RegressionTest\n\n\n"
    text += "class Base(RegressionTest):\n    tag = 'base'\n"
    text += "".join(f"\n\nclass Leaf{i}(Base):\n    n = {i}\n"
                    for i in range(leaves))
    module = _load_module(tmp_path / "leaves.py", "_leaves_fixture", text,
                          monkeypatch)
    monkeypatch.setattr(resilience, "_CLASS_STARTS", {})
    monkeypatch.setattr(resilience, "_SOURCE_TEXT_CACHE",
                        weakref.WeakKeyDictionary())
    parsed = []
    real_parse = ast.parse
    monkeypatch.setattr(
        ast, "parse",
        lambda source, *a, **k: (parsed.append(source),
                                 real_parse(source, *a, **k))[1],
    )
    classes = [getattr(module, f"Leaf{i}") for i in range(leaves)]
    assert len({benchmark_source_hash(leaf) for leaf in classes}) == leaves
    files = {inspect.getsourcefile(klass) for klass in classes[0].__mro__
             if klass is not object}
    assert len(parsed) == len(files) == len(set(parsed))
    assert "class Leaf7(Base):\n    n = 7\n" in _class_source(classes[7])


#: source-finder fixtures: every shape ``inspect`` finds by its own rules
FINDER_FIXTURE = """\
def deco(cls):
    return cls


def make():
    class Inner:
        x = 1
    return Inner


@deco
@deco
class Decorated:
    y = 2


class Twin:
    first = True


class Twin:  # noqa: F811 -- a second definition under one name
    first = False


class Outer:
    class Nested:
        pass

    def method(self):
        class InMethod:
            pass
        return InMethod


async def coro():
    class InCoro:
        pass
    return InCoro


if True:
    class InIf:
        pass
try:
    class InTry:
        pass
except Exception:
    pass
match 1:
    case 1:
        class InMatch:
            pass
"""


def _finder_fixture_classes(tmp_path, monkeypatch):
    name = "_finder_fixture"
    module = _load_module(tmp_path / "finder.py", name, FINDER_FIXTURE,
                          monkeypatch)
    renamed = module.make()
    renamed.__qualname__ = "Renamed"
    try:
        module.coro().send(None)
    except StopIteration as stop:
        in_coro = stop.value
    in_module = {"__name__": name}
    exec("class Execd:\n    pass\nclass Twin:\n    pass\n", in_module)
    elsewhere = {"__name__": "_no_such_module"}
    exec("class Lost:\n    pass\n", elsewhere)
    return [
        module.make(), module.Decorated, module.Twin, module.Outer,
        module.Outer.Nested, module.Outer().method(), in_coro,
        module.InIf, module.InTry, module.InMatch, renamed,
        in_module["Execd"], in_module["Twin"], elsewhere["Lost"],
    ]


def _repro_classes(monkeypatch):
    """Every class defined in ``repro.*`` (nested ones included) and in
    the benchmark's probe module."""
    import pkgutil

    import repro

    modules = [importlib.import_module(info.name) for info in
               pkgutil.walk_packages(repro.__path__, "repro.")]
    probes = _import_file(
        os.path.join(os.path.dirname(__file__), "..", "..", "perfbench",
                     "probes.py"),
        "_perfbench_probes", monkeypatch)
    found = []
    pending = [value for mod in modules + [probes]
               for value in vars(mod).values()
               if isinstance(value, type) and value.__module__ == mod.__name__]
    pending += [probes.fleet_probe(2, 0), probes.inc_class(0, 0.0)]
    while pending:
        klass = pending.pop()
        if klass not in found:
            found.append(klass)
            pending += [value for value in vars(klass).values()
                        if isinstance(value, type)
                        and value.__module__ == klass.__module__]
    return found


@pytest.mark.skipif(
    not (3, 10) <= sys.version_info[:2] <= (3, 12),
    reason="inspect finds classes by an AST walk on Python 3.10-3.12 only",
)
def test_source_finder_matches_inspect(tmp_path, monkeypatch):
    """The one-walk finder returns ``inspect.getsource``'s text, or no
    text where it raises, for every class it will meet."""
    from repro.runner.resilience import _find_class_source

    classes = _finder_fixture_classes(tmp_path, monkeypatch)
    classes += _repro_classes(monkeypatch)
    assert len(classes) > 200
    found = []
    for klass in classes:
        try:
            want = inspect.getsource(klass)
        except (OSError, TypeError):
            want = None
        assert _find_class_source(klass) == want, klass
        if want is not None:
            found.append(klass.__qualname__)
    assert len(found) > 200
    assert "fleet_probe.<locals>.FleetProbe" in found


def test_source_finder_rereads_a_rewritten_file(tmp_path, monkeypatch):
    path = tmp_path / "edited.py"
    first = _load_module(path, "_edited_fixture",
                         "class Probe:\n    rev = 'r0'\n", monkeypatch)
    assert _class_source(first.Probe) == "class Probe:\n    rev = 'r0'\n"
    # the class moves down: a stale line index would cut the wrong text
    second = _load_module(path, "_edited_fixture",
                          "# edited\n\nclass Probe:\n    rev = 'r1-edited'\n",
                          monkeypatch)
    assert (_class_source(second.Probe)
            == "class Probe:\n    rev = 'r1-edited'\n")
    assert (benchmark_source_hash(first.Probe)
            != benchmark_source_hash(second.Probe))


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
from repro.runner.results import CaseResultStore, _pack_line
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
# store durability: corruption, older layouts, put order
# --------------------------------------------------------------------------

def _pack_lines(store_dir):
    with open(os.path.join(store_dir, "pack.jsonl"), encoding="utf-8") as fh:
        return fh.read().splitlines()


def _write_pack_lines(store_dir, lines):
    with open(os.path.join(store_dir, "pack.jsonl"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_torn_entry_is_a_miss_not_a_crash(tmp_path):
    store_dir = str(tmp_path / "store")
    run(tmp_path, "cold", store_dir)
    lines = _pack_lines(store_dir)
    # one entry torn mid-write; one rotted inside a value, which is
    # still valid JSON that only the CRC can tell
    lines[0] = lines[0][: lines[0].index('"entry":') + 40]
    assert "--ntasks=1" in lines[1]
    lines[1] = lines[1].replace("--ntasks=1", "--ntasks=7", 1)
    _write_pack_lines(store_dir, lines)
    _, warm = run(tmp_path, "warm", store_dir)
    assert warm.success
    assert len(warm.replayed) == 4
    assert warm.result_cache["corrupted"] == 2
    assert warm.result_cache["misses"] == 2
    # the re-executed cases rewrote their entries: next run is all-warm
    _, third = run(tmp_path, "third", store_dir)
    assert len(third.replayed) == 6


def _write_legacy_layout(store_dir):
    """Rewrite a store's pack in the byte layout of an older store
    format: each entry sealed with a ``cs`` CRC over the ``sort_keys``
    encoding, and ``{"key", "entry"}`` lines encoded with compact
    separators."""
    pack = []
    for line in _pack_lines(store_dir):
        doc = json.loads(line)
        entry = doc["entry"]
        entry.pop("cs")
        canonical = json.dumps(entry, sort_keys=True).encode("utf-8")
        sealed = {"cs": f"{zlib.crc32(canonical) & 0xFFFFFFFF:08x}",
                  **entry}
        pack.append(json.dumps({"key": doc["key"], "entry": sealed},
                               separators=(",", ":")))
    _write_pack_lines(store_dir, pack)
    return pack


def test_store_in_previous_layout_still_hits(tmp_path):
    """A pack written in an older line layout is served whole."""
    store_dir = str(tmp_path / "store")
    run(tmp_path, "cold", store_dir)
    lines = _write_legacy_layout(store_dir)
    legacy = CaseResultStore(store_dir)
    assert len(legacy) == 6  # the legacy pack lines verify
    _, warm = run(tmp_path, "warm", store_dir)
    assert warm.success
    assert len(warm.replayed) == 6
    assert warm.result_cache["hits"] == 6
    assert warm.result_cache["corrupted"] == 0
    assert warm.result_cache["puts"] == 0
    assert _pack_lines(store_dir) == lines
    assert (read_tree(str(tmp_path / "perflogs-cold"))
            == read_tree(str(tmp_path / "perflogs-warm")))


def test_two_copy_layout_is_served_from_its_pack(tmp_path):
    """Stores that also kept per-key ``objects/`` files and an
    ``index.json`` hit from ``pack.jsonl`` alone; the extra files are
    neither read nor deleted, and repro-fsck still sees a store."""
    from repro.runner.fsck import collect_targets, fsck_store

    store_dir = str(tmp_path / "store")
    run(tmp_path, "cold", store_dir)
    objects = os.path.join(store_dir, "objects")
    os.makedirs(objects)
    extra = {
        os.path.join(objects, "0" * 64 + ".json"): "{ not an entry",
        os.path.join(store_dir, "index.json"): "{ not an index",
    }
    for path, body in extra.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body)
    _, warm = run(tmp_path, "warm", store_dir)
    assert warm.result_cache["hits"] == 6
    assert warm.result_cache["corrupted"] == 0
    assert warm.result_cache["invalidated"] == 0
    for path, body in extra.items():
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == body
    assert collect_targets([str(tmp_path)]).count(("store", store_dir)) == 1
    report = fsck_store(store_dir)
    assert (report["checked"], report["invalid"]) == (6, 0)


def test_fsck_repair_splices_intact_lines(tmp_path):
    """Repair writes each intact line as put does: sealed lines verbatim,
    an older-layout line re-sealed; torn and rotten lines drop."""
    from repro.obs.jsonl import seal_line
    from repro.runner.fsck import fsck_store

    store_dir = str(tmp_path / "store")
    run(tmp_path, "cold", store_dir)
    put_lines = _pack_lines(store_dir)
    legacy = _write_legacy_layout(store_dir)
    lines = [legacy[0]] + put_lines[1:]
    lines[1] = lines[1][: lines[1].index('"entry":') + 40]
    lines[2] = lines[2].replace("--ntasks=1", "--ntasks=7", 1)
    _write_pack_lines(store_dir, lines)
    report = fsck_store(store_dir, repair=True)
    assert [report[k] for k in ("checked", "invalid", "healed")] == [6, 2, 2]
    repaired = _pack_lines(store_dir)
    assert repaired == [put_lines[0]] + put_lines[3:]
    for line in repaired:  # the bytes a decode and re-seal would write
        doc = json.loads(line)
        doc["entry"].pop("cs")
        assert line + "\n" == _pack_line(doc["key"], seal_line(doc["entry"]))


def test_store_directory_holds_only_the_pack(tmp_path):
    store_dir = str(tmp_path / "store")
    run(tmp_path, "cold", store_dir)
    assert os.listdir(store_dir) == ["pack.jsonl"]
    assert len(_pack_lines(store_dir)) == 6


def test_identity_index_follows_put_order(tmp_path):
    """K1, K2, K1 again for one case identity: the latest key is K1 --
    rebuilt from the pack, after compaction, and after a reopen."""
    root = str(tmp_path / "store")
    k1, k2, k3 = "1" * 64, "2" * 64, "3" * 64

    def entry(key):
        return {"version": 1, "key": key, "fingerprint": "fp"}

    store = CaseResultStore(root)
    for key in (k1, k2, k1):
        store.put(key, entry(key))
    assert store._index == {"fp": k1}
    rebuilt = CaseResultStore(root)
    assert len(rebuilt) == 2
    assert rebuilt._index == {"fp": k1}
    with rebuilt._lock:
        rebuilt._compact_locked()
    assert rebuilt._index == {"fp": k1}
    assert len(_pack_lines(root)) == 2
    reopened = CaseResultStore(root)
    assert len(reopened) == 2
    assert reopened._index == {"fp": k1}
    assert reopened.lookup(k3, fingerprint="fp") is None
    assert reopened.stats.invalidated == 1
    assert reopened.lookup(k2, fingerprint="fp") is not None


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
# the pack held as text: CRC-checked lines, one decode per hit
# --------------------------------------------------------------------------

#: one pack line as the previous store release wrote it, for the entry
#: below: the sealed layout readers must keep serving byte for byte
PARENT_PACK_LINE = (
    '{"key":"' + "0" * 64 + '","entry":{"cs":"e164abe6","build_log": '
    '["{brace", "quote \\" and \\\\ slash"], "case": "Probe %size=2 '
    '@sys:part+gnu", "concretize_cache_hit": null, "fingerprint": '
    '"0123456789abcdef", "job_script": "#!/bin/bash\\n", "key": "'
    + "k" * 64 + '", "perflog": {"lines": ["a|b\\n"], "relpath": '
    '"sys/part/Probe.log"}, "record": {"fingerprint": "0123456789abcdef", '
    '"status": "passed"}, "run_command": "srun -n 1 ./probe", "run_id": '
    '"run-1", "spec": null, "stdout": "say \\"hi\\" {x}\\n\\u00e9\\t\\\\", '
    '"trace": {"count": 1, "end_time": 1.5, "first_id": 3, "lines": '
    '["{\\"cs\\":\\"00000000\\",\\"id\\":3}"]}, "version": 1}}\n'
)


def _parent_entry():
    return {
        "version": 1, "key": "k" * 64, "fingerprint": "0123456789abcdef",
        "case": "Probe %size=2 @sys:part+gnu",
        "run_id": "run-1",
        "record": {"fingerprint": "0123456789abcdef", "status": "passed"},
        "stdout": 'say "hi" {x}\né\t\\',
        "run_command": "srun -n 1 ./probe",
        "job_script": "#!/bin/bash\n",
        "build_log": ["{brace", 'quote " and \\ slash'],
        "concretize_cache_hit": None,
        "spec": None,
        "perflog": {"relpath": "sys/part/Probe.log", "lines": ["a|b\n"]},
        "trace": {"first_id": 3, "count": 1, "end_time": 1.5,
                  "lines": ['{"cs":"00000000","id":3}']},
    }


def test_pack_written_by_the_previous_release_is_served(tmp_path):
    root = str(tmp_path / "store")
    os.makedirs(root)
    with open(os.path.join(root, "pack.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(PARENT_PACK_LINE)
    store = CaseResultStore(root)
    assert len(store) == 1
    assert store._index == {"0123456789abcdef": "0" * 64}
    assert store.lookup("0" * 64, need_perflog=True,
                        need_spans=True) == _parent_entry()
    assert (store.stats.hits, store.stats.corrupted) == (1, 0)
    # and put still writes those exact bytes
    fresh = CaseResultStore(str(tmp_path / "fresh"))
    fresh.put("0" * 64, _parent_entry())
    with open(os.path.join(fresh.root, "pack.jsonl"), encoding="utf-8") as fh:
        assert fh.read() == PARENT_PACK_LINE


def test_warm_run_keeps_text_and_frees_replayed_entries(tmp_path):
    from repro.obs.trace import ReplayedSpans

    root = str(tmp_path / "store")
    run(tmp_path, "cold", root, trace=str(tmp_path / "cold.jsonl"))
    store = CaseResultStore(root)
    _, warm = run(tmp_path, "warm", store,
                  trace=str(tmp_path / "warm.jsonl"))
    assert len(warm.replayed) == 6
    assert store.stats.hits == 6 and store.stats.corrupted == 0
    assert all(type(text) is str for text in store._pack.values())
    for result in warm.replayed:
        assert result._replay is None
        assert not isinstance(result._trace, ReplayedSpans)
        entry_like = [value for value in vars(result).values()
                      if isinstance(value, dict) and "record" in value]
        assert entry_like == []


def test_load_keeps_the_hit_counts_of_mixed_packs(tmp_path):
    """An older-layout line, a damaged line before a good one of the same
    key and the reverse order: each key still hits, only a key with no
    intact line counts corrupted, and misses still classify."""
    root = str(tmp_path / "store")
    keys = [str(i) * 64 for i in range(1, 7)]
    writer = CaseResultStore(root)
    for key, fingerprint in zip(keys[:4], "abcd"):
        writer.put(key, {"version": 1, "key": key, "fingerprint": fingerprint,
                         "stdout": "x"})
    good = _pack_lines(root)
    rotten = [line.replace('"stdout": "x"', '"stdout": "y"') for line in good]
    older = json.loads(good[0])
    older["entry"].pop("cs")
    canonical = json.dumps(older["entry"], sort_keys=True).encode("utf-8")
    older["entry"] = {"cs": f"{zlib.crc32(canonical) & 0xFFFFFFFF:08x}",
                      **older["entry"]}
    lines = [
        json.dumps(older, separators=(",", ":")),  # key 1: older layout
        rotten[1], good[1],                         # key 2: damaged first
        good[2], rotten[2],                         # key 3: damaged last
        rotten[3],                                  # key 4: damaged only
    ]
    _write_pack_lines(root, lines)
    store = CaseResultStore(root)
    assert len(store) == 3
    for key in keys[:3]:
        entry = store.lookup(key)
        assert entry is not None and entry["stdout"] == "x"
    assert store.lookup(keys[3], fingerprint="d") is None   # corrupted
    assert store.lookup(keys[4], fingerprint="a") is None   # invalidated
    assert store.lookup(keys[5], fingerprint="z") is None   # never seen
    assert store.stats.as_dict() == {
        "hits": 3, "misses": 3, "invalidated": 1, "corrupted": 1,
        "puts": 0, "hit_rate": 0.5,
    }
    # the older-layout line is held re-sealed, as put would write it,
    # and loading rewrote nothing on disk
    assert _pack_line(keys[0], store._pack[keys[0]]) == good[0] + "\n"
    assert _pack_lines(root) == lines


_json_text = st.text(max_size=40)
ABSENT = object()


@settings(max_examples=200, deadline=None)
@given(
    stdout=_json_text, case=_json_text,
    build_log=st.lists(_json_text, max_size=4),
    fingerprint=st.one_of(st.none(), _json_text, st.integers(),
                          st.just(ABSENT)),
)
def test_fingerprint_extraction_agrees_with_a_decode(stdout, case, build_log,
                                                     fingerprint):
    from repro.obs.jsonl import seal_line
    from repro.runner.results import _entry_fingerprint

    entry = {"version": 1, "case": case, "stdout": stdout,
             "build_log": build_log,
             "record": {"fingerprint": "nested", "case": case}}
    if fingerprint is not ABSENT:
        entry["fingerprint"] = fingerprint
    sealed = seal_line(entry)
    assert _entry_fingerprint(sealed) == json.loads(sealed).get("fingerprint")


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
