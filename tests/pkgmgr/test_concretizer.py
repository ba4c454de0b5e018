"""Concretizer tests: pinning, virtuals, externals, conflicts, idempotence."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.pkgmgr.concretizer import ConcretizationError, Concretizer, concretize
from repro.pkgmgr.compilers import Compiler, CompilerRegistry
from repro.pkgmgr.environment import Environment, ExternalPackage
from repro.pkgmgr.spec import Spec
from repro.pkgmgr.version import Version
from repro.systems.registry import system_environment


@pytest.fixture
def generic_env():
    return Environment.basic("testsys")


class TestBasics:
    def test_concrete_output_is_concrete(self, generic_env):
        s = concretize("babelstream", env=generic_env)
        assert s.concrete
        assert s.version == Version("4.0")  # preferred, not newest

    def test_anonymous_spec_rejected(self, generic_env):
        with pytest.raises(ConcretizationError):
            concretize("%gcc", env=generic_env)

    def test_unknown_package_rejected(self, generic_env):
        with pytest.raises(ConcretizationError, match="unknown package"):
            concretize("no-such-package", env=generic_env)

    def test_version_constraint_respected(self, generic_env):
        s = concretize("babelstream@5.0", env=generic_env)
        assert s.version == Version("5.0")

    def test_unsatisfiable_version_raises(self, generic_env):
        with pytest.raises(ConcretizationError, match="no declared version"):
            concretize("babelstream@99.0", env=generic_env)

    def test_default_variants_applied(self, generic_env):
        s = concretize("hpgmg", env=generic_env)
        assert s.variants["fv"] is True
        assert s.variants["fe"] is False

    def test_unknown_variant_rejected(self, generic_env):
        with pytest.raises(ConcretizationError, match="no variant"):
            concretize("hpgmg +turbo", env=generic_env)

    def test_arch_facts_injected(self, generic_env):
        s = concretize("babelstream", env=generic_env)
        assert s.variants["target"] == "x86_64"
        assert s.variants["device"] == "cpu"

    def test_compiler_defaults_to_system_default(self, generic_env):
        s = concretize("babelstream", env=generic_env)
        assert s.compiler.name == "gcc"

    def test_compiler_propagates_to_deps(self, generic_env):
        s = concretize("hpgmg%gcc", env=generic_env)
        for node in s.traverse():
            assert node.compiler.name == "gcc"

    def test_missing_compiler_raises(self, generic_env):
        with pytest.raises(Exception, match="no compiler"):
            concretize("babelstream%cce", env=generic_env)

    def test_recorded_in_lockfile(self, generic_env):
        s = concretize("babelstream", env=generic_env)
        assert s.dag_hash() in generic_env.lockfile


class TestDependencies:
    def test_build_dep_attached(self, generic_env):
        s = concretize("babelstream", env=generic_env)
        assert "cmake" in s

    def test_conditional_dep_included_when_variant_on(self, generic_env):
        s = concretize("babelstream +kokkos", env=generic_env)
        assert "kokkos" in s

    def test_conditional_dep_excluded_when_off(self, generic_env):
        s = concretize("babelstream", env=generic_env)
        assert "kokkos" not in s

    def test_transitive_deps(self, generic_env):
        # kokkos backend=cuda pulls cuda transitively (on a gpu env)
        env = Environment.basic("gpusys")
        env.arch = {"target": "volta", "device": "gpu", "vendor": "nvidia"}
        s = concretize("babelstream +kokkos ^kokkos backend=cuda", env=env)
        assert "cuda" in s

    def test_explicit_dep_version_honoured(self, generic_env):
        s = concretize("babelstream ^cmake@3.20.2", env=generic_env)
        assert s["cmake"].version == Version("3.20.2")

    def test_dep_version_range_from_recipe(self, generic_env):
        s = concretize("babelstream", env=generic_env)
        assert s["cmake"].version >= Version("3.13")


class TestVirtuals:
    def test_mpi_resolved_to_provider(self, generic_env):
        s = concretize("hpgmg", env=generic_env)
        providers = {"openmpi", "mvapich2", "cray-mpich", "intel-oneapi-mpi", "mpich"}
        assert providers & {n.name for n in s.traverse()}

    def test_environment_preference_wins(self):
        env = Environment.basic("prefsys")
        env.preferences["mpi"] = "mvapich2@2.3.6"
        s = concretize("hpgmg", env=env)
        assert "mvapich2" in s
        assert s["mvapich2"].version == Version("2.3.6")

    def test_explicit_provider_overrides_preference(self):
        env = Environment.basic("prefsys")
        env.preferences["mpi"] = "mvapich2"
        s = concretize("hpgmg ^openmpi", env=env)
        assert "openmpi" in s
        assert "mvapich2" not in s

    def test_bad_preference_raises(self):
        env = Environment.basic("badpref")
        env.preferences["mpi"] = "cmake"  # cmake does not provide mpi
        with pytest.raises(ConcretizationError, match="does not provide"):
            concretize("hpgmg", env=env)


class TestExternals:
    def test_external_version_pinned(self):
        env = Environment.basic("extsys")
        env.add_external(ExternalPackage("cmake@3.20.2"))
        s = concretize("babelstream", env=env)
        assert s["cmake"].version == Version("3.20.2")
        assert s["cmake"].external

    def test_external_provider_preferred_over_build(self):
        env = Environment.basic("extsys")
        env.add_external(ExternalPackage("mvapich2@2.3.6"))
        s = concretize("hpgmg", env=env)
        assert "mvapich2" in s


class TestConflicts:
    def test_tbb_conflict_on_aarch64(self):
        env = system_environment("isambard")
        with pytest.raises(ConcretizationError, match="conflict"):
            concretize("babelstream +tbb", env=env)

    def test_cuda_conflict_on_cpu(self):
        env = system_environment("csd3")
        with pytest.raises(ConcretizationError, match="conflict"):
            concretize("babelstream +cuda", env=env)

    def test_cuda_allowed_on_volta(self):
        env = system_environment("isambard-macs:volta")
        s = concretize("babelstream +cuda %gcc@9.2.0", env=env)
        assert s.variants["cuda"] is True

    def test_mkl_hpcg_rejected_on_amd(self):
        env = system_environment("archer2")
        with pytest.raises(ConcretizationError, match="conflict"):
            concretize("hpcg implementation=intel-avx2", env=env)

    def test_mkl_hpcg_allowed_on_intel(self):
        env = system_environment("csd3")
        s = concretize("hpcg implementation=intel-avx2", env=env)
        assert "intel-oneapi-mkl" in s

    def test_std_ranges_needs_modern_gcc(self):
        env = system_environment("isambard-macs")
        with pytest.raises(ConcretizationError, match="conflict"):
            concretize("babelstream +std-ranges %gcc@9.2.0", env=env)
        ok = concretize("babelstream +std-ranges %gcc@12.1.0", env=env)
        assert ok.compiler.version == Version("12.1.0")


class TestTable3:
    """The paper's Table 3: concretized hpgmg%gcc build deps per system."""

    EXPECTED = {
        "archer2": ("11.2.0", "3.10.12", "cray-mpich", "8.1.23"),
        "cosma8": ("11.1.0", "2.7.15", "mvapich2", "2.3.6"),
        "csd3": ("11.2.0", "3.8.2", "openmpi", "4.0.4"),
        "isambard-macs": ("9.2.0", "3.7.5", "openmpi", "4.0.3"),
    }

    @pytest.mark.parametrize("system", sorted(EXPECTED))
    def test_row(self, system):
        gcc, python, mpi_name, mpi_ver = self.EXPECTED[system]
        env = system_environment(system)
        s = concretize("hpgmg%gcc", env=env)
        assert str(s.compiler.version) == gcc
        assert str(s["python"].version) == python
        assert mpi_name in s
        assert str(s[mpi_name].version) == mpi_ver

    #: install order of each row's DAG, pinned when ``build_order`` stopped
    #: carrying every Spec on its graph nodes
    BUILD_ORDER = {
        "archer2": ["cray-mpich", "python", "hpgmg"],
        "cosma8": ["mvapich2", "python", "hpgmg"],
        "csd3": ["openmpi", "python", "hpgmg"],
        "isambard-macs": ["openmpi", "python", "hpgmg"],
    }

    @pytest.mark.parametrize("system", sorted(EXPECTED))
    def test_build_order(self, system):
        conc = Concretizer(env=system_environment(system))
        s = conc.concretize("hpgmg%gcc")
        order = conc.build_order(s)
        assert [n.name for n in order] == self.BUILD_ORDER[system]
        assert order[-1] is s


class TestDeterminismAndIdempotence:
    def test_same_input_same_hash(self):
        a = concretize("hpgmg%gcc", env=system_environment("archer2"))
        b = concretize("hpgmg%gcc", env=system_environment("archer2"))
        assert a.dag_hash() == b.dag_hash()

    def test_concretizing_concrete_is_identity(self, generic_env):
        once = concretize("babelstream +omp", env=generic_env)
        twice = concretize(once, env=generic_env)
        assert once == twice

    def test_build_order_deps_first(self, generic_env):
        conc = Concretizer(env=generic_env)
        s = conc.concretize("hpgmg")
        order = [n.name for n in conc.build_order(s)]
        assert order.index("hpgmg") == len(order) - 1
        assert order.index("python") < order.index("hpgmg")

    variant_sets = st.lists(
        st.sampled_from(["+omp", "~omp", "+kokkos", "+std-data"]),
        max_size=2,
        unique=True,
    )

    @given(variant_sets)
    @settings(max_examples=20, deadline=None)
    def test_concretization_satisfies_input(self, variants):
        text = "babelstream " + " ".join(variants)
        try:
            abstract = Spec(text)
        except Exception:
            return  # contradictory variant text, parser rejects
        env = Environment.basic("propsys")
        try:
            s = concretize(abstract, env=env)
        except ConcretizationError:
            return
        assert s.satisfies(abstract)
        assert s.concrete
