"""Coverage for hooks, naming, registry edges, and detection ambiguity."""

import importlib.util
import os

import pytest

from repro.runner.benchmark import (
    BenchmarkError,
    RegressionTest,
    SpackTest,
    run_after,
    run_before,
)
from repro.runner.config import (
    SiteConfig,
    SystemConfig,
    default_site_config,
)
from repro.runner.executor import Executor
from repro.runner.fields import parameter
from repro.runner.pipeline import TestCase as RunnerCase, run_case
from repro.runner.resilience import benchmark_source_hash
from repro.runner import sanity as sn


class HookedTest(RegressionTest):
    def __init__(self, **p):
        super().__init__(**p)
        self.calls = []

    @run_after("setup")
    def after_setup(self):
        self.calls.append("after_setup")

    @run_before("run")
    def before_run(self):
        self.calls.append("before_run")

    @run_after("run")
    def after_run(self):
        self.calls.append("after_run")

    def program(self, ctx):
        return "ok 1\n", 1.0

    def extract_performance(self, stdout):
        return {"v": (sn.extractsingle(r"(\d)", stdout, 1, float), "u")}


class TestHooks:
    def run_one(self, test):
        site = default_site_config()
        system, part = site.get("csd3")
        return run_case(RunnerCase(test=test, system=system, partition=part))

    def test_hooks_fire_in_stage_order(self):
        test = HookedTest()
        result = self.run_one(test)
        assert result.passed
        assert test.calls == ["after_setup", "before_run", "after_run"]

    def test_inherited_hooks_fire(self):
        class Child(HookedTest):
            @run_before("run")
            def child_before_run(self):
                self.calls.append("child_before_run")

        test = Child()
        self.run_one(test)
        assert "before_run" in test.calls
        assert "child_before_run" in test.calls
        # parent hooks run before child hooks (MRO order, reversed)
        assert test.calls.index("before_run") < test.calls.index(
            "child_before_run"
        )

    def test_overridden_hook_runs_once(self):
        class Override(HookedTest):
            @run_before("run")
            def before_run(self):
                self.calls.append("override_before_run")

        test = Override()
        assert test.hooks("before", "run") == [test.before_run]
        self.run_one(test)
        assert test.calls == [
            "after_setup", "override_before_run", "after_run",
        ]

    def test_undecorated_override_stays_a_hook(self):
        class Plain(HookedTest):
            def before_run(self):
                self.calls.append("plain_before_run")

        test = Plain()
        self.run_one(test)
        assert test.calls == ["after_setup", "plain_before_run", "after_run"]

    def test_hook_order_base_mixin_subclass(self):
        class Mixin:
            @run_before("run")
            def mixin_hook(self):
                pass

        class Mid(HookedTest, Mixin):
            @run_before("run")
            def mid_hook(self):
                pass

        class Leaf(Mid):
            @run_before("run")
            def leaf_hook(self):
                pass

            @run_before("run")
            def before_run(self):
                pass

        test = Leaf()
        # reversed MRO: Mixin, HookedTest, Mid, Leaf; the override keeps
        # HookedTest's slot
        names = [h.__name__ for h in test.hooks("before", "run")]
        assert names == ["mixin_hook", "before_run", "mid_hook", "leaf_hook"]
        assert test.hooks("before", "run")[1] == test.before_run
        assert [h.__name__ for h in test.hooks("after", "setup")] == [
            "after_setup"
        ]
        assert test.hooks("before", "build") == []

    def test_each_class_builds_its_own_hook_table(self):
        path = os.path.join(os.path.dirname(__file__), "..", "..",
                            "perfbench", "probes.py")
        spec = importlib.util.spec_from_file_location("_hook_probes", path)
        probes = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(probes)
        first, second = probes.inc_class(0, 0.0), probes.inc_class(0, 0.0)
        assert first(point=0).hooks("before", "run") == []
        assert "__rfm_hooks__" in vars(first)
        assert "__rfm_hooks__" not in vars(second)
        # the table is not class data: the result store's key is unchanged
        assert benchmark_source_hash(first) == benchmark_source_hash(second)

        class Sub(first):
            @run_before("run")
            def sub_hook(self):
                pass

        test = Sub(point=0)
        assert test.hooks("before", "run") == [test.sub_hook]
        assert first(point=0).hooks("before", "run") == []

    def test_after_run_not_called_on_failure(self):
        class Crashy(HookedTest):
            def program(self, ctx):
                raise RuntimeError("boom")

        test = Crashy()
        result = self.run_one(test)
        assert not result.passed
        assert "after_run" not in test.calls


class TestNaming:
    def test_parameterless_name_is_class_name(self):
        assert HookedTest().name == "HookedTest"

    def test_parameter_values_in_name(self):
        class P(RegressionTest):
            model = parameter(["std-data", "omp"])

            def program(self, ctx):
                return "x", 1.0

        names = {t.name for t in P.variants()}
        assert names == {"P_std_data", "P_omp"}

    def test_variants_with_fixed_override(self):
        class P(RegressionTest):
            model = parameter(["a", "b"])

            def program(self, ctx):
                return "x", 1.0

        variants = P.variants(model="a")
        assert all(t.model == "a" for t in variants)


class TestSpackTestEdges:
    def test_missing_spec_is_benchmark_error(self):
        class NoSpec(SpackTest):
            def program(self, ctx):
                return "x", 1.0

        with pytest.raises(BenchmarkError, match="without a spack_spec"):
            NoSpec().effective_spec()

    def test_base_program_is_abstract(self):
        with pytest.raises(NotImplementedError):
            RegressionTest().program(None)


class TestDetectionAmbiguity:
    def test_overlapping_patterns_detect_none(self):
        """The paper's appendix: 'due to ambiguity of login node names ...
        explicitly naming the system ... helps avoid some errors'."""
        site = default_site_config()
        site.add(
            SystemConfig(
                name="impostor",
                description="clashes with archer2 login names",
                partitions=dict(
                    site.get("archer2")[0].partitions
                ),
                hostname_patterns=("ln0*",),
            )
        )
        assert site.detect("ln01") is None  # ambiguous -> refuse to guess

    def test_empty_site(self):
        site = SiteConfig()
        assert site.detect("anything") is None


class TestExecutorEdges:
    def test_unknown_platform_raises_before_running(self):
        ex = Executor()
        with pytest.raises(Exception, match="unknown system"):
            ex.expand_cases([HookedTest], "perlmutter")

    def test_report_of_empty_case_list(self):
        ex = Executor()
        report = ex.run_cases([])
        assert report.success
        assert "Ran 0 case(s)" in report.summary()
