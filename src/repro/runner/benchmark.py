"""The benchmark base classes: :class:`RegressionTest` and :class:`SpackTest`.

A benchmark is a Python class, exactly as in ReFrame: it declares *what*
to build (``spack_spec``), *what* to run (``executable``,
``executable_opts``), the parallel layout (``num_tasks`` and friends), how
to check correctness (:meth:`check_sanity`) and which Figures of Merit to
extract (:meth:`extract_performance`).  Everything system-specific is
injected by the pipeline at setup time (``current_system`` etc.), so the
same benchmark runs unmodified on every configured platform -- the
portability property Section 2.3 of the paper builds on.

Because the platforms here are simulated, a benchmark also provides
:meth:`program`: the *application itself* -- real (numpy) kernels whose
timing comes from the machine model -- returning the stdout that the
sanity/performance regexes then parse, exactly as they would parse a real
program's output.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.machine.progmodel import ProgrammingModelDB, default_model_db
from repro.runner.config import EnvironConfig, PartitionConfig, SystemConfig
from repro.runner.fields import parameter_space, variable
from repro.runner.sanity import SanityError, assert_found
from repro.systems.hardware import NodeSpec

__all__ = [
    "BenchmarkError",
    "ProgramContext",
    "RegressionTest",
    "SpackTest",
    "TestRegistry",
    "rfm_test",
    "run_before",
    "run_after",
]


class BenchmarkError(Exception):
    """Raised for malformed benchmark definitions."""


@dataclass
class ProgramContext:
    """Everything the simulated application sees when it 'executes'."""

    system: str
    partition: str
    environ: str
    node: NodeSpec
    num_tasks: int
    num_tasks_per_node: Optional[int]
    num_cpus_per_task: int
    compiler: str
    compiler_version: str
    spec: Any = None  # concrete Spec for SpackTests
    model_db: ProgrammingModelDB = field(default_factory=default_model_db)

    @property
    def platform(self) -> str:
        return f"{self.system}:{self.partition}"

    @property
    def num_nodes(self) -> int:
        if self.num_tasks_per_node:
            import math

            return math.ceil(self.num_tasks / self.num_tasks_per_node)
        return 1


def run_before(stage: str):
    """Decorator marking a method as a pre-stage hook (ReFrame-style)."""

    def deco(fn):
        fn._rfm_hook = ("before", stage)
        return fn

    return deco


def run_after(stage: str):
    """Decorator marking a method as a post-stage hook."""

    def deco(fn):
        fn._rfm_hook = ("after", stage)
        return fn

    return deco


class RegressionTest:
    """Base class of all benchmarks."""

    #: short human description
    descr = variable(str, value="")
    #: systems/partitions this test may run on; fnmatch patterns over
    #: 'system:partition' ('*' matches everything)
    valid_systems = variable(list, value=["*"])
    #: programming environments this test may use
    valid_prog_environs = variable(list, value=["default"])
    executable = variable(str, value="")
    executable_opts = variable(list, value=[])
    num_tasks = variable(int, value=1)
    num_tasks_per_node = variable(int, value=None)
    num_cpus_per_task = variable(int, value=1)
    time_limit = variable(float, int, value=3600.0)
    #: free-form labels selectable with --tag
    tags: set = set()
    #: reference FOMs: {'system:partition': {var: (ref, lofrac, hifrac, unit)}}
    reference: Dict[str, Dict[str, Tuple]] = {}
    #: names of tests that must pass on the same platform first (ReFrame
    #: test dependencies); their CaseResults appear in
    #: :attr:`dependency_results` before this test's pipeline runs
    depends_on_tests: Tuple[str, ...] = ()
    #: injected by the executor when depends_on_tests is non-empty
    dependency_results: Dict[str, Any] = {}

    # injected by the pipeline at setup
    current_system: Optional[SystemConfig] = None
    current_partition: Optional[PartitionConfig] = None
    current_environ: Optional[EnvironConfig] = None

    def __init__(self, **params: Any):
        for name, value in params.items():
            self.__dict__[name] = value
        self._param_values = dict(params)

    # -- identity ------------------------------------------------------------
    @classmethod
    def base_name(cls) -> str:
        return cls.__name__

    @classmethod
    def name_for_params(cls, params: Dict[str, Any]) -> str:
        """The instance name a parameter point *would* produce.

        Lets the executor filter variants by name *before* constructing
        any test instance (hot when ``-n``/``-x`` prune a large campaign).
        """
        if not params:
            return cls.base_name()
        suffix = "_".join(
            str(v).replace("-", "_") for _, v in sorted(params.items())
        )
        return f"{cls.base_name()}_{suffix}"

    @property
    def name(self) -> str:
        # params are fixed at construction, so the name is computed once;
        # campaign-scale hot paths (perflog rows, trace tracks, store
        # keys) all read it per case
        cached = self.__dict__.get("_name")
        if cached is None:
            cached = type(self).name_for_params(self._param_values)
            self.__dict__["_name"] = cached
        return cached

    @classmethod
    def variants(cls, **fixed: Any) -> List["RegressionTest"]:
        """One instance per point of the parameter space."""
        out = []
        for point in parameter_space(cls):
            point.update(fixed)
            out.append(cls(**point))
        return out

    # -- hooks ----------------------------------------------------------------
    def hooks(self, when: str, stage: str) -> List[Callable[[], None]]:
        """Bound hooks for one slot, base first; an override replaces the
        base's hook in its slot, decorated or not."""
        cls = type(self)
        # built once per class, in its own __dict__ so a subclass builds
        # its own; a dunder name, which the result store's source hash
        # skips.  Racing threads build equal tables and never mutate one.
        table = cls.__dict__.get("__rfm_hooks__")
        if table is None:
            table, seen = {}, set()
            for klass in reversed(cls.__mro__):
                for attr in vars(klass).values():
                    slot = getattr(attr, "_rfm_hook", None)
                    if slot is not None and attr.__name__ not in seen:
                        seen.add(attr.__name__)
                        table.setdefault(slot, []).append(attr.__name__)
            cls.__rfm_hooks__ = table
        return [getattr(self, name) for name in table.get((when, stage), ())]

    # -- validity ----------------------------------------------------------------
    def supports_platform(self, system: str, partition: str) -> bool:
        target = f"{system}:{partition}"
        for pat in self.valid_systems:
            if pat == "*" or fnmatch.fnmatch(target, pat) or pat == system:
                return True
        return False

    def supports_environ(self, environ: str) -> bool:
        return any(
            pat == "*" or fnmatch.fnmatch(environ, pat)
            for pat in self.valid_prog_environs
        )

    # -- what subclasses implement --------------------------------------------------
    def program(self, ctx: ProgramContext) -> Tuple[str, float]:
        """Run the (simulated) application: returns (stdout, seconds)."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement program()"
        )

    def check_sanity(self, stdout: str) -> None:
        """Raise :class:`SanityError` unless the output is valid."""
        assert_found(r"\S", stdout, "program produced no output")

    def extract_performance(self, stdout: str) -> Dict[str, Tuple[float, str]]:
        """FOMs from output: name -> (value, unit)."""
        return {}

    # -- reference checking ------------------------------------------------------------
    def check_references(
        self, platform: str, perfvars: Dict[str, Tuple[float, str]]
    ) -> None:
        from repro.runner.sanity import assert_reference

        for pattern, expectations in self.reference.items():
            if not fnmatch.fnmatch(platform, pattern):
                continue
            for var, (ref, lo, hi, _unit) in expectations.items():
                if var not in perfvars:
                    raise SanityError(
                        f"reference declared for missing FOM {var!r}"
                    )
                assert_reference(perfvars[var][0], ref, lo, hi)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class SpackTest(RegressionTest):
    """A benchmark built through the package manager (the framework's way).

    The paper's framework extends ReFrame with "a ReFrame class to
    streamline the integration with the Spack environments provided by
    our framework": selecting the system picks the right Spack
    environment automatically.  Here the pipeline resolves
    ``spack_spec`` against the system's environment and installs it
    (freshly, every run -- Principle 3) before the run stage.
    """

    #: the abstract spec to concretize; -S spack_spec=... overrides
    spack_spec = variable(str, value="")
    #: build the root even if cached (Principle 3); -S build_locally=false
    #: in the paper's invocations maps to keeping this True on the remote
    rebuild = variable(bool, value=True)

    def effective_spec(self) -> str:
        if not self.spack_spec:
            raise BenchmarkError(
                f"{self.name}: SpackTest without a spack_spec"
            )
        return self.spack_spec


class TestRegistry:
    """Global registry of benchmark classes (what ``-c`` selects from)."""

    def __init__(self):
        self._tests: Dict[str, Type[RegressionTest]] = {}

    def register(self, cls: Type[RegressionTest]) -> Type[RegressionTest]:
        if not issubclass(cls, RegressionTest):
            raise BenchmarkError(f"{cls!r} is not a RegressionTest")
        self._tests[cls.base_name()] = cls
        return cls

    def get(self, name: str) -> Type[RegressionTest]:
        if name not in self._tests:
            raise BenchmarkError(
                f"unknown benchmark {name!r}; registered: "
                f"{', '.join(sorted(self._tests))}"
            )
        return self._tests[name]

    def names(self) -> List[str]:
        return sorted(self._tests)

    def select(
        self,
        name_patterns: Optional[List[str]] = None,
        exclude: Optional[List[str]] = None,
        tags: Optional[List[str]] = None,
    ) -> List[Type[RegressionTest]]:
        """Filter registered tests the way reframe -n/-x/--tag does."""
        out = []
        for name in self.names():
            cls = self._tests[name]
            if name_patterns and not any(
                fnmatch.fnmatch(name, p) or p in name for p in name_patterns
            ):
                continue
            if exclude and any(
                fnmatch.fnmatch(name, p) or p in name for p in exclude
            ):
                continue
            if tags and not set(tags) <= set(cls.tags):
                continue
            out.append(cls)
        return out


#: the default global registry used by @rfm_test and the CLI
REGISTRY = TestRegistry()


def rfm_test(cls: Type[RegressionTest]) -> Type[RegressionTest]:
    """Class decorator registering a benchmark (ReFrame's @simple_test)."""
    return REGISTRY.register(cls)
