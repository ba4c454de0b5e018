"""The install and case orders: pinned so they never move.

Install order decides the order of a result's build-log lines, which the
result store keeps, and the order of the installer's records.  The
orders, cycle texts and digest below were recorded from the third-party
graph library that the concretizer and the case planner used before
:func:`~repro.pkgmgr.concretizer.topological_sort` replaced it
(DESIGN.md section 12.4).
"""

import hashlib

import pytest

from repro.pkgmgr.concretizer import (
    ConcretizationError,
    Concretizer,
    DependencyCycle,
    topological_sort,
)
from repro.pkgmgr.spec import Spec
from repro.runner.benchmark import RegressionTest
from repro.runner.cli import load_suite
from repro.runner.config import default_site_config
from repro.runner.executor import Executor
from repro.runner.parallel import order_by_dependencies

#: name -> (nodes, edges, order, order of the reversed graph)
ORDERS = {
    "chain": (
        "abcd", [("a", "b"), ("b", "c"), ("c", "d")],
        "abcd", "dcba",
    ),
    "diamond": (
        "abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
        "abcd", "dbca",
    ),
    "several_roots": (
        ["r1", "r2", "r3", "x", "y"],
        [("r2", "x"), ("r1", "x"), ("r3", "y"), ("x", "y")],
        ["r1", "r2", "r3", "x", "y"], ["y", "r3", "x", "r1", "r2"],
    ),
    "repeated_edge": (
        "abc", [("a", "c"), ("a", "b"), ("a", "c"), ("b", "c")],
        "abc", "cba",
    ),
    # b and d are first named by an edge, and join the node order there
    "node_named_by_edge": (
        "a", [("b", "a"), ("a", "c"), ("d", "b")],
        "dbac", "cabd",
    ),
    "generations": (
        "abcde", [("b", "e"), ("a", "d"), ("a", "e"), ("b", "d"), ("c", "a")],
        "bcade", "deabc",
    ),
    "no_edges": ("zyx", [], "zyx", "zyx"),
    "empty": ("", [], "", ""),
    # the concretizer's form: parent -> child, sorted reversed so that
    # children install first
    "spack_dag": (
        ["hpgmg", "python", "openmpi", "zlib", "hwloc"],
        [("hpgmg", "python"), ("hpgmg", "openmpi"), ("python", "zlib"),
         ("openmpi", "zlib"), ("openmpi", "hwloc"), ("hwloc", "zlib")],
        ["hpgmg", "python", "openmpi", "hwloc", "zlib"],
        ["zlib", "python", "hwloc", "openmpi", "hpgmg"],
    ),
}


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_order_is_the_recorded_one(name):
    nodes, edges, order, reversed_order = ORDERS[name]
    assert topological_sort(nodes, edges) == list(order)
    assert topological_sort(nodes, edges, reverse=True) == list(reversed_order)


def test_cycle_names_its_edges_in_either_direction():
    edges = [("w", "x"), ("x", "y"), ("y", "z"), ("z", "x")]
    for reverse in (False, True):
        with pytest.raises(DependencyCycle) as info:
            topological_sort("wxyz", edges, reverse=reverse)
        assert info.value.cycle == [("x", "y"), ("y", "z"), ("z", "x")]


def test_self_loop_is_a_cycle():
    with pytest.raises(DependencyCycle) as info:
        topological_sort("ab", [("a", "b"), ("b", "b")])
    assert info.value.cycle == [("b", "b")]


def test_concretizer_cycle_text():
    nodes = {name: Spec(name) for name in "wxyz"}
    edges = [("w", "x"), ("x", "y"), ("y", "z"), ("z", "x")]
    with pytest.raises(ConcretizationError) as info:
        Concretizer()._assemble(nodes, edges, "w")
    assert str(info.value) == "dependency cycle: [('x', 'y'), ('y', 'z'), ('z', 'x')]"


class CycA(RegressionTest):
    depends_on_tests = ("CycB",)

    def program(self, ctx):
        return "x", 1.0


class CycB(RegressionTest):
    depends_on_tests = ("CycC",)

    def program(self, ctx):
        return "x", 1.0


class CycC(RegressionTest):
    depends_on_tests = ("CycA",)

    def program(self, ctx):
        return "x", 1.0


def test_case_cycle_text():
    cases = Executor().expand_cases([CycA, CycB, CycC], "csd3")
    with pytest.raises(ValueError) as info:
        order_by_dependencies(cases)
    at = " @csd3:cascadelake+default"
    assert str(info.value) == (
        f"test dependency cycle: CycA{at} -> CycC{at} -> CycB{at} -> CycA{at}"
    )


#: sha256 over one line per built Spack case of the paper campaign (4
#: suites on every registry platform): its display name, its install
#: order and its root's dag_hash
PAPER_BUILD_ORDERS = (
    "6f2b6e10627a0ffca0ece016b1ebbc28acf78f9719401b91d03bd95aba9fc5a9"
)


def test_paper_campaign_install_orders(tmp_path):
    site = default_site_config()
    classes = [cls for suite in ("babelstream", "hpcg", "hpgmg", "osu")
               for cls in load_suite(suite)]
    executor = Executor(site=site, perflog_prefix=str(tmp_path))
    cases = [case
             for name, system in site.systems.items()
             for part in system.partitions
             for case in executor.expand_cases(classes, f"{name}:{part}")]
    report = executor.run_cases(cases)
    concretizer = Concretizer()
    lines = [
        f"{r.case.display_name}: "
        + " ".join(s.name for s in concretizer.build_order(r.concrete_spec))
        + f" {r.concrete_spec.dag_hash()}"
        for r in report.results if r.concrete_spec is not None
    ]
    assert len(report.results) == 119 and len(lines) == 103
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PAPER_BUILD_ORDERS
