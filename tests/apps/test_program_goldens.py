"""Golden digests of the mini-apps' program outputs and solver results.

Every case stores its stdout in the result store, and HPCG's ``CG
iterations``/``Scaled residual`` and HPGMG's ``FMG solve error`` lines
come from the real verification solves.  The FOMs do not depend on those
solves, so the paper-suite FOM digests cannot catch a kernel change that
moves one ulp of a solution.  This module pins, byte for byte:

* the stdout of every BabelStream, HPCG and HPGMG case of the paper's
  campaign (every registry platform, serial, perflogs only), one sha256
  per suite;
* the solution vectors, residual histories and work counts of CG on
  five grid shapes with each operator kind, and of the FMG solve on five
  grid sizes.

A change that moves any of them changes what a stored result replays,
and must re-record the digests on purpose.
"""

import hashlib
import struct

from repro.apps.hpcg.cg import conjugate_gradient
from repro.apps.hpcg.problem import OPERATOR_KINDS, Problem, make_operator
from repro.apps.hpgmg.multigrid import FmgSolver
from repro.runner.cli import load_suite
from repro.runner.config import default_site_config
from repro.runner.executor import Executor

PINNED_TS = "2026-01-01T00:00:00"

STDOUT_GOLDEN = {
    "babelstream": (70, "3937f81c90f4ce2a6fd9f90a4b8c82d7"
                        "5e5e0fff710a7f34456b64d804eb554c"),
    "hpcg": (28, "3d901b796f7e53c587b7d634ca2290e8"
                 "201f1af64b292d277a79dad2bbc9be1d"),
    "hpgmg": (7, "c8189ba4faa61fac67e0aa9be372c750"
                 "1757a8bccbed0ff606dd7fa6450f8215"),
}

HPCG_SHAPES = [(20, 20, 20), (12, 12, 12), (3, 7, 5), (2, 3, 1), (1, 1, 1)]
HPGMG_GRIDS = [4, 8, 16, 32, 64]

SOLVER_GOLDEN = {
    "hpcg": "49fc89a73cc2921a737976d4164529af"
            "878312860773b2f48fac6c344744a6dd",
    "hpgmg": "b01237f64d7cf4724a6bd8448553a2eb"
             "455866d81eb32fe047168f509561424a",
}


def _floats(digest, *values):
    for value in values:
        digest.update(struct.pack("<d", value))


def test_paper_campaign_stdout_is_pinned(tmp_path):
    site = default_site_config()
    platforms = [f"{name}:{part}" for name, system in site.systems.items()
                 for part in system.partitions]
    ex = Executor(site=site, perflog_prefix=str(tmp_path / "perflogs"),
                  perflog_timestamp=PINNED_TS)
    got = {}
    for suite in STDOUT_GOLDEN:
        classes = load_suite(suite)
        cases = [case for platform in platforms
                 for case in ex.expand_cases(classes, platform)]
        report = ex.run_cases(cases)
        digest = hashlib.sha256()
        for result in sorted(report.results,
                             key=lambda r: r.case.display_name):
            digest.update(result.case.display_name.encode("utf-8"))
            digest.update(b"\0")
            digest.update(result.stdout.encode("utf-8"))
            digest.update(b"\0")
        got[suite] = (len(report.results), digest.hexdigest())
    assert got == STDOUT_GOLDEN


def test_hpcg_solver_outputs_are_pinned():
    digest = hashlib.sha256()
    for shape in HPCG_SHAPES:
        problem = Problem(*shape)
        for kind in OPERATOR_KINDS:
            result = conjugate_gradient(make_operator(kind, problem),
                                        problem.rhs(), max_iterations=30)
            digest.update(f"{shape}/{kind}/{result.iterations}/"
                          f"{result.converged}".encode("utf-8"))
            digest.update(result.x.tobytes())
            _floats(digest, result.flops, result.ideal_bytes,
                    *result.residual_norms)
    assert digest.hexdigest() == SOLVER_GOLDEN["hpcg"]


def test_hpgmg_solver_outputs_are_pinned():
    digest = hashlib.sha256()
    for n in HPGMG_GRIDS:
        solver = FmgSolver(n)
        result = solver.solve(v_cycles=1, extra_v_cycles=1)
        digest.update(f"{n}/{result.dof}".encode("utf-8"))
        digest.update(result.u.tobytes())
        _floats(digest, result.relative_residual, result.max_error,
                result.weighted_applies,
                *(level.applies for level in solver.levels))
    assert digest.hexdigest() == SOLVER_GOLDEN["hpgmg"]
