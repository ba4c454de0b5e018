"""The stencil kernels against their slice-based references, bit for bit.

HPCG's matrix-free operator and HPGMG's Laplacian subtract contiguous
slices of a zero-padded buffer, and the 2^3 multigrid level smooths in
Python floats.  Each must return exactly the bytes of the straightforward
formulation kept here as a reference: trimmed 3-D views subtracted in
the same neighbour order, and numpy Jacobi sweeps.  The buffers belong to
each operator instance, so solves on separate instances in concurrent
threads must give the serial bytes.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.hpcg.cg import conjugate_gradient
from repro.apps.hpcg.problem import (
    LfricHelmholtzOperator,
    MatrixFreeOperator,
    Problem,
    make_operator,
)
from repro.apps.hpgmg.multigrid import FmgSolver, PoissonFV

HPCG_SHAPES = [(20, 20, 20), (12, 12, 12), (3, 7, 5), (2, 3, 1), (1, 1, 1)]
HPGMG_DIMS = [2, 4, 8, 16, 32, 64]


def reference_matrix_free_apply(shape, x):
    """26 x - the 26 neighbours, each a trimmed view, in lexicographic
    (dx, dy, dz) order."""
    grid = x.reshape(shape)
    out = 26.0 * grid.copy()
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if (dx, dy, dz) == (0, 0, 0):
                    continue
                src = grid[
                    max(dx, 0) or None : (dx if dx < 0 else None),
                    max(dy, 0) or None : (dy if dy < 0 else None),
                    max(dz, 0) or None : (dz if dz < 0 else None),
                ]
                dst = out[
                    max(-dx, 0) or None : (-dx if dx > 0 else None),
                    max(-dy, 0) or None : (-dy if dy > 0 else None),
                    max(-dz, 0) or None : (-dz if dz > 0 else None),
                ]
                dst -= src
    return out.reshape(-1)


def reference_poisson_apply(n, u):
    """(6 u - neighbours) / h^2, neighbours in the order +x, -x, +y, -y,
    +z, -z."""
    h = 1.0 / n
    out = 6.0 * u
    out[:-1, :, :] -= u[1:, :, :]
    out[1:, :, :] -= u[:-1, :, :]
    out[:, :-1, :] -= u[:, 1:, :]
    out[:, 1:, :] -= u[:, :-1, :]
    out[:, :, :-1] -= u[:, :, 1:]
    out[:, :, 1:] -= u[:, :, :-1]
    return out / (h * h)


def reference_sweeps(n, u, f, sweeps, omega=6.0 / 7.0):
    """Weighted-Jacobi sweeps with whole-array numpy operations."""
    h = 1.0 / n
    inv_diag = omega / (6.0 / (h * h))
    for _ in range(sweeps):
        u = u + inv_diag * (f - reference_poisson_apply(n, u))
    return u


def inputs(size, seed):
    """Random values, -0.0 and +0.0 sprinkled in, and an all -0.0 array."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(size)
    x[rng.random(size) < 0.2] = -0.0
    x[rng.random(size) < 0.1] = 0.0
    return [x, np.full(size, -0.0)]


def same_bytes(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


class TestMatrixFree:
    @pytest.mark.parametrize("shape", HPCG_SHAPES)
    def test_bit_identical_to_reference(self, shape):
        problem = Problem(*shape)
        op = MatrixFreeOperator(problem)
        for x in inputs(problem.n, 1):
            assert same_bytes(op.apply(x),
                              reference_matrix_free_apply(shape, x))

    @pytest.mark.parametrize("shape", HPCG_SHAPES)
    def test_non_contiguous_input(self, shape):
        problem = Problem(*shape)
        wide = np.random.default_rng(2).standard_normal(2 * problem.n)
        x = wide[::2]
        assert not x.flags.c_contiguous or problem.n == 1
        got = MatrixFreeOperator(problem).apply(x)
        assert same_bytes(got, reference_matrix_free_apply(shape, x))

    @pytest.mark.parametrize("shape", HPCG_SHAPES)
    def test_results_do_not_alias_the_buffers(self, shape):
        problem = Problem(*shape)
        op = MatrixFreeOperator(problem)
        x, y = np.random.default_rng(3).standard_normal((2, problem.n))
        first = op.apply(x)
        kept = first.copy()
        op.apply(y)
        assert same_bytes(first, kept)
        assert same_bytes(op.apply(x), kept)

    @pytest.mark.parametrize("shape", HPCG_SHAPES)
    def test_lfric_bit_identical_to_reference(self, shape):
        problem = Problem(*shape)
        op = LfricHelmholtzOperator(problem)
        for x in inputs(problem.n, 4):
            grid = x.reshape(shape)
            want = ((grid * op.alpha_z[None, None, :]).reshape(-1)
                    + op.beta * reference_matrix_free_apply(shape, x))
            assert same_bytes(op.apply(x), want)


class TestPoisson:
    @pytest.mark.parametrize("n", HPGMG_DIMS)
    def test_bit_identical_to_reference(self, n):
        op = PoissonFV(n)
        for u in inputs(n ** 3, n):
            u = u.reshape(n, n, n)
            assert same_bytes(op.apply(u), reference_poisson_apply(n, u))

    @pytest.mark.parametrize("n", HPGMG_DIMS)
    def test_non_contiguous_input(self, n):
        u = np.random.default_rng(5).standard_normal((n, n, n)).transpose(
            2, 0, 1)
        assert not u.flags.c_contiguous
        assert same_bytes(PoissonFV(n).apply(u),
                          reference_poisson_apply(n, u))


finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


class TestCoarseSmoother:
    @settings(max_examples=200, deadline=None)
    @given(u=st.lists(finite, min_size=8, max_size=8),
           f=st.lists(finite, min_size=8, max_size=8),
           sweeps=st.integers(min_value=1, max_value=40))
    def test_float_sweeps_equal_numpy_sweeps(self, u, f, sweeps):
        u = np.array(u).reshape(2, 2, 2)
        f = np.array(f).reshape(2, 2, 2)
        solver = FmgSolver(4)
        coarsest = len(solver.levels) - 1
        got = solver.smooth(coarsest, u, f, sweeps)
        assert same_bytes(got, reference_sweeps(2, u, f, sweeps))
        assert solver.levels[coarsest].applies == sweeps

    def test_zero_sweeps_return_the_input(self):
        solver = FmgSolver(4)
        u = np.ones((2, 2, 2))
        assert solver.smooth(1, u, u, 0) is u


def solve_bytes(seed):
    """One thread's work: CG with both matrix-free operators and an FMG
    solve, all on fresh instances, reduced to bytes."""
    problem = Problem(12, 12, 12)
    out = []
    for kind in ("matrix-free", "lfric"):
        result = conjugate_gradient(make_operator(kind, problem),
                                    problem.rhs(seed), max_iterations=30)
        out.append(result.x.tobytes())
    f = np.random.default_rng(seed).standard_normal((16, 16, 16))
    out.append(FmgSolver(16).solve(f=f).u.tobytes())
    # coarsest=4 keeps every level on the array path, which spends more
    # of the solve inside PoissonFV.apply's buffers
    out.append(FmgSolver(16, coarsest=4).solve(
        f=f, extra_v_cycles=1).u.tobytes())
    return out


def test_concurrent_solves_match_serial():
    """Four threads, each solving on its own operator instances with its
    own inputs, switching as often as the interpreter allows: every
    result equals the serial one.  Operators sharing one buffer (at
    module scope, say) would mix the threads' inputs and fail here."""
    seeds = [11, 12, 13, 14]
    serial = {seed: solve_bytes(seed) for seed in seeds}
    got = {}
    errors = []

    def worker(seed):
        try:
            for _ in range(5):
                result = solve_bytes(seed)
                if result != serial[seed]:
                    got[seed] = result
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert not got, f"seeds {sorted(got)} differ from their serial solves"
