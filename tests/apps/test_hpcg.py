"""Tests for the HPCG problem operators, CG solver, and variant models."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.apps.hpcg.cg import conjugate_gradient
from repro.apps.hpcg.problem import (
    CsrOperator,
    LfricHelmholtzOperator,
    MatrixFreeOperator,
    Problem,
    make_operator,
)
from repro.apps.hpcg.variants import (
    HPCG_VARIANTS,
    UnsupportedVariantError,
)
from repro.systems.registry import get_system


PROBLEM = Problem(12, 12, 12)


def kron_assembly(problem):
    """The reference CSR assembly: the sum of the 27 stencil terms, each a
    Kronecker product of per-axis shift matrices."""
    shape = problem.shape

    def shift(n, k):
        return sp.diags([1.0], [k], shape=(n, n), format="csr")

    terms = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                coef = 26.0 if (dx, dy, dz) == (0, 0, 0) else -1.0
                terms.append(
                    coef
                    * sp.kron(
                        sp.kron(shift(shape[0], dx), shift(shape[1], dy)),
                        shift(shape[2], dz),
                    )
                )
    matrix = terms[0]
    for t in terms[1:]:
        matrix = matrix + t
    return matrix.tocsr()


class TestCsrAssembly:
    @pytest.mark.parametrize(
        "shape", [(12, 12, 12), (20, 20, 20), (3, 7, 5), (2, 3, 1), (1, 1, 1)]
    )
    def test_bit_identical_to_kron_reference(self, shape):
        problem = Problem(*shape)
        got = CsrOperator(problem).matrix
        want = kron_assembly(problem)
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
        assert got.has_sorted_indices and want.has_sorted_indices


class TestOperators:
    def test_csr_and_matrix_free_agree(self):
        """The CSR matrix and the stencil are the same operator."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal(PROBLEM.n)
        csr = CsrOperator(PROBLEM)
        mf = MatrixFreeOperator(PROBLEM)
        np.testing.assert_allclose(csr.apply(x), mf.apply(x), rtol=1e-12)

    def test_operator_is_symmetric(self):
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((2, PROBLEM.n))
        for kind in ("csr", "matrix-free", "lfric"):
            op = make_operator(kind, PROBLEM)
            assert np.dot(op.apply(x), y) == pytest.approx(
                np.dot(x, op.apply(y)), rel=1e-10
            ), kind

    def test_operator_is_positive_definite(self):
        rng = np.random.default_rng(2)
        for kind in ("csr", "matrix-free", "lfric"):
            op = make_operator(kind, PROBLEM)
            for _ in range(5):
                x = rng.standard_normal(PROBLEM.n)
                assert np.dot(x, op.apply(x)) > 0, kind

    def test_diagonal_matches_matrix(self):
        csr = CsrOperator(PROBLEM)
        mf = MatrixFreeOperator(PROBLEM)
        np.testing.assert_allclose(
            csr.diagonal()[PROBLEM.n // 2], mf.diagonal()[PROBLEM.n // 2]
        )

    def test_lfric_diagonal_is_true_diagonal(self):
        op = LfricHelmholtzOperator(PROBLEM)
        e = np.zeros(PROBLEM.n)
        idx = PROBLEM.n // 2
        e[idx] = 1.0
        assert op.apply(e)[idx] == pytest.approx(op.diagonal()[idx])

    def test_nnz_count_27_point(self):
        csr = CsrOperator(Problem(8, 8, 8))
        # interior rows have 27 entries; boundary fewer
        assert csr.nnz <= 27 * 512
        assert csr.nnz >= 8 * 512  # even corners keep 8 neighbours

    def test_traffic_ordering(self):
        """CSR moves much more data per flop than matrix-free."""
        csr = CsrOperator(PROBLEM)
        mf = MatrixFreeOperator(PROBLEM)
        csr_bpf = csr.ideal_bytes_per_apply() / csr.flops_per_apply()
        mf_bpf = mf.ideal_bytes_per_apply() / mf.flops_per_apply()
        assert csr_bpf > 3 * mf_bpf

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_operator("dense", PROBLEM)

    def test_apply_counts(self):
        op = MatrixFreeOperator(PROBLEM)
        op.apply(np.zeros(PROBLEM.n))
        op.apply(np.zeros(PROBLEM.n))
        assert op.apply_count == 2


class TestConjugateGradient:
    @pytest.mark.parametrize("kind", ["csr", "matrix-free", "lfric"])
    def test_converges(self, kind):
        op = make_operator(kind, PROBLEM)
        result = conjugate_gradient(op, PROBLEM.rhs(), max_iterations=200,
                                    tolerance=1e-8)
        assert result.converged
        assert result.final_relative_residual < 1e-8

    def test_solution_solves_system(self):
        op = make_operator("matrix-free", PROBLEM)
        b = PROBLEM.rhs()
        result = conjugate_gradient(op, b, max_iterations=300, tolerance=1e-10)
        np.testing.assert_allclose(op.apply(result.x), b, atol=1e-6)

    def test_preconditioning_helps(self):
        """Jacobi preconditioning must not slow convergence on this SPD
        problem (for LFRic's varying diagonal it genuinely helps)."""
        op = make_operator("lfric", PROBLEM)
        b = PROBLEM.rhs()
        pc = conjugate_gradient(op, b, max_iterations=150, preconditioned=True)
        plain = conjugate_gradient(
            make_operator("lfric", PROBLEM), b, max_iterations=150,
            preconditioned=False,
        )
        assert pc.iterations <= plain.iterations + 1

    def test_flop_accounting_positive_and_scales(self):
        op = make_operator("csr", PROBLEM)
        r1 = conjugate_gradient(op, PROBLEM.rhs(), max_iterations=5,
                                tolerance=0.0)
        r2 = conjugate_gradient(op, PROBLEM.rhs(), max_iterations=10,
                                tolerance=0.0)
        assert 0 < r1.flops < r2.flops
        assert 0 < r1.ideal_bytes < r2.ideal_bytes

    def test_residual_history_recorded(self):
        op = make_operator("csr", PROBLEM)
        r = conjugate_gradient(op, PROBLEM.rhs(), max_iterations=10,
                               tolerance=0.0)
        assert len(r.residual_norms) == 11

    def test_warm_start(self):
        op = make_operator("matrix-free", PROBLEM)
        b = PROBLEM.rhs()
        exact = conjugate_gradient(op, b, max_iterations=300,
                                   tolerance=1e-12).x
        warm = conjugate_gradient(op, b, x0=exact, max_iterations=3)
        assert warm.converged

    @pytest.mark.parametrize("kind", ["csr", "matrix-free", "lfric"])
    def test_zero_rhs(self, kind):
        """A zero right-hand side converges at iteration 0 with a zero
        relative residual (not a ZeroDivisionError)."""
        op = make_operator(kind, PROBLEM)
        result = conjugate_gradient(op, np.zeros(PROBLEM.n))
        assert result.converged and result.iterations == 0
        assert result.final_relative_residual == 0.0
        assert not result.x.any()


class TestVariantModels:
    def node(self, name, part=None):
        return get_system(name).partition(part).node

    def test_table2_cascade_lake(self):
        node = self.node("isambard-macs", "cascadelake")
        expected = {"original": 24.0, "intel-avx2": 39.0,
                    "matrix-free": 51.0, "lfric": 18.5}
        for name, paper in expected.items():
            got = HPCG_VARIANTS[name].gflops_on(node)
            assert got == pytest.approx(paper, rel=0.02), name

    def test_table2_rome(self):
        node = self.node("archer2")
        expected = {"original": 39.2, "matrix-free": 124.2, "lfric": 56.0}
        for name, paper in expected.items():
            got = HPCG_VARIANTS[name].gflops_on(node)
            assert got == pytest.approx(paper, rel=0.02), name

    def test_intel_na_on_rome(self):
        with pytest.raises(UnsupportedVariantError):
            HPCG_VARIANTS["intel-avx2"].gflops_on(self.node("archer2"))

    def test_equation_1_efficiencies(self):
        """E_I = 1.625, E_A = 2.125 (Cascade Lake), E_A = 3.168 (Rome)."""
        from repro.analysis.efficiency import variant_efficiency

        cl = self.node("isambard-macs", "cascadelake")
        rome = self.node("archer2")
        e_i = variant_efficiency(
            HPCG_VARIANTS["intel-avx2"].gflops_on(cl),
            HPCG_VARIANTS["original"].gflops_on(cl),
        )
        e_a_cl = variant_efficiency(
            HPCG_VARIANTS["matrix-free"].gflops_on(cl),
            HPCG_VARIANTS["original"].gflops_on(cl),
        )
        e_a_rome = variant_efficiency(
            HPCG_VARIANTS["matrix-free"].gflops_on(rome),
            HPCG_VARIANTS["original"].gflops_on(rome),
        )
        assert e_i == pytest.approx(1.625, rel=0.02)
        assert e_a_cl == pytest.approx(2.125, rel=0.02)
        assert e_a_rome == pytest.approx(3.168, rel=0.02)
        # the paper's conclusion: algorithmic change beats implementation
        assert e_a_cl > e_i
