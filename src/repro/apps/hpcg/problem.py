"""The HPCG model problem and its operator implementations.

HPCG solves Poisson's equation on a 3-D structured grid with a 27-point
finite-difference stencil (diagonal 26, off-diagonals -1) [Dongarra,
Heroux, Luszczek 2015].  The paper's Section 3.2 adds two algorithmic
variants: a matrix-free application of the same stencil, and the LFRic
Helmholtz operator (a shifted Laplacian, here symmetrised positive
definite as the paper describes).

Three interchangeable operator classes expose ``apply`` plus exact flop
and ideal-byte counts per application -- the numbers the machine model
needs and the efficiency analysis reasons about:

* :class:`CsrOperator` -- scipy CSR SpMV: loads 8 B value + 4 B column
  index per nonzero, plus vector traffic;
* :class:`MatrixFreeOperator` -- stencil applied with shifted numpy
  views: no matrix storage at all, the memory-traffic win the paper
  measures as a 2.1-3.2x speedup;
* :class:`LfricHelmholtzOperator` -- matrix-free Helmholtz
  ``(alpha I - beta Lap)`` with spatially-varying alpha, as a proxy for
  the Met Office operator (its exact coefficients are "relevant for the
  application developer but not for the purposes of this paper").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Problem",
    "CsrOperator",
    "MatrixFreeOperator",
    "LfricHelmholtzOperator",
    "OPERATOR_KINDS",
]

OPERATOR_KINDS = ("csr", "matrix-free", "lfric")


@dataclass(frozen=True)
class Problem:
    """An nx x ny x nz grid with homogeneous Dirichlet halo."""

    nx: int
    ny: int
    nz: int

    @property
    def shape(self) -> Tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def n(self) -> int:
        return self.nx * self.ny * self.nz

    def rhs(self, seed: int = 7) -> np.ndarray:
        """A reproducible right-hand side (HPCG uses all-ones; a seeded
        random RHS exercises convergence more honestly in tests)."""
        rng = np.random.default_rng(seed)
        return rng.standard_normal(self.n)

    def ones_rhs(self) -> np.ndarray:
        return np.ones(self.n)


def _stencil_offsets() -> list:
    return [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
        if (dx, dy, dz) != (0, 0, 0)
    ]


class _OperatorBase:
    """Shared bookkeeping: every apply() is counted."""

    def __init__(self, problem: Problem):
        self.problem = problem
        self.apply_count = 0

    @property
    def n(self) -> int:
        return self.problem.n

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def flops_per_apply(self) -> float:
        raise NotImplementedError

    def ideal_bytes_per_apply(self) -> float:
        raise NotImplementedError

    def diagonal(self) -> np.ndarray:
        """Operator diagonal, for Jacobi preconditioning."""
        raise NotImplementedError


class MatrixFreeOperator(_OperatorBase):
    """The 27-point stencil applied without assembling a matrix.

    y[i] = 26*x[i] - sum of the 26 neighbours, zero outside the domain --
    identical to the HPCG matrix, computed with shifted array views
    (vectorized; no per-element Python).
    """

    DIAG = 26.0

    def __init__(self, problem: Problem):
        super().__init__(problem)
        self._offsets = _stencil_offsets()

    def apply(self, x: np.ndarray) -> np.ndarray:
        self.apply_count += 1
        p = self.problem
        grid = x.reshape(p.shape)
        out = self.DIAG * grid.copy()
        for dx, dy, dz in self._offsets:
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

    def flops_per_apply(self) -> float:
        # 26 subtracts + 1 multiply per point (interior approximation)
        return 27.0 * self.n

    def ideal_bytes_per_apply(self) -> float:
        # stream x once, write y once; neighbours come from cache
        return 2 * 8.0 * self.n

    def diagonal(self) -> np.ndarray:
        return np.full(self.n, self.DIAG)


class CsrOperator(_OperatorBase):
    """The HPCG reference: the same stencil assembled in CSR."""

    def __init__(self, problem: Problem):
        super().__init__(problem)
        self.matrix = self._assemble(problem)

    @staticmethod
    def _assemble(problem: Problem) -> sp.csr_matrix:
        # row i's neighbours, in lexicographic (dx, dy, dz) order: with
        # C-order grid indexing that order is ascending column index, so
        # dropping the out-of-bounds ones leaves sorted CSR rows
        offsets = np.array([(dx, dy, dz) for dx in (-1, 0, 1)
                            for dy in (-1, 0, 1) for dz in (-1, 0, 1)])
        coords = np.unravel_index(np.arange(problem.n), problem.shape)
        inside = np.ones((problem.n, len(offsets)), dtype=bool)
        columns = np.zeros((problem.n, len(offsets)), dtype=np.int64)
        for axis, extent in enumerate(problem.shape):
            pos = coords[axis][:, None] + offsets[:, axis]
            inside &= (pos >= 0) & (pos < extent)
            columns = columns * extent + pos
        coef = np.where((offsets == 0).all(axis=1), 26.0, -1.0)
        indptr = np.zeros(problem.n + 1, dtype=np.int32)
        np.cumsum(inside.sum(axis=1), out=indptr[1:])
        return sp.csr_matrix(
            (np.broadcast_to(coef, inside.shape)[inside],
             columns[inside].astype(np.int32), indptr),
            shape=(problem.n, problem.n),
        )

    def apply(self, x: np.ndarray) -> np.ndarray:
        self.apply_count += 1
        return self.matrix @ x

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def flops_per_apply(self) -> float:
        return 2.0 * self.nnz

    def ideal_bytes_per_apply(self) -> float:
        # per nonzero: 8 B value + 4 B column index; plus x and y vectors
        return 12.0 * self.nnz + 2 * 8.0 * self.n

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()


class LfricHelmholtzOperator(_OperatorBase):
    """Symmetrised Helmholtz operator from the LFRic dynamical core.

    ``H x = alpha(z) * x - beta * Lap27 x`` with alpha varying by vertical
    level (atmospheric columns are strongly anisotropic) and beta > 0;
    alpha > 26*beta keeps it SPD.  Applied matrix-free but with the extra
    coefficient loads and anisotropic access that make it *slower* than
    the plain stencil per DOF -- the paper measures it below original CSR
    on Cascade Lake yet well above it on Rome's larger caches.
    """

    def __init__(self, problem: Problem, beta: float = 0.5):
        super().__init__(problem)
        self.beta = beta
        # one alpha per vertical level (z): 30 + 4*sin profile, > 26*beta
        z = np.arange(problem.nz)
        self.alpha_z = 30.0 + 4.0 * np.sin(2 * np.pi * z / max(problem.nz, 1))
        self._lap = MatrixFreeOperator(problem)

    def apply(self, x: np.ndarray) -> np.ndarray:
        self.apply_count += 1
        p = self.problem
        grid = x.reshape(p.shape)
        out = grid * self.alpha_z[None, None, :]
        out = out.reshape(-1) + self.beta * self._lap.apply(x)
        self._lap.apply_count -= 1  # inner apply is part of this one
        return out

    def flops_per_apply(self) -> float:
        # stencil + coefficient multiply-add per point
        return self._lap.flops_per_apply() + 3.0 * self.n

    def ideal_bytes_per_apply(self) -> float:
        # x, y, plus the per-level coefficient field traffic
        return self._lap.ideal_bytes_per_apply() + 8.0 * self.n

    def diagonal(self) -> np.ndarray:
        p = self.problem
        diag = np.broadcast_to(
            self.alpha_z[None, None, :], p.shape
        ).reshape(-1)
        return diag + self.beta * 26.0


def make_operator(kind: str, problem: Problem) -> _OperatorBase:
    """Factory over :data:`OPERATOR_KINDS` (CSR serves 'original' and
    'intel-avx2', which differ in implementation, not algorithm)."""
    if kind == "csr":
        return CsrOperator(problem)
    if kind == "matrix-free":
        return MatrixFreeOperator(problem)
    if kind == "lfric":
        return LfricHelmholtzOperator(problem)
    raise ValueError(f"unknown operator kind {kind!r}; know {OPERATOR_KINDS}")
