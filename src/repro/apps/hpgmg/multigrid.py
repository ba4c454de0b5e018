"""A real finite-volume geometric multigrid solver (the HPGMG-FV algorithm).

HPGMG-FV [Adams et al. 2014] solves a variable-coefficient Poisson
equation with a Full Multigrid (FMG) cycle on a hierarchy of
cell-centred grids.  This is that algorithm in vectorized numpy:
7-point FV Laplacian, weighted-Jacobi smoothing, 8-cell-average
restriction, trilinear-ish prolongation, V-cycles, and the FMG driver
that visits coarse grids first.  The Laplacian subtracts contiguous
slices of a zero-padded copy of its input, and the 2^3 level -- where a
W-cycle solve spends most of its sweeps -- smooths its eight unknowns as
Python floats; both give the bytes of the plain whole-array formulation
(DESIGN.md section 12.3).  The solver genuinely converges (the
test suite checks discretization-limited residuals and the textbook MG
property that convergence rate is h-independent); simulated cluster
timing lives in :mod:`repro.apps.hpgmg.model`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

__all__ = ["PoissonFV", "MultigridLevel", "FmgSolver", "MultigridError"]


class MultigridError(RuntimeError):
    """Raised on invalid grids (non-power-of-two, too small)."""


class PoissonFV:
    """7-point cell-centred FV Laplacian on the unit cube, Dirichlet=0.

    ``apply`` computes ``(A u)_i = (6 u_i - sum of neighbours) / h^2``
    (the standard second-order FV/FD discretization; ghost cells are
    zero).  Like HPCG's matrix-free operator it copies u into a
    zero-padded ``(n+2)^3`` buffer and subtracts each neighbour as one
    contiguous slice of the flattened buffer, in the order +x, -x, +y,
    -y, +z, -z; a +0.0 ghost leaves a value unchanged, so the result is
    bit-identical to subtracting trimmed 3-D views.  The buffers belong
    to the instance: one operator must not be applied from two threads
    at once.
    """

    def __init__(self, n: int):
        if n < 2 or (n & (n - 1)) != 0:
            raise MultigridError(f"grid dimension {n} must be a power of two >= 2")
        self.n = n
        self.h = 1.0 / n
        padded = np.zeros((n + 2,) * 3)
        acc = np.empty_like(padded)
        sx, sy = (n + 2) * (n + 2), n + 2
        lo, hi = sx + sy + 1, n * (sx + sy + 1) + 1
        flat = padded.reshape(-1)
        self._interior = padded[1:-1, 1:-1, 1:-1]
        self._centre = flat[lo:hi]
        self._neighbours = [flat[lo + shift:hi + shift]
                            for shift in (sx, -sx, sy, -sy, 1, -1)]
        self._window = acc.reshape(-1)[lo:hi]
        self._result = acc[1:-1, 1:-1, 1:-1]

    def apply(self, u: np.ndarray) -> np.ndarray:
        self._interior[...] = u
        window = self._window
        np.multiply(6.0, self._centre, out=window)
        for neighbour in self._neighbours:
            np.subtract(window, neighbour, out=window)
        return self._result / (self.h * self.h)

    @property
    def diagonal(self) -> float:
        return 6.0 / (self.h * self.h)

    def residual(self, u: np.ndarray, f: np.ndarray) -> np.ndarray:
        return f - self.apply(u)


def restrict(fine: np.ndarray) -> np.ndarray:
    """8-cell average: the FV-consistent restriction."""
    return 0.125 * (
        fine[0::2, 0::2, 0::2] + fine[1::2, 0::2, 0::2]
        + fine[0::2, 1::2, 0::2] + fine[1::2, 1::2, 0::2]
        + fine[0::2, 0::2, 1::2] + fine[1::2, 0::2, 1::2]
        + fine[0::2, 1::2, 1::2] + fine[1::2, 1::2, 1::2]
    )


def _interp_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    """Cell-centred linear interpolation doubling one axis.

    A fine cell centre sits a quarter-cell from its parent coarse centre,
    so the weights are (3/4, 1/4) toward the nearer/farther coarse
    neighbour, with replication at the boundary.
    """
    lo = np.swapaxes(arr, 0, axis)
    minus = np.concatenate([lo[:1], lo[:-1]], axis=0)
    plus = np.concatenate([lo[1:], lo[-1:]], axis=0)
    out = np.empty((lo.shape[0] * 2,) + lo.shape[1:], dtype=arr.dtype)
    out[0::2] = 0.75 * lo + 0.25 * minus
    out[1::2] = 0.75 * lo + 0.25 * plus
    return np.swapaxes(out, 0, axis)


def prolong(coarse: np.ndarray) -> np.ndarray:
    """Trilinear cell-centred prolongation to the 2x finer grid.

    Second-order transfers are required for a convergent V-cycle with
    inexact coarse solves (piecewise-constant injection only sums to
    transfer order 2 with the 8-cell-average restriction, which is not
    enough for a second-order PDE).
    """
    out = coarse
    for axis in range(3):
        out = _interp_axis(out, axis)
    return out


def _smooth_2cubed(u: np.ndarray, f: np.ndarray, sweeps: int,
                   w: float, h2: float) -> np.ndarray:
    """Weighted-Jacobi sweeps on the 2^3 grid in Python floats.

    Cell ``c = 4x + 2y + z`` has one neighbour per axis, at ``c ^ 4``,
    ``c ^ 2`` and ``c ^ 1``.  Each line computes ``u + w * (f - (6 u - ux
    - uy - uz) / h2)`` in :meth:`PoissonFV.apply`'s order (of each +/-
    pair only one neighbour exists here), so the result is bit-identical
    to the numpy sweep; eight unknowns cost far less as floats than as
    arrays.
    """
    f0, f1, f2, f3, f4, f5, f6, f7 = f.ravel().tolist()
    uu = u.ravel().tolist()
    for _ in range(sweeps):
        u0, u1, u2, u3, u4, u5, u6, u7 = uu
        uu = (
            u0 + w * (f0 - (6.0 * u0 - u4 - u2 - u1) / h2),
            u1 + w * (f1 - (6.0 * u1 - u5 - u3 - u0) / h2),
            u2 + w * (f2 - (6.0 * u2 - u6 - u0 - u3) / h2),
            u3 + w * (f3 - (6.0 * u3 - u7 - u1 - u2) / h2),
            u4 + w * (f4 - (6.0 * u4 - u0 - u6 - u5) / h2),
            u5 + w * (f5 - (6.0 * u5 - u1 - u7 - u4) / h2),
            u6 + w * (f6 - (6.0 * u6 - u2 - u4 - u7) / h2),
            u7 + w * (f7 - (6.0 * u7 - u3 - u5 - u6) / h2),
        )
    return np.array(uu).reshape(2, 2, 2)


@dataclass
class MultigridLevel:
    operator: PoissonFV
    #: operator applications performed on this level (work accounting)
    applies: int = 0

    @property
    def dof(self) -> int:
        return self.operator.n ** 3


class FmgSolver:
    """The multigrid hierarchy and its V-cycle / FMG drivers."""

    def __init__(
        self,
        n: int,
        pre_smooth: int = 2,
        post_smooth: int = 2,
        omega: float = 6.0 / 7.0,
        coarsest: int = 2,
        gamma: int = 2,
    ):
        self.levels: List[MultigridLevel] = []
        dim = n
        while dim >= coarsest:
            self.levels.append(MultigridLevel(PoissonFV(dim)))
            if dim == coarsest:
                break
            dim //= 2
        if len(self.levels) < 2:
            raise MultigridError(f"grid {n} too small for multigrid")
        self.pre_smooth = pre_smooth
        self.post_smooth = post_smooth
        self.omega = omega
        # gamma=2 (W-cycles): cell-centred transfers are non-variational,
        # so V-cycles lose a constant factor per level and diverge beyond
        # ~4 levels; W-cycles restore an h-independent rate (~0.3 here,
        # checked by the test suite).  HPGMG itself smooths far harder
        # (Chebyshev/GSRB) for the same reason.
        self.gamma = gamma

    @property
    def finest(self) -> MultigridLevel:
        return self.levels[0]

    def smooth(self, level: int, u: np.ndarray, f: np.ndarray,
               sweeps: int) -> np.ndarray:
        """``sweeps`` weighted-Jacobi sweeps ``u + w/D * (f - A u)``."""
        op = self.levels[level].operator
        inv_diag = self.omega / op.diagonal
        self.levels[level].applies += sweeps
        if op.n == 2 and sweeps:
            return _smooth_2cubed(u, f, sweeps, inv_diag, op.h * op.h)
        for _ in range(sweeps):
            u = u + inv_diag * (f - op.apply(u))
        return u

    def v_cycle(self, level: int, u: np.ndarray, f: np.ndarray) -> np.ndarray:
        """One gamma-cycle (gamma=1: V, gamma=2: W) from ``level`` down."""
        op = self.levels[level].operator
        if level == len(self.levels) - 1:
            # coarsest: smooth hard (few unknowns, exactness irrelevant)
            return self.smooth(level, u, f, 32)
        u = self.smooth(level, u, f, self.pre_smooth)
        residual = op.residual(u, f)
        self.levels[level].applies += 1
        coarse_f = restrict(residual)
        coarse_u = np.zeros_like(coarse_f)
        for _ in range(self.gamma):
            coarse_u = self.v_cycle(level + 1, coarse_u, coarse_f)
        u = u + prolong(coarse_u)
        u = self.smooth(level, u, f, self.post_smooth)
        return u

    def fmg(self, f: np.ndarray, v_cycles: int = 1) -> np.ndarray:
        """Full multigrid: solve coarse first, prolong, V-cycle at each level."""
        # restrict f all the way down
        rhs = [f]
        for _ in range(len(self.levels) - 1):
            rhs.append(restrict(rhs[-1]))
        # coarsest solve
        u = np.zeros_like(rhs[-1])
        u = self.smooth(len(self.levels) - 1, u, rhs[-1], 32)
        # work back up
        for level in range(len(self.levels) - 2, -1, -1):
            u = prolong(u)
            for _ in range(v_cycles):
                u = self.v_cycle(level, u, rhs[level])
        return u

    def solve(
        self,
        f: Optional[np.ndarray] = None,
        v_cycles: int = 1,
        extra_v_cycles: int = 0,
    ) -> "FmgResult":
        op = self.finest.operator
        n = op.n
        if f is None:
            # a smooth manufactured solution: u* = product of sines
            x = (np.arange(n) + 0.5) / n
            xx, yy, zz = np.meshgrid(x, x, x, indexing="ij")
            u_exact = np.sin(np.pi * xx) * np.sin(np.pi * yy) * np.sin(np.pi * zz)
            f = op.apply(u_exact)
        else:
            u_exact = None
        u = self.fmg(f, v_cycles=v_cycles)
        for _ in range(extra_v_cycles):
            u = self.v_cycle(0, u, f)
        # a zero right-hand side is solved exactly: define its relative
        # residual as 0.0 instead of computing 0/0
        f_norm = np.linalg.norm(f)
        res = (float(np.linalg.norm(op.residual(u, f)) / f_norm)
               if f_norm else 0.0)
        err = (
            float(np.max(np.abs(u - u_exact))) if u_exact is not None else None
        )
        total_applies = sum(
            lvl.applies * lvl.dof for lvl in self.levels
        )
        return FmgResult(
            u=u,
            relative_residual=res,
            max_error=err,
            dof=self.finest.dof,
            weighted_applies=total_applies,
        )


@dataclass
class FmgResult:
    u: np.ndarray
    relative_residual: float
    max_error: Optional[float]
    dof: int
    weighted_applies: float = 0.0
