"""Preconditioned conjugate gradient with exact operation accounting.

The HPCG benchmark runs symmetric-Gauss-Seidel-preconditioned CG and
scores GFlop/s over a fixed iteration count.  Both preconditioners are
implemented: Jacobi (works for any operator exposing a diagonal) and the
reference SymGS (for CSR operators; its forward/backward triangular
sweeps are inherently sequential, which is *why* the vendor and
matrix-free variants of Section 3.2 differ so much).  Every flop and
ideal byte is counted, so the simulated FOM is grounded in the real work
performed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

__all__ = ["CgResult", "conjugate_gradient", "SymGsPreconditioner"]


class SymGsPreconditioner:
    """Symmetric Gauss-Seidel: the preconditioner of reference HPCG.

    ``M^-1 r``: forward sweep ``(D+L) w = r``, then backward sweep
    ``(D+U) z = D w``.  SPD for SPD A, so CG stays valid.  Requires an
    assembled (CSR) matrix -- one of the concrete reasons the benchmark
    over-represents indirect memory access patterns (Section 3.2).
    """

    def __init__(self, operator):
        matrix = getattr(operator, "matrix", None)
        if matrix is None:
            raise TypeError(
                "SymGS needs an assembled matrix; use Jacobi for "
                "matrix-free operators"
            )
        import scipy.sparse as sp

        self.lower = sp.tril(matrix, k=0, format="csr")  # D + L
        self.upper = sp.triu(matrix, k=0, format="csr")  # D + U
        self.diag = matrix.diagonal()
        self.nnz = matrix.nnz
        self.n = matrix.shape[0]

    def apply(self, r: np.ndarray) -> np.ndarray:
        from scipy.sparse.linalg import spsolve_triangular

        w = spsolve_triangular(self.lower, r, lower=True)
        return spsolve_triangular(self.upper, self.diag * w, lower=False)

    def flops_per_apply(self) -> float:
        # two triangular sweeps over all nonzeros plus the diagonal scale
        return 2.0 * self.nnz + self.n

    def ideal_bytes_per_apply(self) -> float:
        return 2 * (12.0 * self.nnz) + 4 * 8.0 * self.n


@dataclass
class CgResult:
    x: np.ndarray
    iterations: int
    residual_norms: List[float] = field(default_factory=list)
    converged: bool = False
    flops: float = 0.0
    ideal_bytes: float = 0.0

    @property
    def final_relative_residual(self) -> float:
        """``||r_k|| / ||r_0||``; 0.0 when the initial residual is zero
        (a zero right-hand side is solved exactly at iteration 0)."""
        if self.residual_norms[0] == 0.0:
            return 0.0
        return self.residual_norms[-1] / self.residual_norms[0]


def conjugate_gradient(
    operator,
    b: np.ndarray,
    max_iterations: int = 50,
    tolerance: float = 1e-9,
    preconditioned: bool = True,
    preconditioner: str = "jacobi",
    x0: Optional[np.ndarray] = None,
) -> CgResult:
    """Solve ``A x = b`` for an SPD operator with optional preconditioning.

    ``preconditioner`` is ``'jacobi'`` (any operator) or ``'symgs'``
    (CSR operators only, the reference-HPCG scheme).  The operator must
    expose ``apply``, ``flops_per_apply``, ``ideal_bytes_per_apply`` and
    ``diagonal`` (see :mod:`repro.apps.hpcg.problem`).
    """
    n = b.shape[0]
    x = np.zeros_like(b) if x0 is None else x0.copy()
    flops = 0.0
    ideal_bytes = 0.0

    r = b - operator.apply(x) if x0 is not None else b.copy()
    if x0 is not None:
        flops += operator.flops_per_apply() + n
        ideal_bytes += operator.ideal_bytes_per_apply() + 3 * 8 * n

    inv_diag = None
    symgs = None
    if preconditioned:
        if preconditioner == "jacobi":
            inv_diag = 1.0 / operator.diagonal()
        elif preconditioner == "symgs":
            symgs = SymGsPreconditioner(operator)
        else:
            raise ValueError(
                f"unknown preconditioner {preconditioner!r}; "
                "know 'jacobi' and 'symgs'"
            )

    def precondition(res: np.ndarray) -> np.ndarray:
        nonlocal flops, ideal_bytes
        if symgs is not None:
            flops += symgs.flops_per_apply()
            ideal_bytes += symgs.ideal_bytes_per_apply()
            return symgs.apply(res)
        if inv_diag is None:
            return res
        flops += n
        ideal_bytes += 3 * 8 * n
        return inv_diag * res

    z = precondition(r)
    p = z.copy()
    rz = float(r @ z)
    flops += 2 * n
    ideal_bytes += 2 * 8 * n

    norms = [float(np.linalg.norm(r))]
    result = CgResult(x=x, iterations=0, residual_norms=norms)
    # convergence is judged against ||b|| (not ||r0||) so a warm start
    # that is already accurate converges immediately instead of chasing
    # relative reduction of an already-tiny residual
    b_norm = float(np.linalg.norm(b)) or 1.0
    if norms[0] <= tolerance * b_norm:
        result.converged = True
        result.flops = flops
        result.ideal_bytes = ideal_bytes
        return result

    for it in range(1, max_iterations + 1):
        ap = operator.apply(p)
        flops += operator.flops_per_apply()
        ideal_bytes += operator.ideal_bytes_per_apply()

        pap = float(p @ ap)
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        # dot (2n) + two axpys (2n each)
        flops += 6 * n
        ideal_bytes += 10 * 8 * n

        norms.append(float(np.linalg.norm(r)))
        flops += 2 * n
        ideal_bytes += 8 * n

        if norms[-1] <= tolerance * b_norm:
            result.converged = True
            result.iterations = it
            break

        z = precondition(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new
        flops += 4 * n
        ideal_bytes += 6 * 8 * n
        result.iterations = it

    result.flops = flops
    result.ideal_bytes = ideal_bytes
    return result
