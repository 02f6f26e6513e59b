"""Direct sparse factorization of the complex impedance matrix.

One factorization per (model, frequency) serves every source and the
adjoint solves; a module counter lets tests assert the reuse contract.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# residual post-check on every solve; enable for debugging
check_residuals = False
RESIDUAL_BOUND = 1e-10

_n_factorizations = 0


class SingularMatrixError(RuntimeError):
    pass


class SolveError(RuntimeError):
    pass


def factorization_count():
    """Number of numeric factorizations performed so far (for reuse tests)."""
    return _n_factorizations


class Factorization:
    """Handle over a factorized matrix supporting repeated solves."""

    def __init__(self, lu, n, matrix=None):
        self._lu = lu
        self.n = n
        self._matrix = matrix  # kept only while check_residuals is on

    def solve(self, rhs):
        rhs = np.asarray(rhs)
        if rhs.shape[0] != self.n:
            raise SolveError(f"rhs has dimension {rhs.shape[0]}, expected {self.n}")
        x = self._lu.solve(rhs.astype(complex))
        if check_residuals and self._matrix is not None:
            r = np.linalg.norm(self._matrix @ x - rhs)
            b = np.linalg.norm(rhs)
            if b > 0 and r > RESIDUAL_BOUND * b * 1e3:
                raise SolveError(f"residual {r:.3e} exceeds bound for |rhs|={b:.3e}")
        return x


def factorize(A) -> Factorization:
    """LU-factorize a square complex sparse matrix."""
    global _n_factorizations
    A = sp.csc_matrix(A, dtype=complex)
    if A.shape[0] != A.shape[1]:
        raise SingularMatrixError(f"matrix is not square: {A.shape}")
    nnz_per_row = np.bincount(A.indices, minlength=A.shape[0])
    if np.any(nnz_per_row == 0):
        row = int(np.argmax(nnz_per_row == 0))
        raise SingularMatrixError(f"structurally singular: row {row} is empty")
    try:
        # symmetric-pattern fill reduction suits the complex symmetric systems
        lu = splu(A, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU reports the failing pivot
        raise SingularMatrixError(f"factorization failed: {exc}") from exc
    _n_factorizations += 1
    keep = A if check_residuals else None
    return Factorization(lu, A.shape[0], matrix=keep)
