"""Direct sparse factorization of the complex impedance matrix.

One factorization per (model, frequency) serves every source and the
adjoint solves; a module counter lets tests assert the reuse contract.

The impedance matrix is complex symmetric, so SuperLU runs in symmetric
mode: a minimum-degree ordering of A + Aᵀ with pivots kept on the diagonal
(off it only where a diagonal entry is exactly zero), so the elimination
follows that ordering and its fill stays the same at every ω.  Unpivoted
elimination can be unstable, so every solve checks the relative residual
of each right-hand-side column (one sparse product).  A solve with any
column over the bound refactorizes the matrix once with partial pivoting,
re-solves all its columns, and that factorization serves the later solves.

SuperLU runs with one BLAS thread.  numpy and scipy each load their own
OpenBLAS with its own thread pool; with two pools of two threads on two
cores, a factorization that follows numpy work ran at half speed.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

RESIDUAL_BOUND = 1e-10  # accepted |A x - b| / |b| of every solve

_n_factorizations = 0
_n_fallbacks = 0


class SingularMatrixError(RuntimeError):
    pass


class SolveError(RuntimeError):
    pass


class SolverMemoryError(MemoryError):
    pass


def factorization_count():
    """Number of numeric factorizations performed so far (for reuse tests)."""
    return _n_factorizations


def fallback_count():
    """Number of symmetric-mode factorizations replaced by pivoted ones."""
    return _n_fallbacks


def _norm(v):
    """2-norm of a vector or of each column, by a numpy reduction, without BLAS.

    Between solves inside an inversion, np.linalg.norm (a BLAS dot) took
    about 5 ms on a 10,230-entry vector with two OpenBLAS threads; this sum
    takes about 0.1 ms.
    """
    return np.sqrt(np.sum(np.abs(v) ** 2, axis=0))


# (get, set) thread-count symbols in the order tried; a library binds the
# first pair it exports
_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_pools():
    """(get, set) thread-count functions of every OpenBLAS in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                           and ln.split()[-1].startswith("/")})
    except OSError:  # no /proc: another platform
        return ()
    pools = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_name, set_name in _THREAD_SYMBOLS:
            if hasattr(handle, get_name) and hasattr(handle, set_name):
                get, set_ = getattr(handle, get_name), getattr(handle, set_name)
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                pools.append((get, set_))
                break
    return tuple(pools)


@contextmanager
def _serial_blas():
    """Run the body with one thread in every OpenBLAS pool, then restore."""
    pools = _blas_pools()
    saved = [get() for get, _ in pools]
    for _, set_ in pools:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(pools, saved):
            set_(n)


def _splu(A, **options):
    """Counted SuperLU factors of ``A``; partial pivoting unless overridden."""
    global _n_factorizations
    try:
        with _serial_blas():
            lu = splu(A, permc_spec="MMD_AT_PLUS_A", **options)
    except RuntimeError as exc:  # SuperLU reports the failing pivot
        raise SingularMatrixError(f"factorization failed: {exc}") from exc
    except MemoryError as exc:
        raise SolverMemoryError(f"out of memory factorizing n = {A.shape[0]}, "
                                f"nnz = {A.nnz}") from exc
    _n_factorizations += 1
    return lu


class Factorization:
    """Handle over a factorized matrix supporting repeated, checked solves."""

    def __init__(self, lu, matrix):
        self._lu = lu
        self._matrix = matrix
        self._pivoted = False
        self.n = matrix.shape[0]

    def _residual(self, x, b):
        """Largest relative residual of the columns; a zero column needs x = 0."""
        r = _norm(self._matrix @ x - b)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(r == 0, 0.0, r / _norm(b))
        return float(np.max(rel, initial=0.0))

    def solve(self, rhs):
        """Solution of A x = rhs for an (n,) or (n, k) right-hand side."""
        global _n_fallbacks
        rhs = np.asarray(rhs)
        if rhs.shape[0] != self.n:
            raise SolveError(f"rhs has dimension {rhs.shape[0]}, expected {self.n}")
        b = rhs.astype(complex)
        with _serial_blas():
            x = self._lu.solve(b)
        residual = self._residual(x, b)
        if not residual <= RESIDUAL_BOUND and not self._pivoted:
            self._lu = _splu(self._matrix)
            self._pivoted = True
            _n_fallbacks += 1
            with _serial_blas():
                x = self._lu.solve(b)
            residual = self._residual(x, b)
        if not residual <= RESIDUAL_BOUND:
            raise SolveError(f"relative residual {residual:.3e} exceeds "
                             f"{RESIDUAL_BOUND:.0e} after pivoting")
        return x


def factorize(A) -> Factorization:
    """LU-factorize a square complex sparse matrix in symmetric mode."""
    A = sp.csc_matrix(A, dtype=complex)  # no copy of a complex CSC input
    if A.shape[0] != A.shape[1]:
        raise SingularMatrixError(f"matrix is not square: {A.shape}")
    nnz_per_row = np.bincount(A.indices, minlength=A.shape[0])
    if np.any(nnz_per_row == 0):
        row = int(np.argmax(nnz_per_row == 0))
        raise SingularMatrixError(f"structurally singular: row {row} is empty")
    lu = _splu(A, diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    return Factorization(lu, A)
