"""Direct sparse factorization of the complex impedance matrix.

One factorization per (model, frequency) serves every source and the
adjoint solves; a module counter lets tests assert the reuse contract.

The impedance matrix is complex symmetric, so SuperLU runs in symmetric
mode: a minimum-degree ordering of A + Aᵀ with pivots kept on the diagonal
(off it only where a diagonal entry is exactly zero), so the elimination
follows that ordering and its fill stays the same at every ω.  Unpivoted
elimination can be unstable, so every solve checks the relative residual
of each right-hand-side column (one sparse product) against
``RESIDUAL_BOUND``.

Factors are tried down a ladder, each rung only once the one above misses
the bound on some column:

1. complex64 factors in symmetric mode, for systems of ``SINGLE_MIN_DOFS``
   or more dofs.  Each column is scaled by a power of two to a max-norm in
   [0.5, 1), so that a small right-hand side cannot underflow complex64,
   and the solution is refined, ``x -= LU⁻¹(A x - b)`` with the residual in
   complex128, at most ``MAX_REFINE`` times, while the residual falls;
2. complex128 factors in symmetric mode, where smaller systems start;
3. complex128 factors with partial pivoting.

A step down refactorizes the matrix, re-solves all columns of the solve
that missed, counts in ``fallback_count()``, and serves the later solves.
The complex64 factors hold about half the memory and factorize faster, but
each refinement step costs a solve and a sparse product, so only systems
large enough for the factorization to dominate start on that rung.

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
SINGLE_MIN_DOFS = 50_000  # systems this large start on complex64 factors
MAX_REFINE = 3  # refinement steps of a complex64 solve

# (factor dtype, splu options) of each rung in the order tried; partial
# pivoting is splu's default
_SYMMETRIC = dict(diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
_LADDER = ((np.complex64, _SYMMETRIC), (np.complex128, _SYMMETRIC),
           (np.complex128, {}))

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
    """Number of factorizations replaced by the next rung of the ladder."""
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


def _splu(A, dtype, options):
    """Counted SuperLU factors of ``A`` with its values cast to ``dtype``."""
    global _n_factorizations
    try:
        if dtype != A.dtype:  # a copy of the values that shares A's indices
            A = sp.csc_matrix((A.data.astype(dtype), A.indices, A.indptr),
                              shape=A.shape)
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

    def __init__(self, matrix, rung):
        self._matrix = matrix
        self._rung = rung
        self._lu = _splu(matrix, *_LADDER[rung])
        self.n = matrix.shape[0]

    def _residual(self, x, b):
        """A x - b and the largest relative residual of its columns; a zero
        column needs x = 0."""
        r = self._matrix @ x - b
        rn = _norm(r)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(rn == 0, 0.0, rn / _norm(b))
        return r, float(np.max(rel, initial=0.0))

    def _solve(self, b):
        """x on the current rung and its largest relative residual."""
        dtype, _ = _LADDER[self._rung]
        # a power of two scales exactly, so the scaled system's residual is
        # b's; a zero column keeps scale 1
        scale = np.ldexp(1.0, np.frexp(np.max(np.abs(b), axis=0))[1])
        b = b / scale
        # from x = 0, whose residual is -b, so the first pass is the solve
        x, r, residual = np.zeros_like(b), -b, np.inf
        for _ in range(1 + (MAX_REFINE if dtype == np.complex64 else 0)):
            with _serial_blas():
                x -= self._lu.solve(r.astype(dtype, copy=False))
            last = residual
            r, residual = self._residual(x, b)
            # stop on the bound, or where refinement stalls or diverges
            if residual <= RESIDUAL_BOUND or not residual < last:
                break
        return x * scale, residual

    def solve(self, rhs):
        """Solution of A x = rhs for an (n,) or (n, k) right-hand side."""
        global _n_fallbacks
        rhs = np.asarray(rhs)
        if rhs.shape[0] != self.n:
            raise SolveError(f"rhs has dimension {rhs.shape[0]}, expected {self.n}")
        b = rhs.astype(complex)
        # a NaN or inf in b would miss the bound on every rung
        if not np.isfinite(b).all():
            raise SolveError("right-hand side is not finite")
        x, residual = self._solve(b)
        while not residual <= RESIDUAL_BOUND and self._rung + 1 < len(_LADDER):
            self._lu = _splu(self._matrix, *_LADDER[self._rung + 1])
            self._rung += 1
            _n_fallbacks += 1
            x, residual = self._solve(b)
        if not residual <= RESIDUAL_BOUND:
            raise SolveError(f"relative residual {residual:.3e} exceeds "
                             f"{RESIDUAL_BOUND:.0e} after pivoting")
        return x


def factorize(A) -> Factorization:
    """LU-factorize a square complex sparse matrix in symmetric mode, in
    complex64 from ``SINGLE_MIN_DOFS`` dofs on."""
    A = sp.csc_matrix(A, dtype=complex)  # no copy of a complex CSC input
    if A.shape[0] != A.shape[1]:
        raise SingularMatrixError(f"matrix is not square: {A.shape}")
    nnz_per_row = np.bincount(A.indices, minlength=A.shape[0])
    if np.any(nnz_per_row == 0):
        row = int(np.argmax(nnz_per_row == 0))
        raise SingularMatrixError(f"structurally singular: row {row} is empty")
    A.sum_duplicates()  # in place, as splu would: a cast copy shares the indices
    return Factorization(A, 0 if A.shape[0] >= SINGLE_MIN_DOFS else 1)
