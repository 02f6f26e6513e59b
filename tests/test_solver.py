import numpy as np
import pytest
import scipy.sparse as sp

from tunnelfwi import solver
from tunnelfwi.solver import (SingularMatrixError, SolveError, factorization_count,
                              factorize, fallback_count)


def random_complex_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    A = A + A.T
    A += 4 * n * np.eye(n)  # keep it well conditioned
    return A


def test_identity_solve():
    f = factorize(sp.eye(6, format="csc", dtype=complex))
    rhs = np.arange(6, dtype=complex) + 1j
    np.testing.assert_allclose(f.solve(rhs), rhs, atol=1e-15)


def test_matches_dense_elimination_oracle():
    A = random_complex_symmetric(5, 21)
    rng = np.random.default_rng(22)
    rhs = rng.normal(size=5) + 1j * rng.normal(size=5)
    x_dense = np.linalg.solve(A, rhs)  # LAPACK oracle
    f = factorize(sp.csc_matrix(A))
    x = f.solve(rhs)
    assert np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense) < 1e-12


def test_zero_row_is_structurally_singular():
    A = sp.csc_matrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(SingularMatrixError, match="row"):
        factorize(A)
    # every column has an entry, so only a row count finds the empty row
    B = sp.csc_matrix(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
                               dtype=complex))
    with pytest.raises(SingularMatrixError, match="row 1 is empty"):
        factorize(B)


def test_numerically_singular():
    A = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)  # rank 1
    with pytest.raises(SingularMatrixError):
        factorize(sp.csc_matrix(A))


def test_non_square_rejected():
    with pytest.raises(SingularMatrixError, match="square"):
        factorize(sp.csc_matrix(np.ones((2, 3), dtype=complex)))


def test_zero_rhs():
    f = factorize(sp.csc_matrix(random_complex_symmetric(4, 23)))
    x = f.solve(np.zeros(4, dtype=complex))
    np.testing.assert_array_equal(x, 0.0)


def test_dimension_mismatch():
    f = factorize(sp.csc_matrix(random_complex_symmetric(4, 24)))
    with pytest.raises(SolveError, match="dimension"):
        f.solve(np.zeros(5, dtype=complex))


def test_repeated_solves_deterministic():
    A = sp.csc_matrix(random_complex_symmetric(8, 25))
    rng = np.random.default_rng(26)
    r1 = rng.normal(size=8) + 1j * rng.normal(size=8)
    r2 = rng.normal(size=8) + 1j * rng.normal(size=8)
    f = factorize(A)
    x1, x2 = f.solve(r1), f.solve(r2)
    y1 = factorize(A).solve(r1)
    y2 = factorize(A).solve(r2)
    assert np.abs(x1 - y1).max() < 1e-14 * np.abs(x1).max()
    assert np.abs(x2 - y2).max() < 1e-14 * np.abs(x2).max()


def test_residual_bound():
    A = sp.csc_matrix(random_complex_symmetric(30, 27))
    rng = np.random.default_rng(28)
    rhs = rng.normal(size=30) + 1j * rng.normal(size=30)
    x = factorize(A).solve(rhs)
    assert np.linalg.norm(A @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_linearity():
    A = sp.csc_matrix(random_complex_symmetric(10, 29))
    rng = np.random.default_rng(30)
    r1 = rng.normal(size=10) + 1j * rng.normal(size=10)
    r2 = rng.normal(size=10) + 1j * rng.normal(size=10)
    a, b = 2.5 - 1.0j, -0.5 + 3.0j
    f = factorize(A)
    lhs = f.solve(a * r1 + b * r2)
    rhs = a * f.solve(r1) + b * f.solve(r2)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) < 1e-12


def test_factorization_counter_increments():
    A = sp.csc_matrix(random_complex_symmetric(4, 31))
    before = factorization_count()
    f = factorize(A)
    assert factorization_count() == before + 1
    f.solve(np.ones(4, dtype=complex))
    f.solve(np.zeros(4, dtype=complex))
    assert factorization_count() == before + 1  # solves do not refactorize


def test_residual_check_mode():
    # the residual guard is always on: a well-conditioned solve passes it
    # without falling back to a pivoted factorization
    A = sp.csc_matrix(random_complex_symmetric(5, 33))
    before = fallback_count()
    f = factorize(A)
    x = f.solve(np.ones(5, dtype=complex))
    assert np.linalg.norm(A @ x - 1.0) <= solver.RESIDUAL_BOUND * np.sqrt(5)
    assert fallback_count() == before


def tiny_diagonal_matrix():
    # unpivoted elimination on a 1e-20 diagonal grows entries by 1e20
    eps = 1e-20
    return sp.csc_matrix(np.array([[eps, 1, 1], [1, eps, 1], [1, 1, eps]],
                                  dtype=complex))


def test_failed_residual_falls_back_to_pivoted_lu():
    A = tiny_diagonal_matrix()
    b = np.array([1.0, 2.0, 3.0], dtype=complex)
    f = factorize(A)
    n_fact, n_fallback = factorization_count(), fallback_count()
    x = f.solve(b)
    assert fallback_count() == n_fallback + 1
    assert factorization_count() == n_fact + 1
    np.testing.assert_allclose(x, np.linalg.solve(A.toarray(), b), rtol=0, atol=1e-12)
    # later solves reuse the pivoted factors
    b2 = np.array([-1.0, 0.5j, 2.0], dtype=complex)
    x2 = f.solve(b2)
    assert fallback_count() == n_fallback + 1
    assert factorization_count() == n_fact + 1
    np.testing.assert_allclose(x2, np.linalg.solve(A.toarray(), b2), rtol=0, atol=1e-12)


def test_solve_error_when_pivoted_residual_fails():
    # singular values 1 .. 1e-17: numerically singular, no pivoting helps
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    A = Q @ np.diag(np.logspace(0, -17, 6)) @ Q.T
    f = factorize(sp.csc_matrix(A))
    before = fallback_count()
    with pytest.raises(SolveError, match="residual .* after pivoting"):
        f.solve(rng.normal(size=6) + 0j)
    assert fallback_count() == before + 1


def test_factorize_does_not_copy_complex_csc():
    A = sp.csc_matrix(random_complex_symmetric(4, 34))
    f = factorize(A)
    # the guard keeps the matrix; a complex CSC input must not be copied
    assert np.shares_memory(f._matrix.data, A.data)


def test_multi_column_solve_matches_single_solves():
    A = sp.csc_matrix(random_complex_symmetric(12, 35))
    rng = np.random.default_rng(36)
    B = rng.normal(size=(12, 3)) + 1j * rng.normal(size=(12, 3))
    f = factorize(A)
    X = f.solve(B)
    assert X.shape == (12, 3)
    for k in range(3):
        x = f.solve(B[:, k])
        assert np.abs(X[:, k] - x).max() <= 1e-14 * np.abs(x).max()


def test_zero_column_beside_non_zero_column_solves_to_exact_zeros():
    A = sp.csc_matrix(random_complex_symmetric(6, 37))
    B = np.zeros((6, 2), dtype=complex)
    B[:, 1] = np.arange(1, 7) - 2j
    before = fallback_count()
    X = factorize(A).solve(B)
    np.testing.assert_array_equal(X[:, 0], 0.0)
    assert np.linalg.norm(A @ X[:, 1] - B[:, 1]) <= 1e-10 * np.linalg.norm(B[:, 1])
    assert fallback_count() == before


def test_multi_column_fallback_refactorizes_once_for_all_columns():
    A = tiny_diagonal_matrix()
    B = np.array([[1.0, -1.0], [2.0, 0.5j], [3.0, 2.0]], dtype=complex)
    f = factorize(A)
    n_fact, n_fallback = factorization_count(), fallback_count()
    X = f.solve(B)
    assert fallback_count() == n_fallback + 1
    assert factorization_count() == n_fact + 1
    for k in range(2):
        np.testing.assert_allclose(X[:, k], np.linalg.solve(A.toarray(), B[:, k]),
                                   rtol=0, atol=1e-12)


# -- one BLAS thread inside SuperLU ---------------------------------------------

def blas_threads():
    return [get() for get, _ in solver._blas_pools()]


@pytest.fixture
def two_blas_threads():
    """Every OpenBLAS pool at 2 threads for the test, then as it was."""
    pools = solver._blas_pools()
    saved = blas_threads()
    for _, set_ in pools:
        set_(2)
    yield blas_threads()
    for (_, set_), n in zip(pools, saved):
        set_(n)


def needs_blas_pools():
    if not solver._blas_pools():
        pytest.skip("no OpenBLAS with a thread-count API is loaded in this process")


class RecordingLU:
    """SuperLU factors whose solves record the BLAS thread counts they see."""

    def __init__(self, lu, seen):
        self.lu, self.seen = lu, seen

    def solve(self, b):
        self.seen.append(("solve", blas_threads()))
        return self.lu.solve(b)


def test_superlu_calls_run_with_one_blas_thread(monkeypatch, two_blas_threads):
    needs_blas_pools()
    seen = []
    splu = solver.splu

    def recording_splu(*args, **kwargs):
        seen.append(("splu", blas_threads()))
        return RecordingLU(splu(*args, **kwargs), seen)

    monkeypatch.setattr(solver, "splu", recording_splu)
    # the 1e-20 diagonal fails the guard, so the pivoted splu and solve run too
    f = factorize(tiny_diagonal_matrix())
    assert blas_threads() == two_blas_threads
    f.solve(np.array([1.0, 2.0, 3.0], dtype=complex))
    one = [1] * len(two_blas_threads)
    assert seen == [("splu", one), ("solve", one), ("splu", one), ("solve", one)]
    assert blas_threads() == two_blas_threads


def test_blas_threads_restored_when_factorization_fails(two_blas_threads):
    needs_blas_pools()
    A = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)  # rank 1
    with pytest.raises(SingularMatrixError):
        factorize(sp.csc_matrix(A))
    assert blas_threads() == two_blas_threads


def test_out_of_memory_names_the_system(monkeypatch, two_blas_threads):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(solver, "splu", no_memory)
    A = sp.csc_matrix(random_complex_symmetric(5, 38))
    with pytest.raises(solver.SolverMemoryError, match="n = 5, nnz = 25"):
        factorize(A)
    assert blas_threads() == two_blas_threads


def test_solves_without_blas_pools_give_the_same_x(monkeypatch):
    A = sp.csc_matrix(random_complex_symmetric(12, 39))
    B = np.random.default_rng(40).normal(size=(12, 2)) + 0j
    x = factorize(A).solve(B)
    monkeypatch.setattr(solver, "_blas_pools", lambda: ())
    np.testing.assert_array_equal(factorize(A).solve(B), x)
