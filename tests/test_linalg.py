"""Kernel-level tests: sparse products, QR, Gram helpers, work counter."""

import threading

import numpy as np
import pytest
from scipy import sparse

import itercca as ic

from conftest import naive_matmul, random_sparse, rng_for


def test_as_sparse_sums_duplicates_and_canonicalizes():
    data = [2.0, 3.0, 1.0, 0.0]
    rows = [1, 1, 0, 2]
    cols = [2, 2, 0, 1]
    m = ic.as_sparse((data, (rows, cols)), shape=(3, 3))
    assert isinstance(m, sparse.csr_array)
    assert m[1, 2] == 5.0
    # explicit zero dropped
    assert m.nnz == 2
    assert m.has_sorted_indices
    with pytest.raises(ValueError):
        m.data[:] = 0.0


def test_as_sparse_copies_input():
    dense = np.eye(3)
    m = ic.as_sparse(dense)
    dense[0, 0] = 7.0
    assert m[0, 0] == 1.0


def test_sparse_dense_mul_matches_naive_product():
    a = random_sparse(10, 7, 0.5, seed=0)
    b = rng_for(1).standard_normal((7, 3))
    expected = naive_matmul(a.toarray(), b)
    np.testing.assert_allclose(ic.sparse_dense_mul(a, b), expected, atol=1e-12)


def test_sparse_transpose_dense_mul_matches_naive_product():
    a = random_sparse(10, 7, 0.5, seed=2)
    b = rng_for(3).standard_normal((10, 4))
    expected = naive_matmul(a.toarray().T, b)
    np.testing.assert_allclose(
        ic.sparse_transpose_dense_mul(a, b), expected, atol=1e-12
    )


def test_sparse_mul_rejects_shape_mismatch():
    a = random_sparse(5, 4, 0.5, seed=0)
    with pytest.raises(ValueError):
        ic.sparse_dense_mul(a, np.zeros((5, 2)))
    with pytest.raises(ValueError):
        ic.sparse_transpose_dense_mul(a, np.zeros((4, 2)))


def test_work_counter_counts_nnz_times_columns():
    a = random_sparse(12, 6, 0.4, seed=4)
    before = ic.sparse_work.total
    ic.sparse_dense_mul(a, np.ones((6, 3)))
    assert ic.sparse_work.total - before == a.nnz * 3
    before = ic.sparse_work.total
    ic.sparse_transpose_dense_mul(a, np.ones((12, 5)))
    assert ic.sparse_work.total - before == a.nnz * 5


def test_sparse_gram_matches_naive_and_counts_row_products():
    a = random_sparse(15, 5, 0.5, seed=5)
    b = random_sparse(15, 4, 0.5, seed=6)
    expected = naive_matmul(a.toarray().T, b.toarray())
    before = ic.sparse_work.total
    out = ic.sparse_gram(a, b)
    counted = ic.sparse_work.total - before
    np.testing.assert_allclose(out, expected, atol=1e-12)
    row_nnz = lambda m: np.diff(m.indptr)
    assert counted == int(row_nnz(a) @ row_nnz(b))
    np.testing.assert_allclose(ic.sparse_gram(a), a.toarray().T @ a.toarray(), atol=1e-12)
    with pytest.raises(ValueError):
        ic.sparse_gram(a, random_sparse(14, 4, 0.5, seed=7))


def test_thin_qr_factors_and_sign_convention():
    m = rng_for(8).standard_normal((9, 4))
    q, r = ic.thin_qr(m)
    np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(q @ r, m, atol=1e-12)
    np.testing.assert_allclose(r, np.triu(r), atol=0.0)
    assert np.all(np.diag(r) >= 0.0)


def test_thin_qr_is_deterministic_and_rejects_wide_input():
    m = rng_for(9).standard_normal((6, 3))
    q1, r1 = ic.thin_qr(m)
    q2, r2 = ic.thin_qr(m.copy())
    assert np.array_equal(q1, q2) and np.array_equal(r1, r2)
    with pytest.raises(ValueError):
        ic.thin_qr(np.zeros((2, 5)))
    with pytest.raises(ValueError):
        ic.thin_qr(np.zeros((4, 0)))


def test_rank_deficient_columns_flags_small_diagonals():
    r = np.diag([3.0, 1e-30, 2.0])
    assert ic.rank_deficient_columns(r).tolist() == [1]
    assert ic.rank_deficient_columns(np.diag([1.0, 1.0])).size == 0
    # all-zero factor: every column is deficient
    assert ic.rank_deficient_columns(np.zeros((3, 3))).tolist() == [0, 1, 2]


def test_gram_diagonal_matches_naive_column_norms():
    a = random_sparse(20, 6, 0.4, seed=10)
    dense = a.toarray()
    expected = [sum(dense[i, j] ** 2 for i in range(20)) for j in range(6)]
    np.testing.assert_allclose(ic.gram_diagonal(a), expected, atol=1e-12)
    empty = ic.as_sparse(np.zeros((4, 3)))
    np.testing.assert_allclose(ic.gram_diagonal(empty), np.zeros(3), atol=0.0)


def test_as_sparse_rejects_non_finite_values_and_counts_them():
    dense = np.eye(4)
    dense[0, 1] = np.nan
    dense[2, 3] = np.inf
    dense[3, 0] = -np.inf
    with pytest.raises(ic.NonFiniteError, match="x holds 3 non-finite values"):
        ic.as_sparse(dense, name="x")
    with pytest.raises(ValueError, match="1 non-finite"):
        ic.as_sparse(([np.nan], ([0], [0])), shape=(2, 2))


def test_work_counter_is_per_thread():
    a = random_sparse(12, 6, 0.4, seed=4)
    ic.sparse_dense_mul(a, np.ones((6, 2)))
    main_before = ic.sparse_work.total
    seen = []

    def worker():
        seen.append(ic.sparse_work.total)
        ic.sparse_dense_mul(a, np.ones((6, 3)))
        seen.append(ic.sparse_work.total)

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=30)
    assert not t.is_alive()
    assert seen == [0, a.nnz * 3]
    assert ic.sparse_work.total == main_before


def tall_with_condition(n, k, cond, seed):
    rng = rng_for(seed)
    u = np.linalg.qr(rng.standard_normal((n, k)))[0]
    v = np.linalg.qr(rng.standard_normal((k, k)))[0]
    return (u * np.logspace(0, -np.log10(cond), k)) @ v.T


def householder_qr(m):
    q, r = np.linalg.qr(m)
    signs = np.where(np.diag(r) < 0, -1.0, 1.0)
    return q * signs, r * signs[:, None]


def test_thin_qr_tall_block_takes_cholesky_qr2():
    m = rng_for(20).standard_normal((5000, 60))
    q, r = ic.thin_qr(m)
    assert np.max(np.abs(q.T @ q - np.eye(60))) <= 1e-12
    assert np.max(np.abs(q @ r - m)) <= 1e-12 * np.max(np.abs(m))
    np.testing.assert_allclose(r, np.triu(r), atol=0.0)
    assert np.all(np.diag(r) >= 0.0)
    fast = ic.linalg._cholesky_qr2(m)
    assert fast is not None
    assert np.array_equal(q, fast.q) and np.array_equal(r, fast.r)
    q2, r2 = ic.thin_qr(m.copy())
    assert q.tobytes() == q2.tobytes() and r.tobytes() == r2.tobytes()


def test_thin_qr_small_blocks_stay_householder():
    m = rng_for(21).standard_normal((999, 20))
    q, r = ic.thin_qr(m)
    hq, hr = householder_qr(m)
    assert np.array_equal(q, hq) and np.array_equal(r, hr)


@pytest.mark.parametrize("cond, fast", [(1e5, True), (1e7, False), (1e9, False)])
def test_thin_qr_guard_sends_ill_conditioned_tall_blocks_to_householder(cond, fast):
    m = tall_with_condition(5000, 20, cond, seed=22)
    q, r = ic.thin_qr(m)
    assert np.max(np.abs(q.T @ q - np.eye(20))) <= 1e-12
    assert np.all(np.diag(r) >= 0.0)
    assert (ic.linalg._cholesky_qr2(m) is not None) == fast
    if not fast:
        hq, hr = householder_qr(m)
        assert np.array_equal(q, hq) and np.array_equal(r, hr)


@pytest.mark.parametrize("n, k", [(5000, 20), (100_000, 60)])
def test_thin_qr_accepts_blocks_just_inside_the_guard_at_full_accuracy(n, k):
    m = tall_with_condition(n, k, 0.9 * ic.linalg._CHOLQR2_MAX_COND, seed=27)
    assert ic.linalg._cholesky_qr2(m) is not None
    q, r = ic.thin_qr(m)
    assert np.max(np.abs(q.T @ q - np.eye(k))) <= 1e-12
    assert np.max(np.abs(q @ r - m)) <= 1e-12 * np.max(np.abs(m))
    assert np.all(np.diag(r) >= 0.0)


def test_thin_qr_flags_duplicated_column_like_householder():
    m = rng_for(23).standard_normal((5000, 20))
    m[:, 13] = m[:, 4]
    _, r = ic.thin_qr(m)
    expected = ic.rank_deficient_columns(np.linalg.qr(m)[1])
    assert expected.tolist() == [13]
    assert ic.rank_deficient_columns(r).tolist() == expected.tolist()


def test_orthonormalize_iterate_restarts_collapsed_tall_iterate():
    side = random_sparse(3000, 40, 0.05, seed=24)
    m = ic.sparse_dense_mul(side, rng_for(25).standard_normal((40, 8)))
    m[:, 5] = m[:, 2]
    restarts = []
    q = ic.cca._orthonormalize_iterate(m, side, rng_for(26), restarts, t=3)
    assert restarts == [3]
    assert q.shape == (3000, 8)
    assert np.max(np.abs(q.T @ q - np.eye(8))) <= 1e-12
