"""Kernel-level tests: sparse products, QR, Gram helpers, work counter."""

import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import itercca as ic
from itercca.linalg import (
    gram_diagonal,
    rank_deficient_columns,
    sparse_dense_mul,
    sparse_gram,
    sparse_transpose_dense_mul,
    sparse_work,
    thin_qr,
    thin_qr_deferred,
)

from conftest import naive_matmul, random_sparse, rng_for, spy_on


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
    # (data, indices, indptr) with one row's columns unsorted and duplicated
    m = ic.as_sparse(([1.0, 2.0, 3.0, 4.0, 5.0], [3, 0, 3, 1, 0], [0, 5, 5]), shape=(2, 4))
    assert all(np.all(np.diff(m.indices[r0:r1]) > 0) for r0, r1 in zip(m.indptr, m.indptr[1:]))
    np.testing.assert_array_equal(m.toarray(), [[7.0, 4.0, 0.0, 4.0], [0.0] * 4])


def test_as_sparse_copies_input():
    dense = np.eye(3)
    m = ic.as_sparse(dense)
    dense[0, 0] = 7.0
    assert m[0, 0] == 1.0


def test_sparse_dense_mul_matches_naive_product():
    a = random_sparse(10, 7, 0.5, seed=0)
    b = rng_for(1).standard_normal((7, 3))
    expected = naive_matmul(a.toarray(), b)
    np.testing.assert_allclose(sparse_dense_mul(a, b), expected, atol=1e-12)


def test_sparse_transpose_dense_mul_matches_naive_product():
    a = random_sparse(10, 7, 0.5, seed=2)
    b = rng_for(3).standard_normal((10, 4))
    expected = naive_matmul(a.toarray().T, b)
    np.testing.assert_allclose(
        sparse_transpose_dense_mul(a, b), expected, atol=1e-12
    )


def test_sparse_mul_rejects_shape_mismatch():
    a = random_sparse(5, 4, 0.5, seed=0)
    with pytest.raises(ValueError):
        sparse_dense_mul(a, np.zeros((5, 2)))
    with pytest.raises(ValueError):
        sparse_transpose_dense_mul(a, np.zeros((4, 2)))
    for mul, size in ((sparse_dense_mul, 4), (sparse_transpose_dense_mul, 5)):
        with pytest.raises(ValueError, match=rf"^b must be .* got shape \({size},\)$"):
            mul(a, np.zeros(size))


def test_work_counter_counts_nnz_times_columns():
    a = random_sparse(12, 6, 0.4, seed=4)
    before = sparse_work.total
    sparse_dense_mul(a, np.ones((6, 3)))
    assert sparse_work.total - before == a.nnz * 3
    before = sparse_work.total
    sparse_transpose_dense_mul(a, np.ones((12, 5)))
    assert sparse_work.total - before == a.nnz * 5


def test_sparse_gram_matches_naive_and_counts_row_products():
    a = random_sparse(15, 5, 0.5, seed=5)
    b = random_sparse(15, 4, 0.5, seed=6)
    expected = naive_matmul(a.toarray().T, b.toarray())
    before = sparse_work.total
    out = sparse_gram(a, b)
    counted = sparse_work.total - before
    np.testing.assert_allclose(out, expected, atol=1e-12)
    row_nnz = lambda m: np.diff(m.indptr)
    assert counted == int(row_nnz(a) @ row_nnz(b))
    np.testing.assert_allclose(sparse_gram(a), a.toarray().T @ a.toarray(), atol=1e-12)
    with pytest.raises(ValueError):
        sparse_gram(a, random_sparse(14, 4, 0.5, seed=7))


def test_thin_qr_factors_and_sign_convention():
    m = rng_for(8).standard_normal((9, 4))
    q, r = thin_qr(m)
    np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(q @ r, m, atol=1e-12)
    np.testing.assert_allclose(r, np.triu(r), atol=0.0)
    assert np.all(np.diag(r) >= 0.0)


def test_thin_qr_is_deterministic_and_rejects_wide_input():
    m = rng_for(9).standard_normal((6, 3))
    q1, r1 = thin_qr(m)
    q2, r2 = thin_qr(m.copy())
    assert np.array_equal(q1, q2) and np.array_equal(r1, r2)
    with pytest.raises(ValueError):
        thin_qr(np.zeros((2, 5)))
    with pytest.raises(ValueError):
        thin_qr(np.zeros((4, 0)))


def test_rank_deficient_columns_flags_small_diagonals():
    r = np.diag([3.0, 1e-30, 2.0])
    assert rank_deficient_columns(r).tolist() == [1]
    assert rank_deficient_columns(np.diag([1.0, 1.0])).size == 0
    # all-zero factor: every column is deficient
    assert rank_deficient_columns(np.zeros((3, 3))).tolist() == [0, 1, 2]


def test_gram_diagonal_matches_naive_column_norms():
    a = random_sparse(20, 6, 0.4, seed=10)
    dense = a.toarray()
    expected = [sum(dense[i, j] ** 2 for i in range(20)) for j in range(6)]
    np.testing.assert_allclose(gram_diagonal(a), expected, atol=1e-12)
    empty = ic.as_sparse(np.zeros((4, 3)))
    np.testing.assert_allclose(gram_diagonal(empty), np.zeros(3), atol=0.0)


def test_gram_diagonal_in_chunks_sums_like_one_pass(monkeypatch):
    a = random_sparse(300, 7, 0.5, seed=37, col_scales=[1.0, 3.0, 0.0, 1e-3, 2.0, 5.0, 1.0])
    # np.bincount adds each column's squares in storage order too
    one_pass = np.bincount(a.indices, weights=a.data * a.data, minlength=7)
    for chunk in (1, 5, 64, 2**16):
        monkeypatch.setattr(ic.linalg, "_GRAM_CHUNK", chunk)
        assert gram_diagonal(a).tobytes() == one_pass.tobytes()


def test_gram_kernels_read_csc_input_as_the_matrix_it_holds():
    a = random_sparse(30, 8, 0.5, seed=36)
    csc = sparse.csc_array(a)
    diag = gram_diagonal(csc)
    assert diag.shape == (8,)
    assert diag.tobytes() == gram_diagonal(a).tobytes()
    before = sparse_work.total
    want = sparse_gram(a)
    csr_work = sparse_work.total - before
    before = sparse_work.total
    got = sparse_gram(csc)
    assert sparse_work.total - before == csr_work
    assert got.tobytes() == want.tobytes()


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
    sparse_dense_mul(a, np.ones((6, 2)))
    main_before = sparse_work.total
    seen = []

    def worker():
        seen.append(sparse_work.total)
        sparse_dense_mul(a, np.ones((6, 3)))
        seen.append(sparse_work.total)

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=30)
    assert not t.is_alive()
    assert seen == [0, a.nnz * 3]
    assert sparse_work.total == main_before


def tall_with_condition(n, k, cond, seed):
    rng = rng_for(seed)
    u = np.linalg.qr(rng.standard_normal((n, k)))[0]
    v = np.linalg.qr(rng.standard_normal((k, k)))[0]
    return (u * np.logspace(0, -np.log10(cond), k)) @ v.T


def householder_qr(m):
    q, r = np.linalg.qr(m)
    signs = np.where(np.diag(r) < 0, -1.0, 1.0)
    return q * signs, r * signs[:, None]


def test_thin_qr_tall_block_takes_one_cholesky_pass(monkeypatch):
    m = rng_for(20).standard_normal((5000, 60))
    passes = spy_on(monkeypatch, "_cholesky_pass")
    fallbacks = spy_on(monkeypatch, "_householder_qr")
    q, r = thin_qr(m)
    assert passes == [(5000, 60)] and fallbacks == []
    assert np.max(np.abs(q.T @ q - np.eye(60))) <= 1e-12
    assert np.max(np.abs(q @ r - m)) <= 1e-12 * np.max(np.abs(m))
    np.testing.assert_allclose(r, np.triu(r), atol=0.0)
    assert np.all(np.diag(r) >= 0.0)
    chol_r = np.linalg.cholesky(m.T @ m).T
    assert np.array_equal(r, chol_r) and np.array_equal(q, m @ np.linalg.inv(chol_r))
    q2, r2 = thin_qr(m.copy())
    assert q.tobytes() == q2.tobytes() and r.tobytes() == r2.tobytes()


@pytest.mark.parametrize(
    "n, cond, fast", [(5000, 1e5, True), (5000, 1e7, False), (5000, 1e9, False), (500, 1e7, False)]
)
def test_thin_qr_guard_sends_ill_conditioned_tall_blocks_to_householder(monkeypatch, n, cond, fast):
    m = tall_with_condition(n, 20, cond, seed=22)
    passes = spy_on(monkeypatch, "_cholesky_pass")
    fallbacks = spy_on(monkeypatch, "_householder_qr")
    q, r = thin_qr(m)
    assert np.max(np.abs(q.T @ q - np.eye(20))) <= 1e-12
    assert np.all(np.diag(r) >= 0.0)
    assert passes == [(n, 20)] * (2 if fast else 1)
    assert fallbacks == ([] if fast else [(n, 20)])
    if not fast:
        hq, hr = householder_qr(m)
        assert np.array_equal(q, hq) and np.array_equal(r, hr)


@pytest.mark.parametrize("n, k", [(5000, 20), (100_000, 60)])
def test_thin_qr_accepts_blocks_just_inside_the_guard_at_full_accuracy(monkeypatch, n, k):
    m = tall_with_condition(n, k, 0.9 * ic.linalg._CHOLQR2_MAX_COND, seed=27)
    passes = spy_on(monkeypatch, "_cholesky_pass")
    fallbacks = spy_on(monkeypatch, "_householder_qr")
    q, r = thin_qr(m)
    assert passes == [(n, k)] * 2 and fallbacks == []
    assert np.max(np.abs(q.T @ q - np.eye(k))) <= 1e-12
    assert np.max(np.abs(q @ r - m)) <= 1e-12 * np.max(np.abs(m))
    assert np.all(np.diag(r) >= 0.0)


@pytest.mark.parametrize("n, k", [(60, 15), (500, 60), (999, 20), (2000, 10), (20_000, 40)])
@pytest.mark.parametrize(
    "cond, passes",
    [(2.0, 1), (4.0, 1), (8.0, 1), (0.99 * ic.linalg._CHOLQR_ONE_PASS_MAX_COND, 1), (64.0, 2)],
)
def test_thin_qr_takes_the_second_cholesky_pass_only_above_the_one_pass_bound(
    monkeypatch, n, k, cond, passes
):
    m = tall_with_condition(n, k, cond, seed=28)
    seen = spy_on(monkeypatch, "_cholesky_pass")
    q, r = thin_qr(m)
    assert seen == [(n, k)] * passes
    assert np.max(np.abs(q.T @ q - np.eye(k))) <= 1e-13
    assert np.max(np.abs(q @ r - m)) <= 1e-12 * np.max(np.abs(m))
    assert np.all(np.diag(r) >= 0.0)


@pytest.mark.parametrize(
    "cond, path", [(4.0, "one pass"), (64.0, "two passes"), (1e9, "householder")]
)
def test_thin_qr_deferred_gives_thin_qr_as_base_times_to_q(cond, path):
    m = tall_with_condition(3000, 20, cond, seed=29)
    want = thin_qr(m)
    base, to_q, r = thin_qr_deferred(m)
    assert r.tobytes() == want.r.tobytes()
    assert (base @ to_q).tobytes() == want.q.tobytes()
    # one pass leaves q unformed; Householder has nothing left to apply
    assert (base is m) == (path == "one pass")
    assert np.array_equal(to_q, np.eye(20)) == (path == "householder")


@pytest.mark.parametrize("n", [500, 5000])
def test_thin_qr_flags_duplicated_column_like_householder(n):
    m = rng_for(23).standard_normal((n, 20))
    m[:, 13] = m[:, 4]
    _, r = thin_qr(m)
    expected = rank_deficient_columns(np.linalg.qr(m)[1])
    assert expected.tolist() == [13]
    assert rank_deficient_columns(r).tolist() == expected.tolist()


def test_orthonormalize_iterate_restarts_collapsed_tall_iterate():
    side = random_sparse(3000, 40, 0.05, seed=24)
    m = sparse_dense_mul(side, rng_for(25).standard_normal((40, 8)))
    m[:, 5] = m[:, 2]
    restarts = []
    q = ic.cca._orthonormalize_iterate(m, side, rng_for(26), restarts, t=3)
    assert restarts == [3]
    assert q.shape == (3000, 8)
    assert np.max(np.abs(q.T @ q - np.eye(8))) <= 1e-12


def fixed_row_nnz(n, p, per_row, seed):
    """Canonical CSR with exactly per_row distinct columns in each row."""
    rng = rng_for(seed)
    cols = np.argsort(rng.random((n, p)), axis=1)[:, :per_row]
    rows = np.repeat(np.arange(n), per_row)
    return ic.as_sparse((rng.standard_normal(n * per_row), (rows, cols.ravel())), shape=(n, p))


@pytest.fixture
def spy_blocks(monkeypatch):
    """Record the row ranges of every product that took the parallel path.

    A serial float64 CSR product runs through _map_blocks too, with a
    single range; it is not recorded.
    """
    seen = []
    original = ic.linalg._map_blocks

    def spy(fn, ranges):
        if len(ranges) > 1:
            seen.append(ranges)
        return original(fn, ranges)

    monkeypatch.setattr(ic.linalg, "_map_blocks", spy)
    return seen


@pytest.fixture
def row_threads(monkeypatch):
    """set(threads): run the row blocks on `threads` threads from then on.

    Sets linalg's _ROW_BLOCKS and a pool of threads - 1 workers together,
    as the import does; the pools are shut down at teardown.
    """
    pools = {}

    def set_threads(threads):
        if threads > 1 and threads not in pools:
            pools[threads] = ThreadPoolExecutor(threads - 1, thread_name_prefix="itercca-rows")
        monkeypatch.setattr(ic.linalg, "_ROW_BLOCKS", threads)
        monkeypatch.setattr(ic.linalg, "_pool", pools.get(threads))

    yield set_threads
    for pool in pools.values():
        pool.shutdown(wait=False)


def products_at(row_threads, threads, a, b, c):
    """(a @ b, a.T @ c) made with `threads` threads running the row blocks."""
    row_threads(threads)
    return sparse_dense_mul(a, b), sparse_transpose_dense_mul(a, c)


@pytest.mark.parametrize("threads", [2, 3])
def test_row_blocked_products_match_serial(monkeypatch, spy_blocks, row_threads, threads):
    # eight blocks for the 2,400,000 multiplies of a product below
    monkeypatch.setattr(ic.linalg, "_ROW_BLOCK_MIN_WORK", 300_000)
    # 1,000 heavy rows of 100 entries over 5,000 light rows of 4: nnz 120,000
    a = ic.as_sparse(sparse.vstack([fixed_row_nnz(1000, 300, 100, seed=30),
                                    fixed_row_nnz(5000, 300, 4, seed=29)]))
    b = rng_for(31).standard_normal((300, 20))
    c = rng_for(32).standard_normal((6000, 20))
    out, t = products_at(row_threads, threads, a, b, c)
    assert out.tobytes() == (a @ b).tobytes()
    ref = a.T @ c
    assert np.max(np.abs(t - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert all(sparse_transpose_dense_mul(a, c).tobytes() == t.tobytes() for _ in range(3))
    # F-ordered operands give the same bytes as C-ordered ones
    assert sparse_dense_mul(a, np.asfortranarray(b)).tobytes() == out.tobytes()
    assert sparse_transpose_dense_mul(a, np.asfortranarray(c)).tobytes() == t.tobytes()
    assert len(spy_blocks) == 7
    # every thread count gives the same bytes from the same blocks
    for other in (1, 2, 3):
        again, again_t = products_at(row_threads, other, a, b, c)
        assert again.tobytes() == out.tobytes() and again_t.tobytes() == t.tobytes()
    ranges = spy_blocks[0]
    assert all(seen == ranges for seen in spy_blocks)
    assert len(ranges) == ic.linalg._BLOCKS == 8
    assert ranges[0][0] == 0 and ranges[-1][1] == a.shape[0]
    assert all(r1 == s0 for (_, r1), (s0, _) in zip(ranges, ranges[1:]))
    # nnz-balanced, not row-balanced: each block is within one heavy row of its share
    block_nnz = [a.indptr[r1] - a.indptr[r0] for r0, r1 in ranges]
    assert all(abs(m - a.nnz / len(ranges)) <= 100 for m in block_nnz)


@pytest.mark.parametrize("threads", [2, 3])
def test_row_blocked_edge_cases(monkeypatch, spy_blocks, row_threads, threads):
    monkeypatch.setattr(ic.linalg, "_ROW_BLOCK_MIN_WORK", 1)
    rng = rng_for(33)
    dense = rng.standard_normal((50, 12)) * (rng.random((50, 12)) < 0.3)
    dense[10:40] = 0.0  # a run of empty rows across the cuts
    cases = [
        ic.as_sparse(dense),
        ic.as_sparse(np.zeros((7, 4))),  # nnz == 0
        ic.as_sparse(rng.standard_normal((2, 5))),  # fewer rows than threads
        ic.as_sparse(dense[:1]),  # a single row
    ]
    for a in cases:
        for k in (1, 4):
            b = rng.standard_normal((a.shape[1], k))
            c = rng.standard_normal((a.shape[0], k))
            out, t = products_at(row_threads, threads, a, b, c)
            assert out.shape == (a.shape[0], k)
            assert out.tobytes() == (a @ b).tobytes()
            ref = a.T @ c
            assert t.shape == (a.shape[1], k)
            np.testing.assert_allclose(t, ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref), initial=0.0))
            for other in (1, 2, 3):
                again, again_t = products_at(row_threads, other, a, b, c)
                assert again.tobytes() == out.tobytes() and again_t.tobytes() == t.tobytes()
    # the blocked path ran on the cases that have two non-empty ranges
    assert spy_blocks and all(1 < len(r) <= ic.linalg._BLOCKS for r in spy_blocks)
    assert all(r0 < r1 for ranges in spy_blocks for r0, r1 in ranges)


def test_row_blocks_start_at_the_work_threshold(spy_blocks, row_threads):
    row_threads(2)
    k = 5
    nnz = ic.linalg._ROW_BLOCK_MIN_WORK // k
    rows = np.arange(nnz)
    at = ic.as_sparse((rng_for(34).standard_normal(nnz), (rows, rows % 10)), shape=(nnz, 10))
    below = ic.as_sparse(at[: nnz - 1])
    assert at.nnz * k == ic.linalg._ROW_BLOCK_MIN_WORK and below.nnz == nnz - 1
    b = rng_for(35).standard_normal((10, k))
    assert sparse_dense_mul(below, b).tobytes() == (below @ b).tobytes()
    assert spy_blocks == []
    assert sparse_dense_mul(at, b).tobytes() == (at @ b).tobytes()
    assert len(spy_blocks) == 1


def test_block_count_follows_the_work_alone(monkeypatch, row_threads):
    a = fixed_row_nnz(4000, 50, 5, seed=58)  # nnz 20,000
    monkeypatch.setattr(ic.linalg, "_ROW_BLOCK_MIN_WORK", 100_000)
    counts = {}
    for threads in (1, 2, 3):
        row_threads(threads)
        counts[threads] = [len(ic.linalg._row_ranges(a, k)) for k in (4, 5, 14, 15, 40, 45, 400)]
    # one block per 100,000 multiplies, at least two and at most eight
    assert counts[1] == counts[2] == counts[3] == [1, 2, 2, 3, 8, 8, 8]


def test_row_blocks_leave_other_formats_and_dtypes_serial(monkeypatch, row_threads):
    row_threads(2)
    monkeypatch.setattr(ic.linalg, "_ROW_BLOCK_MIN_WORK", 1)
    a = random_sparse(30, 8, 0.5, seed=36)
    b = rng_for(37).standard_normal((8, 3))
    for other in (sparse.csc_array(a), sparse.csr_array(a, dtype=np.float32)):
        assert sparse_dense_mul(other, b).tobytes() == (other @ b).tobytes()


def test_callers_sharing_the_row_pool_count_their_own_work(spy_blocks, row_threads):
    row_threads(2)
    a = fixed_row_nnz(6000, 300, 20, seed=38)
    b = rng_for(39).standard_normal((300, 20))
    c = rng_for(40).standard_normal((6000, 20))
    want_out, want_t = a @ b, sparse_transpose_dense_mul(a, c)
    seen, bad = [], []

    def caller(reps):
        before = sparse_work.total
        for _ in range(reps):
            if sparse_dense_mul(a, b).tobytes() != want_out.tobytes():
                bad.append("a @ b")
            if sparse_transpose_dense_mul(a, c).tobytes() != want_t.tobytes():
                bad.append("a.T @ c")
        seen.append((reps, sparse_work.total - before))

    threads = [threading.Thread(target=caller, args=(reps,)) for reps in (3, 4, 5)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []
    assert sorted(seen) == [(reps, reps * 2 * a.nnz * 20) for reps in (3, 4, 5)]
    assert len(spy_blocks) == 1 + 2 * (3 + 4 + 5)


@pytest.mark.parametrize("failing", ["pool", "caller"])
def test_a_failing_block_reaches_the_caller_after_every_block_ends(row_threads, failing):
    row_threads(2)
    ranges = [(0, 1), (1, 2), (2, 3), (3, 4)]  # the caller runs the first two, the pool the rest
    bad = (3, 4) if failing == "pool" else (1, 2)
    ended, ran_on = [], {}

    def block(r0, r1):
        ran_on[r0, r1] = threading.current_thread()
        if r0 >= 2:
            time.sleep(0.05)  # the pool's blocks end well after the caller's
        if (r0, r1) == bad:
            raise RuntimeError(f"block {r0}")
        ended.append((r0, r1))

    with pytest.raises(RuntimeError, match=f"block {bad[0]}"):
        ic.linalg._map_blocks(block, ranges)
    assert sorted(ended) == [r for r in ranges if r != bad]
    assert ran_on[0, 1] is threading.current_thread()
    assert ran_on[2, 3] is ran_on[3, 4] is not threading.current_thread()


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_sparse_dense_mul_into_out_is_bitwise_the_call_without(row_threads, threads):
    row_threads(threads)
    skewed = ic.as_sparse(sparse.vstack([fixed_row_nnz(1000, 300, 100, seed=30),
                                         fixed_row_nnz(5000, 300, 4, seed=29)]))
    small = random_sparse(30, 8, 0.5, seed=36)
    # k = 20 on the skewed matrix crosses the row-block threshold, k = 1 does not
    for a in (skewed, small, sparse.csc_array(small)):
        for k in (1, 20):
            b = rng_for(42).standard_normal((a.shape[1], k))
            out = np.full((a.shape[0], k), np.nan)  # stale contents are overwritten
            assert sparse_dense_mul(a, b, out=out) is out
            assert out.tobytes() == sparse_dense_mul(a, b).tobytes()


def read_only(shape):
    a = np.zeros(shape)
    a.flags.writeable = False
    return a


# a 6-by-4 operand, a 5-by-5 one, and a writable 6-by-3 b shared by the aliasing rows
REFUSE_A = random_sparse(6, 4, 0.5, seed=43)
REFUSE_SQUARE = random_sparse(5, 5, 0.6, seed=46)
REFUSE_B = rng_for(52).standard_normal((6, 3))


def mul_out(out):
    return sparse_dense_mul(REFUSE_A, np.ones((4, 3)), out=out)


def mul_b(b):
    return sparse_dense_mul(REFUSE_A, b)


def mul_col_sq(col_sq):
    return sparse_dense_mul(REFUSE_A, np.ones((4, 3)), col_sq=col_sq)


def minus_b(b):
    return sparse_transpose_dense_mul(REFUSE_A, b, minus=(np.ones((6, 3)), np.ones(3)))


def minus_m(m):
    return sparse_transpose_dense_mul(REFUSE_A, np.zeros((6, 3)), minus=(m, np.ones(3)))


def minus_s(s):
    return sparse_transpose_dense_mul(REFUSE_A, np.zeros((6, 3)), minus=(np.ones((6, 3)), s))


def minus_aliased_m(m):
    return sparse_transpose_dense_mul(REFUSE_A, REFUSE_B, minus=(m, np.ones(3)))


# (call, name of the argument the error must start with, bad value)
DENSE_REFUSALS = [
    pytest.param(mul_out, "out", np.empty((6, 2)), id="out-shape"),
    pytest.param(mul_out, "out", np.empty((6, 3), dtype=np.float32), id="out-dtype"),
    pytest.param(mul_out, "out", np.empty((6, 3), order="F"), id="out-layout"),
    pytest.param(mul_out, "out", read_only((6, 3)), id="out-read-only"),
    # out is zeroed before b is read, so an aliased out would read back zeros
    pytest.param(lambda b: sparse_dense_mul(REFUSE_SQUARE, b, out=b), "out",
                 rng_for(47).standard_normal((5, 5)), id="out-is-b"),
    pytest.param(minus_b, "b", np.zeros((6, 3), order="F"), id="b-layout"),
    pytest.param(minus_b, "b", np.zeros((6, 3), dtype=np.float32), id="b-dtype"),
    pytest.param(minus_b, "b", read_only((6, 3)), id="b-read-only"),
    pytest.param(minus_b, "b", np.zeros((6, 3)).tolist(), id="b-list"),
    pytest.param(minus_b, "b", np.zeros((12, 3))[::2], id="b-strided"),
    # m is read while b is updated
    pytest.param(minus_aliased_m, "b", REFUSE_B, id="m-is-b"),
    pytest.param(minus_aliased_m, "b", REFUSE_B[:, ::-1], id="m-reversed-b"),
    pytest.param(minus_aliased_m, "b", REFUSE_B.T.T, id="m-view-of-b"),
    pytest.param(minus_m, "m", np.ones((6, 2)), id="m-columns"),
    pytest.param(minus_m, "m", np.ones((5, 3)), id="m-rows"),
    pytest.param(minus_s, "s", np.ones(2), id="s-length"),
    pytest.param(minus_s, "s", np.ones((3, 1)), id="s-2d"),
    pytest.param(mul_col_sq, "col_sq", np.zeros(2), id="col_sq-length"),
    pytest.param(mul_col_sq, "col_sq", np.zeros((3, 1)), id="col_sq-2d"),
    pytest.param(mul_col_sq, "col_sq", np.zeros(3, dtype=np.float32), id="col_sq-dtype"),
    pytest.param(mul_col_sq, "col_sq", [0.0] * 3, id="col_sq-list"),
    pytest.param(mul_col_sq, "col_sq", read_only(3), id="col_sq-read-only"),
    # input numpy cannot read as float64 at all
    pytest.param(mul_b, "b", [[1, 2, 3], [1, 2]], id="b-ragged"),
    pytest.param(mul_b, "b", "abc", id="b-text"),
    pytest.param(mul_b, "b", {"a": 1}, id="b-dict"),
]


@pytest.mark.parametrize("call, name, bad", DENSE_REFUSALS)
def test_kernels_refuse_a_bad_dense_argument_by_name_before_any_product(call, name, bad):
    def snapshot(v):
        return v.tobytes() if isinstance(v, np.ndarray) else repr(v)

    before_bytes = snapshot(bad)
    before = sparse_work.total
    with pytest.raises(ValueError, match=f"^{name} must "):
        call(bad)
    assert sparse_work.total == before
    assert snapshot(bad) == before_bytes


def test_check_block_converts_what_it_reads_and_passes_what_it_writes_through():
    ints = [[1, 2], [3, 4]]
    assert ic.linalg.check_block("a", ints, (2, None)).dtype == np.float64
    buf = np.zeros((2, 3))
    assert ic.linalg.check_block("buf", buf, (None, 3), writes=True) is buf
    message = r"^a must be a float64 array of shape \(3,\), got shape \(2, 2\)$"
    with pytest.raises(ValueError, match=message):
        ic.linalg.check_block("a", ints, (3,))
    with pytest.raises(ValueError, match=r"^buf must be a writable C-contiguous float64 array "
                                         r"of shape \(2, any\), got shape \(3, 2\)$"):
        ic.linalg.check_block("buf", buf.T, (2, None), writes=True)


def test_transpose_product_reads_any_b_without_minus():
    # the b values refused above are only read when minus is absent
    want = sparse_transpose_dense_mul(REFUSE_A, np.zeros((6, 3))).tobytes()
    for b in (np.zeros((6, 3), order="F"), np.zeros((6, 3), dtype=np.float32),
              read_only((6, 3)), np.zeros((6, 3)).tolist(), np.zeros((12, 3))[::2]):
        assert sparse_transpose_dense_mul(REFUSE_A, b).tobytes() == want


def fused_products(a, b, g, m, s):
    """Bytes of both fused kernels: a.T @ (b - m * s) with the updated b, and a @ g with col_sq."""
    b = b.copy()
    t = sparse_transpose_dense_mul(a, b, minus=(m, s))
    col_sq = np.full(g.shape[1], np.nan)
    out = sparse_dense_mul(a, g, col_sq=col_sq)
    return [t.tobytes(), b.tobytes(), out.tobytes(), col_sq.tobytes()]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_fused_kernels_match_the_separate_passes(monkeypatch, row_threads, threads):
    row_threads(threads)
    monkeypatch.setattr(ic.linalg, "_ROW_BLOCK_MIN_WORK", 300_000)
    skewed = ic.as_sparse(sparse.vstack([fixed_row_nnz(1000, 300, 100, seed=30),
                                         fixed_row_nnz(5000, 300, 4, seed=29)]))
    small = random_sparse(30, 8, 0.5, seed=36)
    # k = 20 on the skewed matrix is cut into row blocks, the rest is one block
    for a, k in ((skewed, 20), (skewed, 1), (small, 3), (small, 0)):
        rng = rng_for(48)
        b = rng.standard_normal((a.shape[0], k))
        m = rng.standard_normal((a.shape[0], k))
        s = rng.standard_normal(k)
        g = rng.standard_normal((a.shape[1], k))
        updated = b.copy()
        t = sparse_transpose_dense_mul(a, updated, minus=(np.asfortranarray(m), s))
        # the same elementwise arithmetic as the broadcast, and the product of its result
        assert updated.tobytes() == (b - m * s).tobytes()
        assert t.tobytes() == sparse_transpose_dense_mul(a, updated).tobytes()
        updated = b.copy()
        t = sparse_transpose_dense_mul(a, updated, minus=(m, None))
        assert updated.tobytes() == (b - m).tobytes()
        assert t.tobytes() == sparse_transpose_dense_mul(a, updated).tobytes()
        col_sq = np.full(k, np.nan)
        out = sparse_dense_mul(a, g, col_sq=col_sq)
        assert out.tobytes() == (a @ g).tobytes()
        np.testing.assert_allclose(col_sq, np.sum(out * out, axis=0), rtol=1e-13)


def test_fused_kernels_under_more_threads_than_cores_keep_the_one_thread_bytes(
    monkeypatch, row_threads
):
    monkeypatch.setattr(ic.linalg, "_ROW_BLOCK_MIN_WORK", 300_000)  # eight blocks
    a = fixed_row_nnz(6000, 300, 20, seed=55)
    rng = rng_for(56)
    b, m = rng.standard_normal((6000, 20)), rng.standard_normal((6000, 20))
    s, g = rng.standard_normal(20), rng.standard_normal((300, 20))
    row_threads(1)
    want = fused_products(a, b, g, m, s)
    row_threads(ic.linalg._usable_cores() + 3)  # a pool with one worker per extra thread
    bad, done = [], []

    def caller():
        for _ in range(20):
            if fused_products(a, b, g, m, s) != want:
                bad.append("bytes")
        done.append(True)

    worker = threading.Thread(target=caller)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert done == [True] and bad == []


def test_as_sparse_returns_its_own_output_unchanged():
    m = ic.as_sparse(random_sparse(20, 6, 0.4, seed=41).toarray())
    assert ic.as_sparse(m) is m
    assert ic.as_sparse(m, shape=m.shape, name="x") is m
    assert ic.as_sparse(ic.as_sparse(m)) is ic.as_sparse(m)


def test_as_sparse_still_copies_and_checks_foreign_canonical_csr():
    foreign = sparse.csr_array(np.eye(3))
    assert foreign.has_canonical_format
    m = ic.as_sparse(foreign)
    assert m is not foreign and not np.shares_memory(m.data, foreign.data)
    assert not m.data.flags.writeable
    bad = sparse.csr_array(np.diag([1.0, np.nan, 1.0]))
    with pytest.raises(ic.NonFiniteError, match="y holds 1 non-finite"):
        ic.as_sparse(bad, name="y")


def test_as_sparse_rechecks_a_marked_matrix_given_another_shape_or_tampered():
    m = ic.as_sparse(np.eye(3))
    with pytest.raises(ValueError):
        ic.as_sparse(m, shape=(5, 5))
    m.data.flags.writeable = True
    again = ic.as_sparse(m)
    assert again is not m and not np.shares_memory(again.data, m.data)
    swapped = ic.as_sparse(np.eye(3))
    swapped.data = np.array([1.0, np.inf, 1.0])
    with pytest.raises(ic.NonFiniteError):
        ic.as_sparse(swapped)


def test_l_cca_on_canonical_inputs_makes_no_copies(monkeypatch):
    class CountingSparse:
        """scipy.sparse with every csr_array construction counted."""

        calls = 0

        def __getattr__(self, name):
            return getattr(sparse, name)

        def csr_array(self, *args, **kwargs):
            CountingSparse.calls += 1
            return sparse.csr_array(*args, **kwargs)

    spec = ic.SynthSpec(n=400, p1=30, p2=25, k_shared=3, planted_corrs=(0.9, 0.8, 0.7),
                        spectrum_decay=0.5, density=0.3, seed=42)
    x, y, _ = ic.synth_correlated(spec)
    expected = ic.l_cca(x, y, 3, 3, ic.LingConfig(k_pc=5, t2=2, seed=1))
    monkeypatch.setattr(ic.linalg, "sparse", CountingSparse())
    ic.as_sparse(x.toarray())
    assert CountingSparse.calls == 1  # the wrapper sees as_sparse's copies
    got = ic.l_cca(x, y, 3, 3, ic.LingConfig(k_pc=5, t2=2, seed=1))
    assert CountingSparse.calls == 1
    assert got.x_basis.tobytes() == expected.x_basis.tobytes()
    assert got.correlations.tobytes() == expected.correlations.tobytes()


@pytest.mark.parametrize("value", ["0", "-1", "2.5", "two", " 2", "²"])
def test_import_rejects_thread_count_that_is_not_a_positive_integer(value):
    src = str(Path(ic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "ITERCCA_THREADS": value}
    done = subprocess.run([sys.executable, "-c", "import itercca"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "ValueError: ITERCCA_THREADS must be a positive integer" in done.stderr


def test_import_sizes_row_blocks_and_blas_timeout_from_thread_count():
    src = str(Path(ic.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_THREAD_TIMEOUT", "NUMEXPR_NUM_THREADS")}
    env.update(PYTHONPATH=src, ITERCCA_THREADS="2")
    code = ("import os, itercca; "
            "print(itercca.linalg._ROW_BLOCKS, os.environ['OPENBLAS_THREAD_TIMEOUT'], "
            "os.environ.get('NUMEXPR_NUM_THREADS'))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # numexpr is no dependency, so its thread count stays its user's
    assert done.stdout.split() == [str(min(2, cores)), "4", "None"]


FORK_AND_COMPARE = """
import os, signal, sys, threading, time
import numpy as np
import itercca as ic
from itercca.linalg import sparse_dense_mul, sparse_transpose_dense_mul

rng = np.random.Generator(np.random.PCG64(59))
n, p, per_row, k = 20_000, 200, 12, 10  # nnz * k = 2,400,000: two row blocks
cols = np.argsort(rng.random((n, p)), axis=1)[:, :per_row]
rows = np.repeat(np.arange(n), per_row)
a = ic.as_sparse((rng.standard_normal(n * per_row), (rows, cols.ravel())), shape=(n, p))
b, c = rng.standard_normal((p, k)), rng.standard_normal((n, k))


def products():
    return sparse_dense_mul(a, b).tobytes() + sparse_transpose_dense_mul(a, c).tobytes()


want = products()
assert ic.linalg._ROW_BLOCKS == 2
assert any(t.name.startswith("itercca-rows") for t in threading.enumerate())
pid = os.fork()
if pid == 0:
    os._exit(0 if products() == want else 3)
deadline = time.monotonic() + 30
while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
    if time.monotonic() > deadline:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        sys.exit("the forked child's products did not return within 30 s")
    time.sleep(0.01)
print(os.waitstatus_to_exitcode(done[1]))
"""


def test_forked_child_runs_row_blocked_products_with_the_parents_bytes():
    if ic.linalg._usable_cores() < 2 or not hasattr(os, "fork"):
        pytest.skip("needs two usable cores and os.fork")
    src = str(Path(ic.__file__).resolve().parents[1])
    # its own process: forking a process with threads warns on Python 3.12
    env = {**os.environ, "PYTHONPATH": src, "ITERCCA_THREADS": "2"}
    done = subprocess.run([sys.executable, "-c", FORK_AND_COMPARE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]


SOLVE_AND_HASH = """
import hashlib
import numpy as np
import itercca as ic

rng = np.random.Generator(np.random.PCG64(57))
n, per_row = 20_000, 12


def side(p):
    cols = np.argsort(rng.random((n, p)), axis=1)[:, :per_row]
    rows = np.repeat(np.arange(n), per_row)
    return ic.as_sparse((rng.standard_normal(n * per_row), (rows, cols.ravel())), shape=(n, p))


x, y = side(200), side(150)
# k_cca = 10 makes nnz * k = 2,400,000, past the row-block threshold
runs = {
    "l_cca": lambda: ic.l_cca(x, y, 10, 3, ic.LingConfig(k_pc=20, t2=2, seed=1)),
    "g_cca": lambda: ic.g_cca(x, y, 10, 3, 2, seed=1),
    "d_cca": lambda: ic.d_cca(x, y, 10, 3, seed=1),
    "rp_cca": lambda: ic.rp_cca(x, y, 10, 30, seed=1),
}
print(ic.linalg._ROW_BLOCKS)
for name, run in runs.items():
    r = run()
    digest = hashlib.sha256()
    for part in (r.x_basis, r.y_basis, r.correlations):
        digest.update(np.ascontiguousarray(part).tobytes())
    print(name, digest.hexdigest())
"""


def test_solvers_give_the_same_bytes_at_one_and_two_threads():
    if ic.linalg._usable_cores() < 2:
        pytest.skip("two threads need two usable cores")
    src = str(Path(ic.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        # OpenBLAS rounds the dense products by its own thread count, so pin it
        env = {**os.environ, "PYTHONPATH": src, "ITERCCA_THREADS": threads,
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        done = subprocess.run([sys.executable, "-c", SOLVE_AND_HASH], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        outputs.append(done.stdout.split("\n"))
    assert [lines[0] for lines in outputs] == ["1", "2"]
    assert outputs[0][1:] == outputs[1][1:]
