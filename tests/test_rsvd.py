"""Randomized range-finder tests against a dense eigendecomposition oracle."""

import numpy as np
import pytest
import scipy.linalg

import itercca as ic
from itercca.linalg import (
    sparse_dense_mul,
    sparse_transpose_dense_mul,
    sparse_work,
    thin_qr,
)
from itercca.rsvd import OVERSAMPLE, randomized_top_singulars

from conftest import cliff_sparse, controlled_spectrum, random_sparse, rng_for, spy_on


def top_left_singulars_oracle(a_sparse, k):
    """Exact top-k left singular subspace via eigh of the dense Gram."""
    ad = a_sparse.toarray()
    evals, evecs = scipy.linalg.eigh(ad.T @ ad)
    order = np.argsort(evals)[::-1]
    sig = np.sqrt(np.maximum(evals[order], 0.0))
    v = evecs[:, order[:k]]
    return ad @ v / sig[:k], sig


def residual_dist(qa, qb):
    """Largest principal-angle sine between two orthonormal column spans."""
    one = scipy.linalg.svd(qb - qa @ (qa.T @ qb), compute_uv=False)[0]
    other = scipy.linalg.svd(qa - qb @ (qb.T @ qa), compute_uv=False)[0]
    return max(one, other)


def test_recovers_gapped_top_subspace_within_tolerance():
    a = cliff_sparse(3)
    u_exact, sig = top_left_singulars_oracle(a, 5)
    basis = randomized_top_singulars(a, 5, power_iters=3, seed=0)
    assert basis.u1.shape == (60, 5)
    assert residual_dist(basis.u1, u_exact) <= 1e-6
    np.testing.assert_allclose(basis.singular_estimates, sig[:5], rtol=1e-10)
    assert not basis.rank_deficient


def test_deterministic_for_fixed_seed():
    a = random_sparse(40, 20, 0.3, seed=7)
    b1 = randomized_top_singulars(a, 6, power_iters=2, seed=42)
    b2 = randomized_top_singulars(a, 6, power_iters=2, seed=42)
    assert np.array_equal(b1.u1, b2.u1)
    assert np.array_equal(b1.singular_estimates, b2.singular_estimates)
    b3 = randomized_top_singulars(a, 6, power_iters=2, seed=43)
    assert not np.array_equal(b1.u1, b3.u1)


def test_basis_is_orthonormal():
    a = random_sparse(50, 25, 0.4, seed=8)
    for q in (0, 1, 3):
        u1 = randomized_top_singulars(a, 8, power_iters=q, seed=1).u1
        gram = u1.T @ u1
        assert np.max(np.abs(gram - np.eye(u1.shape[1]))) <= 1e-8


def test_captured_energy_non_decreasing_in_power_iters():
    a = random_sparse(60, 30, 0.5, seed=9)
    energies = []
    for q in (0, 1, 2, 4):
        u1 = randomized_top_singulars(a, 5, power_iters=q, seed=2).u1
        energies.append(np.linalg.norm(u1.T @ a.toarray()))
    diffs = np.diff(energies)
    assert np.all(diffs >= -1e-10)


def test_exact_for_k_equal_rank():
    a = random_sparse(30, 10, 0.6, seed=10)
    basis = randomized_top_singulars(a, 10, power_iters=0, seed=0)
    # sketch width reaches the full rank, so the span is exact
    proj = basis.u1 @ (basis.u1.T @ a.toarray())
    np.testing.assert_allclose(proj, a.toarray(), atol=1e-10)


def duplicated_rank_two(seed):
    rank2 = np.outer(np.arange(1.0, 7.0), np.ones(4))
    rank2[:, 1] = np.arange(6.0)
    return np.hstack([rank2, rank2])


def graded_rank(n, p, r, scale):
    """Draws of an n-by-p matrix of rank r, singular values over three decades."""
    def draw(seed):
        rng = rng_for(seed)
        return (rng.standard_normal((n, r)) * np.logspace(0, -3, r)) @ (
            rng.standard_normal((r, p)) * scale
        )
    return draw


@pytest.mark.parametrize("draw, r, k, seed", [
    pytest.param(duplicated_rank_two, 2, 5, 0, id="6x8-rank2"),
    # the sketch's QR diagonal falls to ~1e-3 of its largest entry at the
    # r-th column and to rounding after it
    *(pytest.param(graded_rank(n, p, r, scale), r, k, seed, id=f"{n}x{p}-rank{r}-seed{seed}")
      for n, p, r, k, scale in [(1000, 50, 5, 10, 1.0), (2000, 300, 20, 40, 1.0),
                                (5000, 500, 30, 60, 1e3), (500, 2000, 7, 20, 1.0),
                                (3000, 400, 10, 30, 1e-5)]
      for seed in range(3)),
])
def test_rank_deficient_input_truncates_and_flags(draw, r, k, seed):
    a = draw(seed)
    basis = randomized_top_singulars(ic.as_sparse(a), k, power_iters=2, seed=seed)
    assert basis.rank_deficient
    assert basis.u1.shape == (a.shape[0], r)
    u = scipy.linalg.svd(a, full_matrices=False)[0][:, :r]
    assert np.linalg.norm(basis.u1 - u @ (u.T @ basis.u1), axis=0).max() <= 1e-10


def test_oversample_capped_by_matrix_size():
    a = random_sparse(12, 5, 0.8, seed=11)
    basis = randomized_top_singulars(a, 5, power_iters=1, seed=0)
    assert basis.u1.shape == (12, 5)


def test_singular_estimates_match_controlled_spectrum():
    spectrum = np.array([4.0, 3.0, 2.0, 1.5, 1.0, 0.5, 0.25, 0.1])
    a = controlled_spectrum(20, 8, spectrum, seed=12)
    basis = randomized_top_singulars(a, 8, power_iters=2, seed=0)
    np.testing.assert_allclose(basis.singular_estimates, spectrum, rtol=1e-9)


def test_invalid_arguments_rejected():
    a = random_sparse(10, 6, 0.5, seed=13)
    with pytest.raises(ValueError):
        randomized_top_singulars(a, 0)


@pytest.mark.parametrize("name, bad", [
    ("power_iters", -1), ("power_iters", 2.0), ("power_iters", True),
    ("seed", -1), ("seed", 2.5), ("seed", True),
])
def test_power_iters_and_seed_are_checked_before_any_product(name, bad):
    a = random_sparse(300, 40, 0.2, seed=13)
    before = sparse_work.total
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0"):
        randomized_top_singulars(a, 5, **{name: bad})
    assert sparse_work.total == before


@pytest.fixture
def qr_fallbacks(monkeypatch):
    """Blocks factored by Householder reflections, by thin_qr or as a fallback."""
    return spy_on(monkeypatch, "_householder_qr")


def test_cholesky_normalized_power_iterates_match_full_qr_reference(monkeypatch, qr_fallbacks):
    # p < n: the 1,200-row a.T iterates and the 3,000-row sketch take the Cholesky path
    scales = np.concatenate([np.full(5, 1.0), np.full(1195, 0.05)])
    a = random_sparse(3000, 1200, 0.01, seed=14, col_scales=scales)
    got = randomized_top_singulars(a, 5, power_iters=2, seed=3)
    again = randomized_top_singulars(a, 5, power_iters=2, seed=3)
    assert qr_fallbacks == []
    assert got.u1.tobytes() == again.u1.tobytes()
    assert got.singular_estimates.tobytes() == again.singular_estimates.tobytes()
    monkeypatch.setattr(ic.rsvd, "thin_qr", ic.linalg._householder_qr)

    def householder_deferred(m):
        q, r = ic.linalg._householder_qr(m)
        return q, np.eye(m.shape[1]), r

    monkeypatch.setattr(ic.rsvd, "thin_qr_deferred", householder_deferred)
    ref = randomized_top_singulars(a, 5, power_iters=2, seed=3)
    assert qr_fallbacks == [(1200, 15), (1200, 15), (3000, 15)]
    assert residual_dist(got.u1, ref.u1) <= 1e-10
    np.testing.assert_allclose(got.singular_estimates, ref.singular_estimates, rtol=1e-12)
    assert got.rank_deficient == ref.rank_deficient


@pytest.mark.parametrize("n, p", [(3000, 1200), (1200, 3000)])
def test_one_pass_sketch_matches_the_two_pass_sketch(monkeypatch, n, p):
    a = random_sparse(n, p, 0.01, seed=21)
    passes = spy_on(monkeypatch, "_cholesky_pass")
    one_pass = randomized_top_singulars(a, 5, power_iters=2, seed=5)
    assert passes.count((n, 15)) == 1
    # a zero one-pass limit forms q = z inv(r) and takes the second pass on it
    monkeypatch.setattr(ic.linalg, "_CHOLQR_ONE_PASS_MAX_COND", 0)
    del passes[:]
    two_pass = randomized_top_singulars(a, 5, power_iters=2, seed=5)
    assert passes.count((n, 15)) == 2
    assert residual_dist(one_pass.u1, two_pass.u1) <= 1e-12
    np.testing.assert_allclose(
        one_pass.singular_estimates, two_pass.singular_estimates, rtol=1e-12
    )
    assert np.max(np.abs(one_pass.u1.T @ one_pass.u1 - np.eye(5))) <= 1e-13


def test_rank_deficient_tall_sketch_falls_back_to_thin_qr_and_flags(monkeypatch, qr_fallbacks):
    guarded = spy_on(monkeypatch, "_cholesky_pass")
    # 300 copies of 4 columns: every 1,500-row and 1,200-row iterate has rank 4
    a = ic.as_sparse(np.hstack([random_sparse(1500, 4, 0.3, seed=15).toarray()] * 300))
    basis = randomized_top_singulars(a, 6, power_iters=2, seed=0)
    # p < n: two refused p-side iterates, then the refused final thin_qr
    assert qr_fallbacks == [(1200, 16), (1200, 16), (1500, 16)]
    assert guarded == qr_fallbacks  # each refused block ran the guard once
    assert basis.rank_deficient
    assert basis.u1.shape == (1500, 4)
    assert np.max(np.abs(basis.u1.T @ basis.u1 - np.eye(4))) <= 1e-12
    proj = basis.u1 @ (basis.u1.T @ a.toarray())
    np.testing.assert_allclose(proj, a.toarray(), atol=1e-10 * np.abs(a.data).max())


@pytest.mark.parametrize("n, p", [(3000, 400), (800, 300)])
def test_p_side_iterates_under_1000_rows_take_the_cholesky_path(monkeypatch, qr_fallbacks, n, p):
    guarded = spy_on(monkeypatch, "_cholesky_pass")
    a = random_sparse(n, p, 0.01, seed=20)
    randomized_top_singulars(a, 5, power_iters=2, seed=6)
    # one accepted pass per block: two p-side iterates, then the final sketch
    assert guarded == [(p, 15), (p, 15), (n, 15)]
    assert qr_fallbacks == []


def n_side_range_finder(a, k, power_iters, seed):
    """The range finder that also normalizes its n-side iterates.

    Returns (u1, singular_estimates); the top k are kept, with no rank cut.
    """
    n, p = a.shape
    m = min(k + OVERSAMPLE, n, p)
    omega = np.random.Generator(np.random.PCG64(seed)).standard_normal((p, m))
    q = sparse_dense_mul(a, omega)
    for _ in range(power_iters):
        w = thin_qr(sparse_transpose_dense_mul(a, thin_qr(q).q)).q
        q = sparse_dense_mul(a, w)
    q = thin_qr(q).q
    b = sparse_transpose_dense_mul(a, q)
    evals, evecs = np.linalg.eigh(b.T @ b)
    order = np.argsort(evals)[::-1][:k]
    return q @ evecs[:, order], np.sqrt(np.maximum(evals[order], 0.0))


def gapped_sparse(n, p, seed):
    scales = np.concatenate([np.full(5, 1.0), np.full(p - 5, 0.05)])
    return random_sparse(n, p, 0.01, seed=seed, col_scales=scales)


@pytest.mark.parametrize("n, p", [(3000, 1200), (3000, 400), (1200, 3000), (1200, 1200)])
@pytest.mark.parametrize("power_iters", [1, 3])
def test_p_side_power_iterates_span_the_n_side_subspace(n, p, power_iters):
    # every p-side iterate, from 400 rows to 3,000, takes thin_qr's Cholesky path
    a = gapped_sparse(n, p, seed=17)
    got = randomized_top_singulars(a, 5, power_iters=power_iters, seed=4)
    ref_u1, ref_sing = n_side_range_finder(a, 5, power_iters, seed=4)
    assert not got.rank_deficient
    assert residual_dist(got.u1, ref_u1) <= 1e-10
    np.testing.assert_allclose(got.singular_estimates, ref_sing, rtol=1e-12)


@pytest.mark.parametrize("n, p", [(3000, 1200), (1200, 3000), (1200, 1200)])
@pytest.mark.parametrize("power_iters", [0, 1, 3])
def test_every_iterate_goes_through_thin_qr_once(monkeypatch, n, p, power_iters):
    a = random_sparse(n, p, 0.01, seed=20)
    calls = spy_on(monkeypatch, "thin_qr", module=ic.rsvd)
    deferred = spy_on(monkeypatch, "thin_qr_deferred", module=ic.rsvd)
    passes = spy_on(monkeypatch, "_cholesky_pass")
    # the p-side iterates whatever the shape, then the final sketch, whose
    # one Cholesky pass leaves q unformed
    randomized_top_singulars(a, 5, power_iters=power_iters, seed=6)
    assert calls == [(p, 15)] * power_iters and deferred == [(n, 15)]
    assert passes == [(p, 15)] * power_iters + [(n, 15)]
    del calls[:], deferred[:], passes[:]
    # with a zero one-pass limit every block takes both passes
    monkeypatch.setattr(ic.linalg, "_CHOLQR_ONE_PASS_MAX_COND", 0)
    randomized_top_singulars(a, 5, power_iters=power_iters, seed=6)
    assert calls == [(p, 15)] * power_iters and deferred == [(n, 15)]
    assert passes == [(p, 15)] * 2 * power_iters + [(n, 15)] * 2


def rank_four(n, p, seed):
    """An n-by-p matrix whose columns repeat 4 random sparse columns."""
    base = random_sparse(n, 4, 0.3, seed=seed).toarray()
    return ic.as_sparse(np.tile(base, -(-p // 4))[:, :p])


@pytest.mark.parametrize(
    "n, p, k, power_iters",
    [(3000, 1200, 5, 2), (1200, 3000, 5, 2), (3000, 1200, 5, 0), (40, 12, 5, 3)],
)
def test_range_finder_multiplies_match_the_analytic_count(monkeypatch, n, p, k, power_iters):
    m = min(k + OVERSAMPLE, n, p)
    passes = spy_on(monkeypatch, "_cholesky_pass")
    fallbacks = spy_on(monkeypatch, "_householder_qr")
    full_rank = random_sparse(n, p, 0.01 if n > 40 else 0.5, seed=19)
    # the one-pass sketch, the two-pass sketch, a rank-4 sketch through Householder
    for a, one_pass_max_cond, sketch_passes in (
        (full_rank, ic.linalg._CHOLQR_ONE_PASS_MAX_COND, 1),
        (full_rank, 0, 2),
        (rank_four(n, p, seed=19), ic.linalg._CHOLQR_ONE_PASS_MAX_COND, 1),
    ):
        monkeypatch.setattr(ic.linalg, "_CHOLQR_ONE_PASS_MAX_COND", one_pass_max_cond)
        del passes[:], fallbacks[:]
        before = sparse_work.total
        basis = randomized_top_singulars(a, k, power_iters=power_iters, seed=0)
        assert sparse_work.total - before == 2 * (power_iters + 1) * m * a.nnz
        assert passes.count((n, m)) == sketch_passes
        deficient = a is not full_rank
        assert (fallbacks[-1:] == [(n, m)]) == basis.rank_deficient == deficient


def test_column_scales_run_the_range_finder_on_the_scaled_matrix():
    a = random_sparse(300, 40, 0.2, seed=20, col_scales=np.logspace(0, 3, 40))
    s = 1.0 / np.linalg.norm(a.toarray(), axis=0)
    copy = ic.as_sparse(a.toarray() * s)
    works = []
    for fn in (lambda: randomized_top_singulars(a, 5, seed=4, col_scale=s),
               lambda: randomized_top_singulars(copy, 5, seed=4)):
        before = sparse_work.total
        works.append((fn(), sparse_work.total - before))
    (got, work), (want, want_work) = works
    assert work == want_work
    assert residual_dist(got.u1, want.u1) <= 1e-10
    np.testing.assert_allclose(got.singular_estimates, want.singular_estimates, rtol=1e-12)
    with pytest.raises(ValueError, match=r"^col_scale must .* got shape \(39,\)$"):
        randomized_top_singulars(a, 5, col_scale=s[:-1])
