"""Randomized range-finder tests against a dense eigendecomposition oracle."""

import numpy as np
import pytest
import scipy.linalg

import itercca as ic
from itercca.linalg import thin_qr
from itercca.rsvd import randomized_top_singulars

from conftest import cliff_sparse, controlled_spectrum, random_sparse


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


def test_rank_deficient_input_truncates_and_flags():
    rank2 = np.outer(np.arange(1.0, 7.0), np.ones(4))
    rank2[:, 1] = np.arange(6.0)
    a = ic.as_sparse(np.hstack([rank2, rank2]))
    basis = randomized_top_singulars(a, 5, power_iters=2, seed=0)
    assert basis.rank_deficient
    assert basis.u1.shape[1] == 2


def test_oversample_capped_by_matrix_size():
    a = random_sparse(12, 5, 0.8, seed=11)
    basis = randomized_top_singulars(a, 5, power_iters=1, oversample=50, seed=0)
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
    with pytest.raises(ValueError):
        randomized_top_singulars(a, 3, power_iters=-1)


def spy_on(monkeypatch, name):
    """Shapes of the blocks handed to ic.linalg.<name>, in call order."""
    seen = []
    original = getattr(ic.linalg, name)

    def spy(m):
        seen.append(m.shape)
        return original(m)

    monkeypatch.setattr(ic.linalg, name, spy)
    return seen


@pytest.fixture
def qr_fallbacks(monkeypatch):
    """Blocks factored by Householder reflections, by thin_qr or as a fallback."""
    return spy_on(monkeypatch, "_householder_qr")


def test_cholesky_normalized_power_iterates_match_full_qr_reference(monkeypatch, qr_fallbacks):
    # both the 3,000-row iterates and the 1,200-row a.T iterates take the pass
    scales = np.concatenate([np.full(5, 1.0), np.full(1195, 0.05)])
    a = random_sparse(3000, 1200, 0.01, seed=14, col_scales=scales)
    got = randomized_top_singulars(a, 5, power_iters=2, seed=3)
    again = randomized_top_singulars(a, 5, power_iters=2, seed=3)
    assert qr_fallbacks == []
    assert got.u1.tobytes() == again.u1.tobytes()
    assert got.singular_estimates.tobytes() == again.singular_estimates.tobytes()
    monkeypatch.setattr(ic.rsvd, "well_conditioned_basis", lambda m: thin_qr(m).q)
    ref = randomized_top_singulars(a, 5, power_iters=2, seed=3)
    assert residual_dist(got.u1, ref.u1) <= 1e-10
    np.testing.assert_allclose(got.singular_estimates, ref.singular_estimates, rtol=1e-12)
    assert got.rank_deficient == ref.rank_deficient


def test_rank_deficient_tall_sketch_falls_back_to_thin_qr_and_flags(monkeypatch, qr_fallbacks):
    guarded = spy_on(monkeypatch, "_cholesky_pass")
    # 300 copies of 4 columns: every 1,500-row and 1,200-row iterate has rank 4
    a = ic.as_sparse(np.hstack([random_sparse(1500, 4, 0.3, seed=15).toarray()] * 300))
    basis = randomized_top_singulars(a, 6, power_iters=2, seed=0)
    # four refused intermediate iterates, then the refused final thin_qr
    assert qr_fallbacks == [(1500, 16), (1200, 16)] * 2 + [(1500, 16)]
    assert guarded == qr_fallbacks  # each refused block ran the guard once
    assert basis.rank_deficient
    assert basis.u1.shape == (1500, 4)
    assert np.max(np.abs(basis.u1.T @ basis.u1 - np.eye(4))) <= 1e-12
    proj = basis.u1 @ (basis.u1.T @ a.toarray())
    np.testing.assert_allclose(proj, a.toarray(), atol=1e-10 * np.abs(a.data).max())
