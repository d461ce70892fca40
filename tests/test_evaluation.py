"""Subspace distance, rate fitting, and correlation-sum metric tests."""

import numpy as np
import pytest
import scipy.linalg

import itercca as ic
from itercca.evaluation import fit_geometric_rate

from conftest import exact_ls, random_sparse, rng_for, separated_instance


def test_subspace_dist_zero_for_identical_and_rotated_spans():
    w = rng_for(0).standard_normal((20, 4))
    assert ic.subspace_dist(w, w) <= 1e-12
    r = rng_for(1).standard_normal((4, 4))
    assert np.linalg.cond(r) < 1e3
    assert ic.subspace_dist(w, w @ r) <= 1e-12
    # scaling either argument changes nothing
    assert ic.subspace_dist(5.0 * w, w) <= 1e-12


def test_subspace_dist_one_for_partially_orthogonal_spans():
    e = np.eye(5)
    w = e[:, [0, 1]]
    z = e[:, [0, 2]]
    assert ic.subspace_dist(w, z) == pytest.approx(1.0, abs=1e-12)


def test_subspace_dist_symmetric_and_bounded():
    w = rng_for(2).standard_normal((15, 3))
    z = rng_for(3).standard_normal((15, 3))
    d = ic.subspace_dist(w, z)
    assert d == pytest.approx(ic.subspace_dist(z, w), abs=1e-12)
    assert 0.0 <= d <= 1.0


@pytest.mark.parametrize("dist", [1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.7, 1.0])
def test_subspace_dist_is_the_sine_of_the_largest_principal_angle(dist):
    # principal angles up to arcsin(dist) between two 4-dimensional spans,
    # each handed over in a non-orthonormal basis
    n, k = 200, 4
    q, _ = np.linalg.qr(rng_for(10).standard_normal((n, 2 * k)))
    angles = np.arcsin(dist * np.array([1.0, 0.5, 0.25, 0.0]))
    w = q[:, :k] @ rng_for(11).standard_normal((k, k))
    z = q[:, :k] * np.cos(angles) + q[:, k:] * np.sin(angles)
    z = z @ rng_for(12).standard_normal((k, k))
    want = np.sin(np.max(scipy.linalg.subspace_angles(w, z)))
    assert want == pytest.approx(dist, rel=1e-6)
    assert abs(ic.subspace_dist(w, z) - want) <= 2e-15
    assert abs(ic.subspace_dist(z, w) - want) <= 2e-15


def test_subspace_dist_rejects_bad_inputs():
    w = rng_for(4).standard_normal((10, 3))
    with pytest.raises(ValueError):
        ic.subspace_dist(w, rng_for(5).standard_normal((10, 2)))
    deficient = np.zeros((10, 3))
    deficient[:, 0] = 1.0
    with pytest.raises(ValueError):
        ic.subspace_dist(w, deficient)
    for bad in (np.nan, np.inf):
        holed = w.copy()
        holed[3, 1] = bad
        with pytest.raises(ValueError, match="^argument w holds non-finite values"):
            ic.subspace_dist(holed, w)
        with pytest.raises(ValueError, match="^argument z holds non-finite values"):
            ic.subspace_dist(w, holed)


def test_fit_geometric_rate_recovers_exact_ratio():
    errors = 0.25 ** np.arange(8)
    assert fit_geometric_rate(errors) == pytest.approx(0.25, abs=1e-12)


def test_fit_geometric_rate_constant_curve_gives_one():
    assert fit_geometric_rate(np.full(10, 3.7)) == pytest.approx(1.0, abs=1e-12)


def test_fit_geometric_rate_scale_invariant():
    errors = 0.6 ** np.arange(12) * (1.0 + 0.01 * rng_for(6).standard_normal(12))
    a = fit_geometric_rate(errors)
    b = fit_geometric_rate(1e9 * errors)
    assert a == pytest.approx(b, abs=1e-12)


def test_fit_geometric_rate_rejects_bad_curves():
    with pytest.raises(ValueError):
        fit_geometric_rate(np.array([1.0, 0.0, 0.1]))
    with pytest.raises(ValueError):
        fit_geometric_rate(np.array([1.0, -0.5]))
    # tail windows shorter than four points cannot anchor a slope
    with pytest.raises(ValueError):
        fit_geometric_rate(0.5 ** np.arange(6))


def test_captured_sum_is_k_when_sides_coincide():
    x = random_sparse(50, 6, 0.5, seed=7)
    result = ic.exact_cca_result(x, x, k_cca=6)
    assert ic.captured_correlation_sum(result) == pytest.approx(6.0, abs=1e-8)


def test_captured_sum_is_zero_for_orthogonal_sides():
    top = np.vstack([rng_for(8).standard_normal((10, 3)), np.zeros((10, 3))])
    bottom = np.vstack([np.zeros((10, 3)), rng_for(9).standard_normal((10, 3))])
    result = ic.exact_cca_result(ic.as_sparse(top), ic.as_sparse(bottom), k_cca=3)
    assert ic.captured_correlation_sum(result) == pytest.approx(0.0, abs=1e-8)


def test_captured_sum_never_exceeds_oracle():
    x, y = separated_instance()
    k = 5
    oracle = ic.captured_correlation_sum(ic.exact_cca_result(x, y, k_cca=k))
    approx_runs = [
        ic.iterative_ls_cca(x, y, k, t1=12, ls_x=exact_ls(x), ls_y=exact_ls(y), seed=0),
        ic.d_cca(x, y, k, t1=12, seed=0),
        ic.l_cca(x, y, k, t1=12, ling_cfg=ic.LingConfig(k_pc=5, t2=40, seed=3)),
    ]
    for run in approx_runs:
        assert ic.captured_correlation_sum(run) <= oracle + 1e-6
