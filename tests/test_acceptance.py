"""Acceptance suite: nine pinned criteria, one test per criterion.

Each test prints a single summary line on success; a failed assertion
fails that criterion's test.  Expected values come from independent
oracles (dense scipy factorizations, brute-force whitening, normal
equations), never from the code paths under test.
"""

import time

import numpy as np
import pytest
import scipy.linalg

import itercca as ic
from itercca.evaluation import fit_geometric_rate
from itercca.ling import gd_least_squares
from itercca.rsvd import randomized_top_singulars

from conftest import (
    RATE_SPECTRUM,
    brute_force_cca,
    controlled_spectrum,
    exact_ls,
    markov_tokens,
    random_sparse,
    rng_for,
    separated_instance,
    truncate_curve,
)


def test_criterion_1_definition_conformance_oracle_suite():
    start = time.monotonic()
    seeds = range(10)
    densities = (0.1, 0.2, 0.3, 0.45, 0.6, 0.7, 0.8, 0.9, 1.0, 0.5)
    for seed, density in zip(seeds, densities):
        x = random_sparse(500, 40, density, seed=seed)
        y = random_sparse(500, 30, density, seed=100 + seed)
        factors = ic.exact_cca(x, y, k_cca=10)
        u = x.toarray() @ factors.x_loadings
        v = y.toarray() @ factors.y_loadings
        # unit variance and mutual orthogonality of canonical variables
        np.testing.assert_allclose(u.T @ u, np.eye(10), atol=1e-8)
        np.testing.assert_allclose(v.T @ v, np.eye(10), atol=1e-8)
        # cross products are diagonal with the canonical correlations
        np.testing.assert_allclose(u.T @ v, np.diag(factors.d), atol=1e-8)
        assert np.all(np.diff(factors.d) <= 1e-12)
        assert np.all((factors.d >= -1e-12) & (factors.d <= 1.0 + 1e-12))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"criterion 1: PASS (10 instances conform within 1e-8, {elapsed:.2f}s)")


def test_criterion_2_oracle_cross_check_brute_force():
    worst = 0.0
    for seed in (0, 1, 2):
        spec = ic.SynthSpec(
            n=200, p1=10, p2=8, k_shared=3,
            planted_corrs=(0.9, 0.8, 0.7), spectrum_decay=0.3,
            density=0.7, seed=seed,
        )
        x, y, _ = ic.synth_correlated(spec)
        d = ic.exact_cca(x, y, k_cca=8).d
        expected = brute_force_cca(x.toarray(), y.toarray(), 8)
        worst = max(worst, float(np.max(np.abs(d - expected))))
    assert worst <= 1e-10
    print(f"criterion 2: PASS (max |d_i| deviation {worst:.2e} <= 1e-10)")


def test_criterion_3_iterative_ls_convergence():
    start = time.monotonic()
    x, y = separated_instance()
    d = ic.exact_cca(x, y, 6).d
    assert d[5] / d[4] <= 0.7
    oracle = ic.exact_cca_result(x, y, 5)
    result = ic.iterative_ls_cca(
        x, y, 5, t1=30, ls_x=exact_ls(x), ls_y=exact_ls(y), seed=0,
        reference=(oracle.x_basis, oracle.y_basis),
    )
    dist_x = ic.subspace_dist(result.x_basis, oracle.x_basis)
    dist_y = ic.subspace_dist(result.y_basis, oracle.y_basis)
    assert dist_x <= 1e-6 and dist_y <= 1e-6
    curve = truncate_curve(np.asarray(result.trace.dists_x), 1e-12)
    ratio = fit_geometric_rate(curve)
    bound = (d[5] / d[4]) ** 2 + 0.05
    assert ratio <= bound
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(
        f"criterion 3: PASS (dists {dist_x:.1e}/{dist_y:.1e} <= 1e-6, "
        f"ratio {ratio:.3f} <= {bound:.3f}, {elapsed:.2f}s)"
    )


def test_criterion_4_gradient_rate_bounds():
    margin = 0.02
    results = {}
    for seed in range(5):
        x = controlled_spectrum(60, 30, RATE_SPECTRUM, seed=seed)
        xd = x.toarray()
        lam = scipy.linalg.svd(xd, compute_uv=False)
        y = rng_for(100 + seed).standard_normal((60, 3))
        # normal-equations oracle for the projection of y onto span(x)
        exact = xd @ scipy.linalg.solve(xd.T @ xd, xd.T @ y, assume_a="pos")
        for k_pc in (0, 5, 10):
            # the paper's unscaled method: the rate is read off x's own spectrum
            u1 = None
            if k_pc > 0:
                u1 = randomized_top_singulars(x, k_pc, power_iters=30, seed=9).u1
            errs = [np.linalg.norm(gd_least_squares(x, y, t2, u1) - exact) ** 2
                    for t2 in range(31)]
            curve = truncate_curve(np.asarray(errs), 1e-8)
            r = (lam[k_pc] ** 2 - lam[-1] ** 2) / (lam[k_pc] ** 2 + lam[-1] ** 2)
            ratio = fit_geometric_rate(curve)
            assert ratio <= r ** 2 + margin, (seed, k_pc, ratio, r ** 2 + margin)
            results[(seed, k_pc)] = ratio
        # deflation strictly accelerates whenever the spectrum drops
        assert lam[10] < lam[0]
        assert results[(seed, 10)] < results[(seed, 0)]
    deepest = max(results[(s, 10)] for s in range(5))
    print(
        f"criterion 4: PASS (15 curves within r^2+{margin}, "
        f"worst deflated ratio {deepest:.3f})"
    )


def test_criterion_5_budget_floors_decrease():
    x, y = separated_instance()
    d = ic.exact_cca(x, y, 6).d
    oracle = ic.exact_cca_result(x, y, 5)
    floors = {}
    curves = {}
    for t2 in (5, 20, 100):
        run = ic.l_cca(
            x, y, 5, t1=25,
            ling_cfg=ic.LingConfig(k_pc=5, t2=t2, rsvd_power_iters=8, seed=2),
            trace=True, reference=(oracle.x_basis, oracle.y_basis),
        )
        dists = np.asarray(run.trace.dists_x)
        floors[t2] = float(np.median(dists[-5:]))
        curves[t2] = dists
    assert floors[5] > floors[20] > floors[100] > 0.0
    # pre-floor decay of the generous-budget curve matches criterion 3's bound
    curve = truncate_curve(curves[100], 5e-5)
    ratio = fit_geometric_rate(curve)
    bound = (d[5] / d[4]) ** 2 + 0.05
    assert ratio <= bound
    print(
        "criterion 5: PASS (floors "
        f"{floors[5]:.1e} > {floors[20]:.1e} > {floors[100]:.1e}, "
        f"rate {ratio:.3f} <= {bound:.3f})"
    )


def test_criterion_6_special_case_identities():
    x, y = separated_instance()
    g = ic.g_cca(x, y, 4, t1=6, t2=9, seed=5)
    l = ic.l_cca(x, y, 4, t1=6, ling_cfg=ic.LingConfig(k_pc=0, t2=9, seed=5))
    assert np.array_equal(g.x_basis, l.x_basis)
    assert np.array_equal(g.y_basis, l.y_basis)
    assert np.array_equal(g.correlations, l.correlations)

    spec = ic.SynthSpec(
        n=200, p1=15, p2=15, k_shared=5,
        planted_corrs=(0.97, 0.94, 0.91, 0.88, 0.85),
        spectrum_decay=0.5, density=0.6, seed=11,
    )
    xs, ys, _ = ic.synth_correlated(spec)
    full = ic.l_cca(xs, ys, 5, t1=40, ling_cfg=ic.LingConfig(k_pc=15, t2=0, seed=4))
    sketch = ic.rp_cca(xs, ys, 5, k_rpcca=15, seed=4)
    for name in ("x_basis", "y_basis", "correlations"):
        assert np.array_equal(getattr(full, name), getattr(sketch, name))
    # a full basis spans the whole column space, so the seed does not matter
    other = ic.rp_cca(xs, ys, 5, k_rpcca=15, seed=7)
    dist_x = ic.subspace_dist(full.x_basis, other.x_basis)
    dist_y = ic.subspace_dist(full.y_basis, other.y_basis)
    assert dist_x <= 1e-8 and dist_y <= 1e-8
    print(
        "criterion 6: PASS (no-deflation and zero-step runs bitwise-identical, "
        f"full-width sketch at another seed dists {dist_x:.1e}/{dist_y:.1e} <= 1e-8)"
    )


def test_criterion_7_diagonal_gram_exactness():
    toks = markov_tokens(10000, 5, 20, (0.95, 0.85, 0.75, 0.65, 0.55), seed=77)
    x, y = ic.tokens_to_indicators(ic.TokenDatasetSpec(tokens=tuple(toks)))
    assert x.shape[1] <= 100 and y.shape[1] <= 100
    reference = ic.iterative_ls_cca(
        x, y, 5, t1=30, ls_x=exact_ls(x), ls_y=exact_ls(y), seed=0
    )
    run = ic.d_cca(x, y, 5, t1=30, seed=0)
    dist_x = ic.subspace_dist(run.x_basis, reference.x_basis)
    dist_y = ic.subspace_dist(run.y_basis, reference.y_basis)
    assert dist_x <= 1e-8 and dist_y <= 1e-8

    spec = ic.SynthSpec(
        n=200, p1=20, p2=15, k_shared=5,
        planted_corrs=(0.97, 0.94, 0.91, 0.88, 0.85),
        spectrum_decay=0.5, density=1.0, seed=31, rotate=True,
    )
    xc, yc, _ = ic.synth_correlated(spec)
    oracle_sum = ic.captured_correlation_sum(ic.exact_cca_result(xc, yc, 5))
    diag_sum = ic.captured_correlation_sum(ic.d_cca(xc, yc, 5, t1=30, seed=0))
    assert diag_sum < oracle_sum
    print(
        f"criterion 7: PASS (indicator dists {dist_x:.1e}/{dist_y:.1e} <= 1e-8, "
        f"correlated design {diag_sum:.3f} < oracle {oracle_sum:.3f})"
    )


def test_criterion_8_matched_budget_ordering():
    corrs = tuple(np.round(np.linspace(0.95, 0.8, 20), 3))
    k_cca, t1, k_pc, t2 = 20, 4, 220, 2

    def run_trio(decay, seed):
        spec = ic.SynthSpec(
            n=5000, p1=300, p2=300, k_shared=20, planted_corrs=corrs,
            spectrum_decay=decay, density=0.02, seed=seed, placement="edges",
        )
        x, y, _ = ic.synth_correlated(spec)
        nnz = x.nnz + y.nnz
        deflated = ic.l_cca(
            x, y, k_cca, t1=t1, ling_cfg=ic.LingConfig(k_pc=k_pc, t2=t2, seed=5)
        )
        # match the plain-gradient and sketch budgets to the deflated run
        t2_matched = max(1, round(deflated.work / (t1 * 2 * k_cca * nnz)))
        plain = ic.g_cca(x, y, k_cca, t1=t1, t2=t2_matched, seed=5)
        k_rp = min(round(deflated.work / (6 * nnz) - 10), min(x.shape[1], y.shape[1]) - 1)
        sketch = ic.rp_cca(x, y, k_cca, k_rpcca=k_rp, seed=5)
        for run in (deflated, plain, sketch):
            assert run.wall_time < 60.0
            assert abs(run.work - deflated.work) <= 0.1 * deflated.work
        return tuple(ic.captured_correlation_sum(r) for r in (deflated, plain, sketch))

    steep_l, steep_g, steep_r = run_trio(decay=1.0, seed=71)
    assert steep_l >= steep_g
    assert steep_l >= steep_r
    flat_l, flat_g, _ = run_trio(decay=0.0, seed=72)
    assert flat_g >= 0.95 * flat_l
    print(
        f"criterion 8: PASS (steep {steep_l:.2f} >= {steep_g:.2f} and >= {steep_r:.2f}, "
        f"flat gap {abs(1 - flat_g / flat_l):.3%} <= 5%)"
    )


def test_criterion_9_determinism_and_formats(tmp_path):
    x, y = separated_instance()
    runs = [
        ic.l_cca(x, y, 4, t1=5, ling_cfg=ic.LingConfig(k_pc=5, t2=10, seed=3))
        for _ in range(2)
    ]
    assert np.array_equal(runs[0].x_basis, runs[1].x_basis)
    assert np.array_equal(runs[0].y_basis, runs[1].y_basis)
    assert np.array_equal(runs[0].correlations, runs[1].correlations)

    mm_path = tmp_path / "rt.mtx"
    ic.write_matrix_market(mm_path, x)
    back = ic.read_matrix_market(mm_path)
    assert np.array_equal(back.toarray(), x.toarray())

    svm_path = tmp_path / "rt.svm"
    svm_path.write_text("1 1:0.25 3:-2.0\n0 2:1.0\n")
    m = ic.read_libsvm(svm_path, n_cols=3)
    np.testing.assert_allclose(
        m.toarray(), [[0.25, 0.0, -2.0], [0.0, 1.0, 0.0]], atol=0.0
    )

    bad_mm = tmp_path / "bad.mtx"
    bad_mm.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n")
    with pytest.raises(ValueError, match=r"bad\.mtx:3"):
        ic.read_matrix_market(bad_mm)
    bad_svm = tmp_path / "bad.svm"
    bad_svm.write_text("1 7:1.0\n")
    with pytest.raises(ValueError, match=r"bad\.svm:1"):
        ic.read_libsvm(bad_svm, n_cols=3)
    print("criterion 9: PASS (bitwise reruns, round-trips, malformed-input errors)")
