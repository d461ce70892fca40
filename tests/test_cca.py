"""Tests for the exact solver, the iterative drivers, and the baselines."""

import argparse
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, sparse

import itercca as ic
from itercca import cli
from itercca.linalg import sparse_work, thin_qr
from itercca.rsvd import OVERSAMPLE

from conftest import (
    brute_force_cca,
    exact_ls,
    markov_tokens,
    random_sparse,
    rng_for,
    separated_instance,
    spy_on,
)


def square_planted(seed=11):
    spec = ic.SynthSpec(
        n=200, p1=15, p2=15, k_shared=5,
        planted_corrs=(0.97, 0.94, 0.91, 0.88, 0.85),
        spectrum_decay=0.5, density=0.6, seed=seed,
    )
    x, y, _ = ic.synth_correlated(spec)
    return x, y


def test_exact_cca_same_matrix_gives_unit_correlations():
    x = random_sparse(40, 6, 0.5, seed=0)
    factors = ic.exact_cca(x, x, k_cca=6)
    np.testing.assert_allclose(factors.d, np.ones(6), atol=1e-10)


def test_exact_cca_disjoint_supports_give_zero_correlations():
    top = np.vstack([rng_for(1).standard_normal((12, 4)), np.zeros((12, 4))])
    bottom = np.vstack([np.zeros((12, 3)), rng_for(2).standard_normal((12, 3))])
    factors = ic.exact_cca(ic.as_sparse(top), ic.as_sparse(bottom), k_cca=3)
    np.testing.assert_allclose(factors.d, np.zeros(3), atol=1e-10)


def test_exact_cca_matches_brute_force_on_planted_instance():
    spec = ic.SynthSpec(
        n=200, p1=10, p2=8, k_shared=3,
        planted_corrs=(0.9, 0.8, 0.7), spectrum_decay=0.3,
        density=0.7, seed=3,
    )
    x, y, _ = ic.synth_correlated(spec)
    factors = ic.exact_cca(x, y, k_cca=8)
    expected = brute_force_cca(x.toarray(), y.toarray(), 8)
    np.testing.assert_allclose(factors.d, expected, atol=1e-10)


def test_exact_cca_solves_a_duplicated_column_on_the_column_space():
    base = rng_for(4).standard_normal((30, 5))
    x = ic.as_sparse(np.hstack([base, base[:, :1]]))
    y = random_sparse(30, 7, 0.6, seed=5)
    want = ic.exact_cca_result(ic.as_sparse(base), y, k_cca=5).correlations
    np.testing.assert_allclose(ic.exact_cca_result(x, y, k_cca=5).correlations, want, atol=1e-10)
    with pytest.raises(ValueError, match=r"data rank below k_cca.*ranks x 5, y 7"):
        ic.exact_cca(x, y, k_cca=6)


def test_exact_cca_answers_on_the_column_space_and_refuses_past_its_rank():
    # x has rank 4 of 12 columns; CCA sees only range(x) and range(y).
    rng = np.random.default_rng(0)
    for _ in range(3):
        x = rng.standard_normal((200, 4)) @ rng.standard_normal((4, 12))
        y = rng.standard_normal((200, 10))
        want = np.linalg.svd(linalg.orth(x).T @ linalg.orth(y), compute_uv=False)
        x, y = ic.as_sparse(x), ic.as_sparse(y)
        for k in (3, 4):
            np.testing.assert_allclose(
                ic.exact_cca_result(x, y, k).correlations, want[:k], rtol=0, atol=1e-10
            )
        with pytest.raises(ValueError, match="data rank below k_cca"):
            ic.exact_cca_result(x, y, 6)


def test_exact_cca_enforces_desk_scale_and_k_bounds():
    wide = ic.as_sparse(np.ones((1, 2049)))
    one = ic.as_sparse(np.ones((1, 1)))
    with pytest.raises(ValueError):
        ic.exact_cca(wide, one, k_cca=1)
    x = random_sparse(10, 4, 0.8, seed=6)
    with pytest.raises(ValueError):
        ic.exact_cca(x, x, k_cca=0)
    with pytest.raises(ValueError):
        ic.exact_cca(x, x, k_cca=5)
    with pytest.raises(ValueError):
        ic.exact_cca(x, random_sparse(11, 4, 0.8, seed=7), k_cca=2)


def test_exact_cca_result_invariants():
    x, y = separated_instance()
    before = sparse_work.total
    result = ic.exact_cca_result(x, y, k_cca=5)
    delta = sparse_work.total - before
    assert result.work == delta > 0
    assert result.wall_time >= 0.0
    assert result.trace is None
    for basis in (result.x_basis, result.y_basis):
        assert basis.shape == (200, 5)
        np.testing.assert_allclose(basis.T @ basis, np.eye(5), atol=1e-8)
    assert np.all(np.diff(result.correlations) <= 1e-12)
    np.testing.assert_allclose(
        result.correlations, ic.exact_cca(x, y, 5).d, atol=1e-8
    )


def test_final_correlations_identity_orthogonal_and_planar():
    q = thin_qr(rng_for(8).standard_normal((20, 3))).q
    np.testing.assert_allclose(ic.final_correlations(q, q), np.ones(3), atol=1e-12)
    e = np.eye(6)
    np.testing.assert_allclose(
        ic.final_correlations(e[:, [0, 1]], e[:, [2, 3]]), np.zeros(2), atol=1e-12
    )
    # plane pair at 0 and 60 degrees
    w = e[:4][:, [0, 1]]
    z = np.column_stack([e[:4, 0], 0.5 * e[:4, 1] + np.sqrt(0.75) * e[:4, 2]])
    np.testing.assert_allclose(ic.final_correlations(w, z), [1.0, 0.5], atol=1e-12)
    # a 0-dimensional subspace has no canonical pairs
    assert ic.final_correlations(e[:3, :2], np.zeros((3, 0))).shape == (0,)
    with pytest.raises(ValueError):
        ic.final_correlations(2.0 * q, q)
    with pytest.raises(ValueError, match=r"^y_basis must be .* got shape \(19, 3\)$"):
        ic.final_correlations(q, q[:-1])
    # NaN compares false against the tolerance, so it must fail the test, not pass it
    bad = q.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="^x_basis is not orthonormal"):
        ic.final_correlations(bad, q)


def test_iterative_same_sides_align_immediately():
    x = random_sparse(50, 8, 0.5, seed=9)
    solve = exact_ls(x)
    result = ic.iterative_ls_cca(x, x, 4, t1=1, ls_x=solve, ls_y=solve, seed=0)
    np.testing.assert_allclose(result.correlations, np.ones(4), atol=1e-8)


def test_iterative_exact_ls_converges_to_oracle():
    x, y = separated_instance()
    oracle = ic.exact_cca_result(x, y, 5)
    result = ic.iterative_ls_cca(
        x, y, 5, t1=30, ls_x=exact_ls(x), ls_y=exact_ls(y), seed=0,
        reference=(oracle.x_basis, oracle.y_basis),
    )
    assert ic.subspace_dist(result.x_basis, oracle.x_basis) <= 1e-6
    assert ic.subspace_dist(result.y_basis, oracle.y_basis) <= 1e-6
    trace = result.trace
    assert len(trace.corr_sums) == len(trace.dists_x) == len(trace.dists_y) == 30
    assert len(trace.seconds) == 30
    assert trace.restarts == ()
    # distance to the oracle subspace shrinks by orders of magnitude
    assert trace.dists_x[-1] <= 1e-3 * trace.dists_x[0]


def test_iterative_requires_valid_t1():
    x = random_sparse(20, 5, 0.5, seed=10)
    solve = exact_ls(x)
    with pytest.raises(ValueError):
        ic.iterative_ls_cca(x, x, 2, t1=0, ls_x=solve, ls_y=solve, seed=0)


def test_iterative_refuses_a_least_squares_result_of_the_wrong_width():
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((50, 6)), rng.standard_normal((50, 5))
    good = exact_ls(ic.as_sparse(y))
    for wrong in (lambda b: np.hstack([b, b[:, :1] + 1]), lambda b: b[:, 1:]):
        before = sparse_work.total
        with pytest.raises(ValueError, match=r"^ls_y\(x_hat\) must be .* shape \(50, 3\)"):
            ic.iterative_ls_cca(x, y, 3, 2, wrong, wrong, 0)
        # the random start's product only
        assert sparse_work.total - before == 50 * 6 * 3
        with pytest.raises(ValueError, match=r"^ls_x\(y_hat\) must be .* shape \(50, 3\)"):
            ic.iterative_ls_cca(x, y, 3, 2, wrong, good, 0)


def test_iterative_rank_starved_instance_fails_loudly():
    thin = rng_for(11).standard_normal((30, 3))
    x = ic.as_sparse(thin @ rng_for(12).standard_normal((3, 8)))
    y = random_sparse(30, 6, 0.5, seed=13)
    with pytest.raises(ic.IterationFailure):
        ic.iterative_ls_cca(x, y, 5, t1=4, ls_x=exact_ls(x), ls_y=exact_ls(y), seed=0)


def test_l_cca_with_generous_budget_matches_exact_ls_route():
    x, y = separated_instance()
    ref = ic.iterative_ls_cca(x, y, 5, t1=30, ls_x=exact_ls(x), ls_y=exact_ls(y), seed=0)
    run = ic.l_cca(x, y, 5, t1=30, ling_cfg=ic.LingConfig(k_pc=5, t2=500, seed=2))
    assert ic.subspace_dist(run.x_basis, ref.x_basis) <= 1e-4
    assert ic.subspace_dist(run.y_basis, ref.y_basis) <= 1e-4


def test_l_cca_full_deflation_equals_randomized_projection_route():
    x, y = square_planted()
    lc = ic.l_cca(x, y, 5, t1=40, ling_cfg=ic.LingConfig(k_pc=15, t2=0, seed=4))
    rp = ic.rp_cca(x, y, 5, k_rpcca=15, seed=7)
    assert ic.subspace_dist(lc.x_basis, rp.x_basis) <= 1e-8
    assert ic.subspace_dist(lc.y_basis, rp.y_basis) <= 1e-8


def test_zero_step_l_cca_is_rp_cca_bitwise_at_the_range_finders_work():
    x, y = tall_zipf_pair()
    sketch = ic.rp_cca(x, y, 10, k_rpcca=30, seed=3)
    for t1 in (1, 4):
        run = ic.l_cca(x, y, 10, t1=t1, ling_cfg=ic.LingConfig(k_pc=30, t2=0, seed=3))
        for name in ("x_basis", "y_basis", "correlations"):
            assert getattr(run, name).tobytes() == getattr(sketch, name).tobytes()
        assert run.work == sketch.work
    # two range finders of 40-column sketches, 2 (power_iters + 1) products each
    assert sketch.work == 2 * 3 * 40 * (x.nnz + y.nnz)


def test_zero_step_l_cca_refuses_a_basis_narrower_than_k_cca_and_a_trace():
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((300, 20)), rng.standard_normal((300, 20))
    with pytest.raises(ValueError, match=r"data rank below k_cca.*\(basis ranks x 3, y 3\)"):
        ic.l_cca(x, y, 5, t1=4, ling_cfg=ic.LingConfig(k_pc=3, t2=0, seed=0))
    cfg = ic.LingConfig(k_pc=8, t2=0, seed=0)
    ref = (rng.standard_normal((300, 5)), rng.standard_normal((300, 5)))
    for kwargs, name in (({"trace": True}, "trace"), ({"reference": ref}, "reference")):
        before = sparse_work.total
        with pytest.raises(ValueError, match=f"^{name} needs an outer loop"):
            ic.l_cca(x, y, 5, t1=4, ling_cfg=cfg, **kwargs)
        assert sparse_work.total == before  # refused before any product


def test_zero_step_l_cca_at_full_width_is_the_exact_cca():
    # criterion 1's instances: a basis of every column leaves nothing out
    for seed, density in zip(range(10), (0.1, 0.2, 0.3, 0.45, 0.6, 0.7, 0.8, 0.9, 1.0, 0.5)):
        x = random_sparse(500, 40, density, seed=seed)
        y = random_sparse(500, 30, density, seed=100 + seed)
        want = ic.exact_cca(x, y, 10).d
        for s in (0, 1):
            run = ic.l_cca(x, y, 10, 1, ic.LingConfig(k_pc=40, t2=0, seed=s))
            np.testing.assert_allclose(run.correlations, want, rtol=0.0, atol=1e-10)


def test_zero_step_gradient_solve_is_refused_before_any_product():
    # every solve would return zeros, leaving the random restarts as the answer
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((300, 20)), rng.standard_normal((300, 20))
    for solve in (lambda: ic.g_cca(x, y, 5, 4, 0, 0, trace=True),
                  lambda: ic.l_cca(x, y, 5, 4, ic.LingConfig(k_pc=0, t2=0))):
        before = sparse_work.total
        with pytest.raises(ValueError, match="^t2 = 0 needs k_pc > 0"):
            solve()
        assert sparse_work.total == before


def test_l_cca_on_wide_x_with_a_full_basis_gives_unit_correlations():
    # p >= n: range(x) is all of R^300, so the projection onto it is the identity
    x = random_sparse(300, 800, 0.05, seed=32)
    y = random_sparse(300, 20, 0.5, seed=33)
    run = ic.l_cca(x, y, 5, t1=2, ling_cfg=ic.LingConfig(k_pc=300, t2=0, seed=8))
    np.testing.assert_allclose(run.correlations, np.ones(5), rtol=0.0, atol=1e-12)


def tall_zipf_pair(n=20_000, p=300, per_row=5, seed=31):
    """x and y sharing one pattern of per_row Zipf(1.0)-drawn columns per row.

    y's values are 0.8 x plus independent noise, so every column is correlated.
    """
    rng = rng_for(seed)
    w = np.arange(1, p + 1, dtype=np.float64) ** -1.0
    cols = rng.choice(p, size=(n, per_row), p=w / w.sum()).ravel()
    rows = np.repeat(np.arange(n), per_row)
    vx = rng.standard_normal(rows.size)
    vy = 0.8 * vx + 0.6 * rng.standard_normal(rows.size)
    return tuple(ic.as_sparse((v, (rows, cols)), shape=(n, p)) for v in (vx, vy))


def readme_l_cca_work(x, y, k_cca, t1, cfg):
    """The work README gives for l_cca: start, descents and range finders, no restarts.

    The start is made only when the outer loop runs: at t2 > 0 or k_pc = 0.
    """
    n = x.shape[0]
    loop_runs = cfg.t2 > 0 or cfg.k_pc == 0
    work = loop_runs * k_cca * x.nnz + 2 * k_cca * t1 * cfg.t2 * (x.nnz + y.nnz)
    for a in (x, y) if cfg.k_pc else ():
        m = min(min(cfg.k_pc, n, a.shape[1]) + OVERSAMPLE, n, a.shape[1])
        work += 2 * (cfg.rsvd_power_iters + 1) * m * a.nnz
    return work


def test_l_cca_one_pass_cholesky_qr_matches_two_passes(monkeypatch):
    x, y = tall_zipf_pair()
    n = x.shape[0]
    cfg = ic.LingConfig(k_pc=30, t2=2, seed=6)
    passes = spy_on(monkeypatch, "_cholesky_pass")
    sketches = spy_on(monkeypatch, "thin_qr_deferred", module=ic.rsvd)
    fallbacks = spy_on(monkeypatch, "_householder_qr")
    one = ic.l_cca(x, y, 10, t1=4, ling_cfg=cfg)
    one_passes = len(passes)
    # each side's n-by-40 sketch goes through thin_qr_deferred and takes one pass
    assert sketches == [(n, 40)] * 2 and passes.count((n, 40)) == 2
    monkeypatch.setattr(ic.linalg, "_CHOLQR_ONE_PASS_MAX_COND", 0)
    two = ic.l_cca(x, y, 10, t1=4, ling_cfg=cfg)
    assert sketches == [(n, 40)] * 4 and passes[one_passes:].count((n, 40)) == 4
    assert 0 < one_passes < len(passes) - one_passes
    np.testing.assert_allclose(one.correlations, two.correlations, rtol=0.0, atol=1e-12)
    assert one.work == two.work == readme_l_cca_work(x, y, 10, 4, cfg)
    assert fallbacks == []

    # x repeating 20 of its columns: its 40-column sketch has rank 20 and takes Householder
    monkeypatch.undo()
    fallbacks = spy_on(monkeypatch, "_householder_qr")
    x20 = ic.as_sparse(sparse.hstack([x[:, :20]] * 15))
    deficient = ic.l_cca(x20, y, 10, t1=4, ling_cfg=cfg)
    assert (n, 40) in fallbacks
    assert deficient.work == readme_l_cca_work(x20, y, 10, 4, cfg)

    # with no gradient steps the loop never runs: the range finders are all the work
    zero_step = ic.LingConfig(k_pc=30, t2=0, seed=6)
    assert ic.l_cca(x, y, 10, t1=4, ling_cfg=zero_step).work == readme_l_cca_work(
        x, y, 10, 4, zero_step)


def test_g_cca_is_l_cca_without_deflation_bitwise():
    x, y = separated_instance()
    g = ic.g_cca(x, y, 4, t1=6, t2=9, seed=5)
    l = ic.l_cca(x, y, 4, t1=6, ling_cfg=ic.LingConfig(k_pc=0, t2=9, seed=5))
    assert np.array_equal(g.x_basis, l.x_basis)
    assert np.array_equal(g.y_basis, l.y_basis)
    assert np.array_equal(g.correlations, l.correlations)


def test_g_cca_flat_spectrum_reaches_oracle():
    spec = ic.SynthSpec(
        n=400, p1=20, p2=15, k_shared=3,
        planted_corrs=(0.95, 0.9, 0.85), spectrum_decay=0.0,
        density=0.5, seed=21,
    )
    x, y, _ = ic.synth_correlated(spec)
    oracle = ic.exact_cca_result(x, y, 3)
    run = ic.g_cca(x, y, 3, t1=30, t2=100, seed=0)
    assert ic.subspace_dist(run.x_basis, oracle.x_basis) <= 1e-3
    assert ic.subspace_dist(run.y_basis, oracle.y_basis) <= 1e-3


def test_g_cca_steep_spectrum_trails_deflated_solver_at_matched_work():
    spec = ic.SynthSpec(
        n=500, p1=60, p2=60, k_shared=8,
        planted_corrs=(0.95, 0.93, 0.91, 0.89, 0.87, 0.85, 0.83, 0.81),
        spectrum_decay=1.0, density=0.3, seed=61, placement="spread",
    )
    x, y, _ = ic.synth_correlated(spec)
    nnz = x.nnz + y.nnz
    k_cca, t1, k_pc, t2, q, over = 8, 4, 10, 8, 2, 10
    lc = ic.l_cca(x, y, k_cca, t1=t1, ling_cfg=ic.LingConfig(k_pc=k_pc, t2=t2, seed=3))
    # budget-matched plain-gradient iteration count
    t2_g = round(lc.work / (t1 * 2 * k_cca * nnz))
    gc = ic.g_cca(x, y, k_cca, t1=t1, t2=t2_g, seed=3)
    assert abs(gc.work - lc.work) <= 0.1 * lc.work
    assert ic.captured_correlation_sum(gc) < ic.captured_correlation_sum(lc)


def test_d_cca_same_indicator_sides_give_unit_correlations():
    toks = tuple("abcab" * 30)
    x, y = ic.tokens_to_indicators(ic.TokenDatasetSpec(tokens=toks))
    run = ic.d_cca(x, x, 3, t1=5, seed=0)
    np.testing.assert_allclose(run.correlations, np.ones(3), atol=1e-8)


def test_d_cca_wall_time_covers_its_diagonal_set_up(monkeypatch):
    toks = tuple("abcab" * 30)
    x, y = ic.tokens_to_indicators(ic.TokenDatasetSpec(tokens=toks))
    original = ic.cca.gram_diagonal

    def slow_gram_diagonal(a):
        time.sleep(0.05)
        return original(a)

    monkeypatch.setattr(ic.cca, "gram_diagonal", slow_gram_diagonal)
    assert ic.d_cca(x, y, 2, t1=2, seed=0).wall_time >= 0.1


def test_solver_warnings_point_at_the_caller():
    dense = random_sparse(40, 6, 0.6, seed=14).toarray()
    dense[:, 2] = 0.0
    with pytest.warns(UserWarning, match="zero-norm") as record:
        ic.d_cca(ic.as_sparse(dense), random_sparse(40, 5, 0.6, seed=15), 2, t1=2, seed=0)
    assert record[0].filename == __file__


def test_d_cca_equals_exact_ls_route_on_indicator_data():
    toks = markov_tokens(3000, 2, 10, (0.9, 0.6), seed=41)
    x, y = ic.tokens_to_indicators(ic.TokenDatasetSpec(tokens=tuple(toks)))
    ref = ic.iterative_ls_cca(x, y, 2, t1=30, ls_x=exact_ls(x), ls_y=exact_ls(y), seed=0)
    run = ic.d_cca(x, y, 2, t1=30, seed=0)
    assert ic.subspace_dist(run.x_basis, ref.x_basis) <= 1e-8
    assert ic.subspace_dist(run.y_basis, ref.y_basis) <= 1e-8


def test_d_cca_correlated_design_stays_below_oracle():
    spec = ic.SynthSpec(
        n=200, p1=20, p2=15, k_shared=5,
        planted_corrs=(0.97, 0.94, 0.91, 0.88, 0.85),
        spectrum_decay=0.5, density=1.0, seed=31, rotate=True,
    )
    x, y, _ = ic.synth_correlated(spec)
    oracle_sum = ic.captured_correlation_sum(ic.exact_cca_result(x, y, 5))
    run_sum = ic.captured_correlation_sum(ic.d_cca(x, y, 5, t1=30, seed=0))
    assert run_sum < oracle_sum


def test_rp_cca_full_sketch_equals_exact_subspace():
    x, y = square_planted()
    oracle = ic.exact_cca_result(x, y, 5)
    run = ic.rp_cca(x, y, 5, k_rpcca=15, seed=0)
    assert ic.subspace_dist(run.x_basis, oracle.x_basis) <= 1e-6
    assert ic.subspace_dist(run.y_basis, oracle.y_basis) <= 1e-6


def test_rp_cca_narrow_sketch_misses_bottom_planted_correlations():
    spec = ic.SynthSpec(
        n=300, p1=30, p2=30, k_shared=3,
        planted_corrs=(0.95, 0.92, 0.9), spectrum_decay=0.8,
        density=0.5, seed=51, placement="bottom",
    )
    x, y, _ = ic.synth_correlated(spec)
    oracle_sum = ic.captured_correlation_sum(ic.exact_cca_result(x, y, 3))
    run_sum = ic.captured_correlation_sum(ic.rp_cca(x, y, 3, k_rpcca=5, seed=0))
    assert oracle_sum >= 2.5
    assert run_sum <= 0.5 * oracle_sum


def test_rp_cca_same_sides_give_unit_correlations():
    x = random_sparse(60, 10, 0.4, seed=14)
    run = ic.rp_cca(x, x, 4, k_rpcca=10, seed=1)
    np.testing.assert_allclose(run.correlations, np.ones(4), atol=1e-8)


def test_rp_cca_validates_sketch_width():
    x = random_sparse(30, 8, 0.5, seed=15)
    with pytest.raises(ValueError):
        ic.rp_cca(x, x, 5, k_rpcca=4)
    with pytest.raises(ValueError):
        ic.rp_cca(x, x, 2, k_rpcca=9)


def test_all_algorithms_survive_poor_conditioning():
    base = rng_for(16).standard_normal((80, 6))
    x = ic.as_sparse(np.hstack([base, base[:, :2] + 1e-4 * rng_for(17).standard_normal((80, 2))]))
    y = random_sparse(80, 7, 0.6, seed=18)
    runs = [
        ic.exact_cca_result(x, y, 3),
        ic.l_cca(x, y, 3, t1=8, ling_cfg=ic.LingConfig(k_pc=4, t2=20, seed=0)),
        ic.g_cca(x, y, 3, t1=8, t2=20, seed=0),
        ic.d_cca(x, y, 3, t1=8, seed=0),
        ic.rp_cca(x, y, 3, k_rpcca=6, seed=0),
    ]
    for run in runs:
        for basis in (run.x_basis, run.y_basis):
            np.testing.assert_allclose(basis.T @ basis, np.eye(3), atol=1e-8)
        assert np.all(run.correlations >= -1e-12)
        assert np.all(run.correlations <= 1.0 + 1e-8)
        assert run.work > 0


def test_budget_metering_matches_counter_delta():
    x, y = separated_instance()
    before = sparse_work.total
    run = ic.l_cca(x, y, 4, t1=5, ling_cfg=ic.LingConfig(k_pc=5, t2=10, seed=0))
    delta = sparse_work.total - before
    assert run.work == delta > 0


@pytest.mark.parametrize(
    "solve",
    [
        lambda x, y: ic.exact_cca(x, y, 2),
        lambda x, y: ic.exact_cca_result(x, y, 2),
        lambda x, y: ic.l_cca(x, y, 2, t1=2, ling_cfg=ic.LingConfig(k_pc=3, t2=2, seed=0)),
        lambda x, y: ic.g_cca(x, y, 2, t1=2, t2=2, seed=0),
        lambda x, y: ic.d_cca(x, y, 2, t1=2, seed=0),
        lambda x, y: ic.rp_cca(x, y, 2, k_rpcca=4, seed=0),
    ],
    ids=["exact_cca", "exact_cca_result", "l_cca", "g_cca", "d_cca", "rp_cca"],
)
def test_solvers_reject_non_finite_input_by_side(solve):
    x, y = separated_instance()
    bad = x.toarray()
    bad[3, 1] = np.nan
    with pytest.raises(ic.NonFiniteError, match="x holds 1 non-finite values"):
        solve(bad, y)
    bad = y.toarray()
    bad[0, 0] = np.inf
    bad[7, 2] = np.nan
    with pytest.raises(ic.NonFiniteError, match="y holds 2 non-finite values"):
        solve(x, bad)


SOLVERS = [
    lambda x, y: ic.exact_cca_result(x, y, 5),
    lambda x, y: ic.l_cca(x, y, 5, t1=3, ling_cfg=ic.LingConfig(k_pc=10, t2=2, seed=1)),
    lambda x, y: ic.g_cca(x, y, 5, t1=3, t2=2, seed=1),
    lambda x, y: ic.d_cca(x, y, 5, t1=3, seed=1),
    lambda x, y: ic.rp_cca(x, y, 5, k_rpcca=20, seed=1),
]
SOLVER_IDS = ["exact_cca_result", "l_cca", "g_cca", "d_cca", "rp_cca"]


def dense_gaussian_pair(n=2000, p=30, seed=40):
    rng = rng_for(seed)
    x = rng.standard_normal((n, p))
    y = 0.5 * x @ rng.standard_normal((p, p)) / np.sqrt(p) + rng.standard_normal((n, p))
    return x, y


@pytest.mark.parametrize("solve", SOLVERS, ids=SOLVER_IDS)
def test_solvers_are_scale_invariant_far_from_unit_scale(solve):
    x, y = dense_gaussian_pair()
    want = solve(x, y)
    # powers of two scale exactly, and the solvers are equivariant inside the band
    shifts = ((2.0**400, 2.0**-700), (2.0**-700, 2.0**400), (2.0**400, 1.0), (2.0**40, 2.0**-50))
    for sx, sy in shifts:
        got = solve(x * sx, y * sy)
        assert got.x_basis.tobytes() == want.x_basis.tobytes()
        assert got.y_basis.tobytes() == want.y_basis.tobytes()
        assert got.correlations.tobytes() == want.correlations.tobytes()
        assert got.work == want.work
    for sx, sy in ((1e150, 1e-200), (1e-200, 1e150)):
        got = solve(x * sx, y * sy)
        for a, b in ((got.x_basis, want.x_basis), (got.y_basis, want.y_basis)):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(got.correlations, want.correlations, rtol=0.0, atol=1e-12)


def test_exact_cca_maps_its_loadings_back_to_the_input_scale():
    x, y = dense_gaussian_pair(n=300, p=8, seed=41)
    want = ic.exact_cca(x, y, 4)
    got = ic.exact_cca(x * 2.0**400, y * 2.0**-700, 4)
    assert np.array_equal(got.d, want.d)
    assert np.array_equal(got.x_loadings, np.ldexp(want.x_loadings, -400))
    assert np.array_equal(got.y_loadings, np.ldexp(want.y_loadings, 700))


def test_in_band_input_is_not_copied():
    x, y = separated_instance()
    assert all(a is b for a, b in zip(ic.cca._checked_pair(x, y, 2), (x, y)))
    big = ic.as_sparse(x.toarray() * 2.0**65)
    shifted, same = ic.cca._checked_pair(big, y, 2)
    assert same is y and shifted is not big
    assert 1.0 <= np.max(np.abs(shifted.data)) < 2.0


@pytest.mark.parametrize(
    "solve",
    [
        lambda x, y, ref: ic.iterative_ls_cca(
            x, y, 3, t1=2, ls_x=exact_ls(x), ls_y=exact_ls(y), seed=0, reference=ref
        ),
        lambda x, y, ref: ic.l_cca(
            x, y, 3, t1=2, ling_cfg=ic.LingConfig(k_pc=3, t2=2, seed=0), reference=ref
        ),
        lambda x, y, ref: ic.g_cca(x, y, 3, t1=2, t2=2, seed=0, reference=ref),
        lambda x, y, ref: ic.d_cca(x, y, 3, t1=2, seed=0, reference=ref),
    ],
    ids=["iterative_ls_cca", "l_cca", "g_cca", "d_cca"],
)
def test_iterative_solvers_check_reference_at_entry(solve):
    x, y = separated_instance()
    n = x.shape[0]
    good = rng_for(42).standard_normal((n, 3))
    bad_refs = [
        (good, good[:, :2]),
        (good[:-1], good[:-1]),
        (good,),
        (good, good, good),
        (good[:, 0], good[:, 0]),
        (np.where(np.eye(n, 3) == 1, np.nan, good), good),
        (good, np.where(np.eye(n, 3) == 1, np.inf, good)),
    ]
    for ref in bad_refs:
        before = sparse_work.total
        with pytest.raises(ValueError, match=rf"reference must be two {n}x3 arrays"):
            solve(x, y, ref)
        assert sparse_work.total == before  # refused before any product
    assert len(solve(x, y, (good, good)).trace.dists_x) == 2


@pytest.mark.parametrize(
    "solve, name",
    [
        pytest.param(lambda x, y: ic.exact_cca(x, y, 2.0), "k_cca", id="exact_cca"),
        pytest.param(lambda x, y: ic.exact_cca_result(x, y, 2.0), "k_cca", id="exact_cca_result"),
        pytest.param(lambda x, y: ic.iterative_ls_cca(
            x, y, 2, t1=2.0, ls_x=exact_ls(x), ls_y=exact_ls(y), seed=0), "t1",
            id="iterative_ls_cca-t1"),
        pytest.param(lambda x, y: ic.l_cca(
            x, y, 2.0, t1=2, ling_cfg=ic.LingConfig(k_pc=3, t2=2)), "k_cca", id="l_cca-k_cca"),
        pytest.param(lambda x, y: ic.l_cca(
            x, y, 2, t1="2", ling_cfg=ic.LingConfig(k_pc=3, t2=2)), "t1", id="l_cca-t1"),
        pytest.param(lambda x, y: ic.l_cca(
            x, y, 2, t1=2, ling_cfg=ic.LingConfig(k_pc=3.0, t2=2)), "k_pc", id="l_cca-k_pc"),
        pytest.param(lambda x, y: ic.l_cca(
            x, y, 2, t1=2, ling_cfg=ic.LingConfig(k_pc=3, t2=1.5)), "t2", id="l_cca-t2"),
        pytest.param(lambda x, y: ic.l_cca(
            x, y, 2, t1=2, ling_cfg=ic.LingConfig(k_pc=3, t2=2, rsvd_power_iters=2.0)),
            "rsvd_power_iters", id="l_cca-rsvd_power_iters"),
        pytest.param(lambda x, y: ic.g_cca(x, y, 2, t1=2, t2=1.5, seed=0), "t2", id="g_cca-t2"),
        pytest.param(lambda x, y: ic.d_cca(x, y, True, t1=2, seed=0), "k_cca", id="d_cca-k_cca"),
        pytest.param(lambda x, y: ic.d_cca(x, y, 2, t1=2.5, seed=0), "t1", id="d_cca-t1"),
        pytest.param(lambda x, y: ic.rp_cca(x, y, 2, k_rpcca=4.0, seed=0), "k_rpcca",
                     id="rp_cca-k_rpcca"),
        pytest.param(lambda x, y: ic.iterative_ls_cca(
            x, y, 2, t1=2, ls_x=exact_ls(x), ls_y=exact_ls(y), seed=1.5), "seed",
            id="iterative_ls_cca-seed"),
        pytest.param(lambda x, y: ic.l_cca(
            x, y, 2, t1=2, ling_cfg=ic.LingConfig(k_pc=3, t2=2, seed=-1)), "seed",
            id="l_cca-seed"),
        pytest.param(lambda x, y: ic.g_cca(x, y, 2, t1=2, t2=2, seed=True), "seed",
                     id="g_cca-seed"),
        pytest.param(lambda x, y: ic.d_cca(x, y, 2, t1=2, seed=-1), "seed", id="d_cca-seed"),
        pytest.param(lambda x, y: ic.rp_cca(x, y, 2, k_rpcca=4, seed=1.5), "seed",
                     id="rp_cca-seed"),
    ],
)
def test_integer_budgets_are_checked_at_entry(solve, name):
    x, y = separated_instance()
    before = sparse_work.total
    with pytest.raises(ValueError, match=f"{name} must be an integer >= "):
        solve(x, y)
    assert sparse_work.total == before  # refused before any product


# Each solver at block size k; rp_cca sketches at width k.
SOLVERS_AT_K = [
    pytest.param(lambda x, y, k: ic.exact_cca_result(x, y, k), id="exact_cca"),
    pytest.param(lambda x, y, k: ic.l_cca(x, y, k, t1=2, ling_cfg=ic.LingConfig(k_pc=1, t2=2)),
                 id="l_cca"),
    pytest.param(lambda x, y, k: ic.g_cca(x, y, k, t1=2, t2=2, seed=0), id="g_cca"),
    pytest.param(lambda x, y, k: ic.d_cca(x, y, k, t1=2, seed=0), id="d_cca"),
    pytest.param(lambda x, y, k: ic.rp_cca(x, y, k, k_rpcca=k, seed=0), id="rp_cca"),
]


@pytest.mark.parametrize("solve", SOLVERS_AT_K)
@pytest.mark.parametrize("n, k", [(3, 4), (0, 1)])
def test_block_size_is_bounded_by_the_row_count_at_entry(solve, n, k):
    x = ic.as_sparse(rng_for(60).standard_normal((n, 6)))
    y = ic.as_sparse(rng_for(61).standard_normal((n, 5)))
    before = sparse_work.total
    with pytest.raises(ValueError, match=rf"^k_cca={k} outside \[1, {n}\]$"):
        solve(x, y, k)
    assert sparse_work.total == before  # refused before any product


def test_rp_cca_sketch_width_is_bounded_by_the_row_count():
    x = ic.as_sparse(rng_for(60).standard_normal((3, 6)))
    y = ic.as_sparse(rng_for(61).standard_normal((3, 5)))
    with pytest.raises(ValueError, match=r"^k_rpcca=5 outside \[k_cca=2, 3\]$"):
        ic.rp_cca(x, y, 2, k_rpcca=5)


def test_rp_cca_refuses_a_side_of_rank_below_k_cca():
    base = rng_for(62).standard_normal((30, 2))
    duplicated = ic.as_sparse(np.hstack([base, base, base]))
    with pytest.raises(ValueError, match="data rank below k_cca"):
        ic.rp_cca(duplicated, random_sparse(30, 5, 0.6, seed=63), 3, k_rpcca=4)


def test_bases_stay_in_the_column_space_of_a_rank_five_side():
    # 50 columns of rank 5, singular values over three decades; every range
    # finder here is asked for 10 directions, twice the rank
    rng = rng_for(0)
    x = (rng.standard_normal((1000, 5)) * np.logspace(0, -3, 5)) @ rng.standard_normal((5, 50))
    y = rng.standard_normal((1000, 300))
    u = np.linalg.svd(x, full_matrices=False)[0][:, :5]
    results = [
        ic.l_cca(x, y, 3, 4, ic.LingConfig(k_pc=10, t2=2, seed=0)),
        ic.g_cca(x, y, 3, 4, t2=2, seed=0),
        ic.d_cca(x, y, 3, 4, seed=0),
        ic.rp_cca(x, y, 3, 10, seed=0),
    ]
    for result in results:
        outside = result.x_basis - u @ (u.T @ result.x_basis)
        assert np.linalg.norm(outside, axis=0).max() <= 1e-10
    with pytest.raises(ValueError, match="data rank below k_cca"):
        ic.rp_cca(x, y, 8, 10, seed=0)


@pytest.mark.parametrize("solve, error, message", [
    (lambda x, y: ic.exact_cca(x, y, 2), ValueError, "data rank below k_cca"),
    (lambda x, y: ic.l_cca(x, y, 2, t1=2, ling_cfg=ic.LingConfig(k_pc=1, t2=2)),
     ic.IterationFailure, "stayed rank-deficient"),
    (lambda x, y: ic.g_cca(x, y, 2, t1=2, t2=2, seed=0), ic.IterationFailure,
     "stayed rank-deficient"),
    (lambda x, y: ic.d_cca(x, y, 2, t1=2, seed=0), ic.IterationFailure, "stayed rank-deficient"),
    (lambda x, y: ic.rp_cca(x, y, 2, k_rpcca=3, seed=0), ValueError, "data rank below k_cca"),
], ids=["exact_cca", "l_cca", "g_cca", "d_cca", "rp_cca"])
def test_an_all_zero_side_fails_with_a_named_error(solve, error, message):
    zero = ic.as_sparse(np.zeros((30, 4)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the zero-norm and low-rank notices
        with pytest.raises(error, match=message):
            solve(zero, random_sparse(30, 5, 0.6, seed=64))


def test_numpy_integer_budgets_give_the_same_run():
    x, y = separated_instance()
    want = ic.l_cca(x, y, 2, t1=2, ling_cfg=ic.LingConfig(k_pc=3, t2=2))
    cfg = ic.LingConfig(k_pc=np.int64(3), t2=np.int32(2), rsvd_power_iters=np.int64(2))
    got = ic.l_cca(x, y, np.int64(2), t1=np.int16(2), ling_cfg=cfg)
    assert got.correlations.tobytes() == want.correlations.tobytes()
    assert got.work == want.work


def test_outer_loop_holds_one_iterate_per_side():
    n, k = 20000, 4
    x = ic.as_sparse(random_sparse(n, 30, 0.05, seed=46))
    y = ic.as_sparse(random_sparse(n, 25, 0.05, seed=47))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ic.g_cca(x, y, k, t1=3, t2=2, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # at each solve: the other side's iterate, the descent's fit and x g; a
    # stale iterate of the solved side kept alive would make it four
    assert peak < 3.5 * n * k * 8


def test_concurrent_solves_report_only_their_own_work():
    x, y = separated_instance()
    cfg = ic.LingConfig(k_pc=5, t2=10, seed=0)
    jobs = {
        "l_cca": lambda: ic.l_cca(x, y, 4, t1=5, ling_cfg=cfg),
        "g_cca": lambda: ic.g_cca(x, y, 4, t1=5, t2=10, seed=0),
    }
    alone = {name: job().work for name, job in jobs.items()}
    assert alone["l_cca"] != alone["g_cca"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            barrier = threading.Barrier(len(jobs))
            together = {}

            def run(name, job):
                barrier.wait(timeout=30)
                together[name] = job().work

            threads = [threading.Thread(target=run, args=item) for item in jobs.items()]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert together == alone
    finally:
        sys.setswitchinterval(interval)


# Derandomized, so every run of the suite checks the same examples.
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


def gaussian_pair(seed, n, p1, p2):
    """A dense Gaussian pair sharing one latent direction, well conditioned."""
    rng = rng_for(seed)
    shared = rng.standard_normal((n, 1))
    x = rng.standard_normal((n, p1)) + shared
    y = rng.standard_normal((n, p2)) + shared
    return x, y


def exact_correlations(x, y, k):
    return ic.exact_cca_result(ic.as_sparse(x), ic.as_sparse(y), k).correlations


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(24, 60),
    p1=st.integers(2, 6),
    p2=st.integers(2, 6),
    scale_exponents=st.lists(st.floats(-30.0, 30.0), min_size=12, max_size=12),
    signs=st.lists(st.sampled_from((-1.0, 1.0)), min_size=12, max_size=12),
)
def test_exact_correlations_obey_the_invariances_of_cca(
    seed, n, p1, p2, scale_exponents, signs
):
    x, y = gaussian_pair(seed, n, p1, p2)
    k = min(p1, p2)
    want = exact_correlations(x, y, k)
    perm = rng_for(seed + 1).permutation(n)
    np.testing.assert_allclose(exact_correlations(x[perm], y[perm], k), want, atol=1e-9)
    scales = np.array(signs) * 2.0 ** np.array(scale_exponents)
    np.testing.assert_allclose(
        exact_correlations(x * scales[:p1], y * scales[p1:p1 + p2], k), want, atol=1e-9
    )
    duplicated = np.hstack([x * scales[:p1], x[:, :1] * scales[-1]])
    np.testing.assert_allclose(exact_correlations(duplicated, y, k), want, atol=1e-9)
    # an invertible mixing of x's columns keeps range(x); condition number <= 4
    rng = rng_for(seed + 2)
    mixing = np.linalg.qr(rng.standard_normal((p1, p1)))[0] * rng.uniform(0.5, 2.0, p1)
    np.testing.assert_allclose(exact_correlations(x @ mixing, y, k), want, atol=1e-9)
    np.testing.assert_allclose(exact_correlations(y, x, k), want, atol=1e-9)


# A value for every tuning parameter any algorithm takes, valid at kcca=2.
SMALL_BUDGET = {"t1": 3, "t2": 2, "kpc": 2, "krpcca": 4}


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), density=st.floats(0.3, 1.0))
def test_every_algorithm_reports_sorted_correlations_in_the_unit_interval(seed, density):
    x = random_sparse(80, 7, density, seed=seed)
    y = random_sparse(80, 6, density, seed=seed + 1)
    for name, algo in cli._ALGOS.items():
        budget = {param: SMALL_BUDGET[param] for param in algo.params}
        config = argparse.Namespace(algo=name, kcca=2, seed=seed, trace=False, **budget)
        corrs = algo.run(config, x, y, None).correlations
        assert corrs.shape == (2,), name
        assert np.all(np.isfinite(corrs)), name
        assert np.all((corrs >= 0.0) & (corrs <= 1.0)), name
        assert np.all(np.diff(corrs) <= 0.0), name


ROW_ORDER_SOLVERS = {
    "l_cca": lambda x, y: ic.l_cca(x, y, 2, t1=3, ling_cfg=ic.LingConfig(k_pc=3, t2=3, seed=1)),
    "g_cca": lambda x, y: ic.g_cca(x, y, 2, t1=3, t2=3, seed=1),
    "d_cca": lambda x, y: ic.d_cca(x, y, 2, t1=3, seed=1),
    "rp_cca": lambda x, y: ic.rp_cca(x, y, 2, k_rpcca=4, seed=1),
}


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), density=st.floats(0.3, 1.0))
def test_row_permutation_permutes_the_bases(seed, density):
    # the solvers' sums run over rows in stored order, so only rounding may change
    x = random_sparse(90, 8, density, seed=seed)
    y = random_sparse(90, 6, density, seed=seed + 1)
    perm = rng_for(seed + 2).permutation(90)
    for name, solve in ROW_ORDER_SOLVERS.items():
        want = solve(x, y)
        got = solve(x[perm], y[perm])
        for a, b in ((got.x_basis, want.x_basis), (got.y_basis, want.y_basis)):
            np.testing.assert_allclose(a, b[perm], rtol=0.0, atol=1e-10, err_msg=name)
        np.testing.assert_allclose(
            got.correlations, want.correlations, rtol=0.0, atol=1e-10, err_msg=name
        )
