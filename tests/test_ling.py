"""Deflated-gradient least-squares solver tests.

Expected values come from dense QR projections and dense SVD spectra,
computed with scipy directly in the tests.
"""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import itercca as ic
from itercca.evaluation import fit_geometric_rate
from itercca.linalg import sparse_work, thin_qr
from itercca.ling import LingSolver, build_solver, gd_least_squares, ling_solve
from itercca.rsvd import OVERSAMPLE, POWER_ITERS, RangeBasis, randomized_top_singulars

from conftest import (
    RATE_SPECTRUM,
    cliff_sparse,
    controlled_spectrum,
    random_sparse,
    rng_for,
    truncate_curve,
)


def dense_projection(a_sparse, y):
    q = scipy.linalg.qr(a_sparse.toarray(), mode="economic")[0]
    return q @ (q.T @ y)


def error_curve(solve, exact, t2_range):
    return np.array([np.linalg.norm(solve(t2) - exact) ** 2 for t2 in t2_range])


def unscaled_solver(x, cfg):
    """The paper's method as a solver: the raw basis and descent, unit column scales."""
    x = ic.as_sparse(x)
    n, p = x.shape
    basis = RangeBasis(np.zeros((n, 0)), np.zeros(0), False)
    if cfg.k_pc > 0:
        k = min(cfg.k_pc, n, p)
        basis = randomized_top_singulars(x, k, power_iters=cfg.rsvd_power_iters, seed=cfg.seed)
    return LingSolver(x=x, basis=basis, config=cfg, col_scale=np.ones(p))


def test_config_validates_fields():
    cfg = ic.LingConfig(k_pc=3, t2=10)
    assert cfg.rsvd_power_iters == POWER_ITERS == 2
    assert ic.LingConfig(k_pc=np.int64(3), t2=np.int32(10)) == cfg
    for bad, name in (
        (dict(k_pc=-1, t2=5), "k_pc"),
        (dict(k_pc=2, t2=-1), "t2"),
        (dict(k_pc=2, t2=5, rsvd_power_iters=-2), "rsvd_power_iters"),
        (dict(k_pc=3.0, t2=5), "k_pc"),
        (dict(k_pc=2, t2=1.5), "t2"),
        (dict(k_pc=2, t2=5, rsvd_power_iters=2.0), "rsvd_power_iters"),
        (dict(k_pc=2, t2=True), "t2"),
        (dict(k_pc=2, t2=5, seed=1.5), "seed"),
        (dict(k_pc=2, t2=5, seed=-1), "seed"),
        (dict(k_pc=2, t2=5, seed=True), "seed"),
    ):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 0"):
            ic.LingConfig(**bad)


def test_oversampling_is_a_constant_not_a_field():
    assert [f.name for f in dataclasses.fields(ic.LingConfig)] == [
        "k_pc", "t2", "rsvd_power_iters", "seed"
    ]
    assert ic.LingConfig(k_pc=3, t2=10).rsvd_oversample == OVERSAMPLE == 10


def test_build_solver_without_deflation_has_no_basis():
    x = random_sparse(20, 8, 0.5, seed=0)
    solver = build_solver(x, ic.LingConfig(k_pc=0, t2=5))
    assert solver.basis.u1.shape == (20, 0) and solver.basis.singular_estimates.shape == (0,)
    assert not solver.basis.rank_deficient


def test_build_solver_runs_only_the_precomputations_its_budgets_need(monkeypatch):
    x = random_sparse(20, 8, 0.5, seed=0)
    calls = []
    for name in ("randomized_top_singulars", "gram_diagonal"):
        original = getattr(ic.ling, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(ic.ling, name, spy)
    for k_pc, t2 in ((0, 5), (3, 0), (0, 0), (3, 5)):
        calls.clear()
        solver = build_solver(x, ic.LingConfig(k_pc=k_pc, t2=t2))
        assert ("randomized_top_singulars" in calls) == (k_pc > 0)
        assert ("gram_diagonal" in calls) == (t2 > 0)
        assert solver.basis.u1.shape == (20, min(k_pc, 8))
        assert np.all(solver.col_scale == 1.0) == (t2 == 0)


@pytest.mark.parametrize("k_pc", [0, 3])
def test_a_built_solver_is_read_only(k_pc):
    solver = build_solver(random_sparse(20, 8, 0.5, seed=0), ic.LingConfig(k_pc=k_pc, t2=2))
    for a in (solver.basis.u1, solver.basis.singular_estimates, solver.col_scale):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


def test_build_solver_on_identity_returns_orthonormal_pair():
    # spectrum is fully tied, so only orthonormality and width are pinned
    x = ic.as_sparse(np.eye(4))
    solver = build_solver(x, ic.LingConfig(k_pc=2, t2=0))
    u1 = solver.basis.u1
    assert u1.shape == (4, 2)
    np.testing.assert_allclose(u1.T @ u1, np.eye(2), atol=1e-10)


def test_build_solver_matches_dense_top_subspace():
    x = cliff_sparse(3)
    xd = x.toarray()
    evals, evecs = scipy.linalg.eigh(xd.T @ xd)
    order = np.argsort(evals)[::-1][:5]
    u_exact = xd @ evecs[:, order] / np.sqrt(evals[order])
    solver = build_solver(x, ic.LingConfig(k_pc=5, t2=0, rsvd_power_iters=3))
    u1 = solver.basis.u1
    resid = max(
        scipy.linalg.svd(u_exact - u1 @ (u1.T @ u_exact), compute_uv=False)[0],
        scipy.linalg.svd(u1 - u_exact @ (u_exact.T @ u1), compute_uv=False)[0],
    )
    assert resid <= 1e-6


def test_gd_defaults_are_the_empty_basis_and_unit_scales():
    x = random_sparse(15, 6, 0.5, seed=1)
    y = rng_for(1).standard_normal((15, 2))
    for t2 in (0, 1, 5):
        want = gd_least_squares(x, y, t2, np.zeros((15, 0)), np.ones(6))
        assert gd_least_squares(x, y, t2).tobytes() == want.tobytes()


def test_gd_zero_rhs_stays_zero():
    x = random_sparse(15, 6, 0.5, seed=1)
    for t2 in (0, 1, 7):
        out = gd_least_squares(x, np.zeros((15, 2)), t2)
        assert np.all(out == 0.0)


def test_zero_design_gets_an_empty_basis_and_a_zero_fit():
    x = ic.as_sparse(np.zeros((15, 6)))
    y = rng_for(1).standard_normal((15, 2))
    for t2 in (0, 1, 7):
        solver = build_solver(x, ic.LingConfig(k_pc=3, t2=t2))
        assert solver.basis.u1.shape == (15, 0) and solver.basis.rank_deficient
        assert np.all(ling_solve(solver, y) == 0.0)


def test_gd_orthonormal_design_converges_in_one_step():
    q = thin_qr(rng_for(2).standard_normal((12, 4))).q
    x = ic.as_sparse(q)
    y = rng_for(3).standard_normal((12, 3))
    out = gd_least_squares(x, y, 1)
    np.testing.assert_allclose(out, q @ (q.T @ y), atol=1e-10)


def test_gd_and_solve_take_only_n_by_k_blocks():
    x = random_sparse(10, 4, 0.6, seed=4)
    y = rng_for(5).standard_normal((10, 1))
    solvers = [build_solver(x, ic.LingConfig(k_pc=k_pc, t2=3)) for k_pc in (0, 2)]
    for block in (y, np.zeros((10, 0))):
        assert gd_least_squares(x, block, 3).shape == block.shape
        for solver in solvers:
            assert ling_solve(solver, block).shape == block.shape
    for bad in (y[:, 0], y[:9], y[None]):
        message = re.escape(f"got shape {bad.shape}")
        with pytest.raises(ValueError, match=message):
            gd_least_squares(x, bad, 3)
        for solver in solvers:
            with pytest.raises(ValueError, match=message):
                ling_solve(solver, bad)
    for t2 in (-1, 1.5):
        with pytest.raises(ValueError, match="t2 must be an integer >= 0"):
            gd_least_squares(x, y, t2)
    u1 = solvers[1].basis.u1
    with pytest.raises(ValueError, match=r"^u1 must .* got shape \(9, 2\)$"):
        gd_least_squares(x, y, 3, u1[:9])
    with pytest.raises(ValueError, match=r"^col_scale must .* got shape \(3,\)$"):
        gd_least_squares(x, y, 3, None, np.ones(3))


def test_every_solve_runs_through_gd_least_squares(monkeypatch):
    # the deflated descent must run under the name the bench's tracer wraps
    x = cliff_sparse(7)
    y = rng_for(8).standard_normal((60, 2))
    calls = []
    original = ic.ling.gd_least_squares

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ic.ling, "gd_least_squares", spy)
    for k_pc in (0, 4):
        solver = build_solver(x, ic.LingConfig(k_pc=k_pc, t2=3, seed=1))
        calls.clear()
        ling_solve(solver, y)
        assert len(calls) == 1
        assert calls[0][0] is solver.x and calls[0][1] is y
        assert calls[0][3] is solver.basis.u1 and calls[0][4] is solver.col_scale


def test_gd_rate_meets_full_spectrum_bound():
    x = random_sparse(40, 10, 0.5, seed=5)
    y = rng_for(50).standard_normal((40, 2))
    exact = dense_projection(x, y)
    sig = scipy.linalg.svd(x.toarray(), compute_uv=False)
    r = (sig[0] ** 2 - sig[-1] ** 2) / (sig[0] ** 2 + sig[-1] ** 2)
    errs = error_curve(lambda t2: gd_least_squares(x, y, t2), exact, range(41))
    ratio = fit_geometric_rate(truncate_curve(errs, 1e-8))
    assert ratio <= r ** 2 + 0.02


def test_gd_objective_monotone_per_column():
    x = random_sparse(40, 10, 0.5, seed=5)
    y = rng_for(50).standard_normal((40, 2))
    exact = dense_projection(x, y)
    prev = None
    for t2 in range(25):
        col = np.sum((gd_least_squares(x, y, t2) - exact) ** 2, axis=0)
        if prev is not None:
            assert np.all(col <= prev + 1e-12)
        prev = col


def test_solve_contracts_range_orthogonal_rhs():
    x = random_sparse(30, 8, 0.5, seed=6)
    q = scipy.linalg.qr(x.toarray(), mode="economic")[0]
    z = rng_for(7).standard_normal((30, 2))
    y = z - q @ (q.T @ z)
    solver = build_solver(x, ic.LingConfig(k_pc=3, t2=10, seed=1))
    out = ling_solve(solver, y)
    assert np.linalg.norm(out) <= np.linalg.norm(y)


def test_solve_exact_when_deflation_covers_rank():
    x = random_sparse(60, 30, 0.5, seed=8)
    y = rng_for(9).standard_normal((60, 4))
    solver = build_solver(x, ic.LingConfig(k_pc=30, t2=0, seed=2))
    np.testing.assert_allclose(
        ling_solve(solver, y), dense_projection(x, y), atol=1e-8
    )


def test_solve_rate_meets_deflated_bound():
    x = controlled_spectrum(60, 30, RATE_SPECTRUM, seed=0)
    y = rng_for(100).standard_normal((60, 3))
    exact = dense_projection(x, y)
    lam = RATE_SPECTRUM
    r = (lam[5] ** 2 - lam[-1] ** 2) / (lam[5] ** 2 + lam[-1] ** 2)

    # the paper's unscaled method: the rate is read off x's own spectrum
    u1 = randomized_top_singulars(x, 5, power_iters=30, seed=9).u1
    errs = error_curve(lambda t2: gd_least_squares(x, y, t2, u1), exact, range(31))
    ratio = fit_geometric_rate(truncate_curve(errs, 1e-8))
    assert ratio <= r ** 2 + 0.02


def test_deflation_no_worse_than_plain_gd_on_decaying_spectrum():
    x = controlled_spectrum(60, 30, RATE_SPECTRUM, seed=0)
    y = rng_for(100).standard_normal((60, 3))
    exact = dense_projection(x, y)
    for t2 in (5, 15):
        errs = {}
        for k_pc in (0, 10):
            cfg = ic.LingConfig(k_pc=k_pc, t2=t2, rsvd_power_iters=30, seed=9)
            errs[k_pc] = np.linalg.norm(ling_solve(build_solver(x, cfg), y) - exact)
        assert errs[10] <= errs[0]


def test_solve_is_nearly_idempotent():
    # once lies in range(x), so the second solve's descent starts from the
    # deflated part of once and, like any steepest descent with exact line
    # search, contracts its fitted-value error by the deflated rate r per
    # step; the descent is the paper's unscaled one, so r is x's own rate
    lam = RATE_SPECTRUM
    r = (lam[5] ** 2 - lam[-1] ** 2) / (lam[5] ** 2 + lam[-1] ** 2)
    t2 = 30
    y = rng_for(100).standard_normal((60, 3))
    for seed in range(20):
        x = controlled_spectrum(60, 30, RATE_SPECTRUM, seed=seed)
        exact = dense_projection(x, y)
        u1 = randomized_top_singulars(x, 5, power_iters=30, seed=9).u1
        once = gd_least_squares(x, y, t2, u1)
        twice = gd_least_squares(x, once, t2, u1)
        deflated = np.linalg.norm(once - u1 @ (u1.T @ once), axis=0)
        moved = np.linalg.norm(twice - once, axis=0)
        assert np.all(moved <= r ** t2 * deflated + 1e-12)
        # with the triangle inequality this also bounds twice - exact by 3 err
        solver_err = np.linalg.norm(once - exact)
        assert np.linalg.norm(twice - once) <= 2.0 * solver_err + 1e-12


def reference_ling_solve(x, basis, t2, y, col_scale):
    """The solve written out step by step: y1 is zero for an empty basis.

    With col_scale s the steps descend on x diag(s); s = 1 changes no bit.
    """
    y = np.asarray(y, dtype=np.float64)
    s = col_scale[:, None]
    y1 = basis.u1 @ (basis.u1.T @ y)
    rhs = y - y1
    residual = -rhs.copy()
    for _ in range(t2):
        g = (x.T @ residual) * s
        xg = x @ (g * s)
        g_sq = np.einsum("ij,ij->j", g, g)
        xg_sq = np.einsum("ij,ij->j", xg, xg)
        step = np.divide(g_sq, xg_sq, out=np.zeros_like(g_sq), where=xg_sq > 0)
        residual -= xg * step
    return y1 + (residual + rhs)


def residual_carrying_ling_solve(x, basis, t2, y, col_scale):
    """The solve step by step as the package runs it, descent steps as above.

    The residual starts at y1 - y and the fit is the final residual plus
    y; with no steps the fit is y1 itself.
    """
    y = np.asarray(y, dtype=np.float64)
    s = col_scale[:, None]
    y1 = basis.u1 @ (basis.u1.T @ y)
    if t2 == 0:
        return y1
    residual = y1 - y
    for _ in range(t2):
        g = (x.T @ residual) * s
        xg = x @ (g * s)
        g_sq = np.einsum("ij,ij->j", g, g)
        xg_sq = np.einsum("ij,ij->j", xg, xg)
        step = np.divide(g_sq, xg_sq, out=np.zeros_like(g_sq), where=xg_sq > 0)
        residual -= xg * step
    return residual + y


@pytest.mark.parametrize("k_pc", [0, 4])
def test_solve_matches_step_by_step_reference_bitwise(monkeypatch, k_pc):
    x = cliff_sparse(7)
    # an unbounded one-pass limit gives the range finder's sketch one
    # Cholesky pass, a zero limit two
    for one_pass_max_cond in (np.inf, 0):
        monkeypatch.setattr(ic.linalg, "_CHOLQR_ONE_PASS_MAX_COND", one_pass_max_cond)
        for t2 in (0, 1, 3, 6):
            cfg = ic.LingConfig(k_pc=k_pc, t2=t2, seed=3)
            # the default solver on scaled columns, and the paper's unscaled one
            for solver in (build_solver(x, cfg), unscaled_solver(x, cfg)):
                for y in (rng_for(8).standard_normal((60, 3)), rng_for(9).standard_normal((60, 1))):
                    before = sparse_work.total
                    got = ling_solve(solver, y)
                    assert sparse_work.total - before == 2 * t2 * y.shape[1] * x.nnz
                    step_by_step = residual_carrying_ling_solve(
                        x, solver.basis, t2, y, solver.col_scale
                    )
                    assert np.array_equal(got, step_by_step)
                    # the descents' iterates agree bit for bit; only the final sum differs
                    explicit = reference_ling_solve(x, solver.basis, t2, y, solver.col_scale)
                    assert np.linalg.norm(got - explicit) <= 1e-12 * np.linalg.norm(explicit)


def test_gd_steps_allocate_no_n_by_k_temporaries():
    x = random_sparse(20000, 200, 0.02, seed=44)
    y = rng_for(45).standard_normal((20000, 4))
    deflated = build_solver(x, ic.LingConfig(k_pc=10, t2=1, seed=1))

    def deflated_solve(t2):
        return ling_solve(dataclasses.replace(deflated, config=ic.LingConfig(k_pc=10, t2=t2)), y)

    def peak_bytes(solve, t2):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solve(t2)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    # the residual and x g are the only n-by-k arrays; the slack covers the
    # p-by-k gradients, a small fraction of one n-by-k array
    for solve in (lambda t2: gd_least_squares(x, y, t2), deflated_solve):
        peak = {t2: peak_bytes(solve, t2) for t2 in (1, 20)}
        assert peak[20] <= peak[1] + y.nbytes // 4
        assert peak[20] <= 2 * y.nbytes + y.nbytes // 4


@pytest.mark.parametrize("k_pc", [0, 4])
def test_equilibrated_runs_match_runs_on_an_explicitly_scaled_copy(monkeypatch, k_pc):
    # columns spread 1000x on x and 100x on y, so the scales matter
    x = random_sparse(200, 30, 0.3, seed=12, col_scales=np.logspace(0, 3, 30))
    y = random_sparse(200, 20, 0.3, seed=13, col_scales=np.logspace(0, -2, 20))
    cfg = ic.LingConfig(k_pc=k_pc, t2=4, seed=2)
    copies = {}
    for a in (x, y):
        s = build_solver(a, cfg).col_scale
        np.testing.assert_allclose(s, 1.0 / np.linalg.norm(a.toarray(), axis=0), rtol=1e-14)
        copies[id(a)] = ic.as_sparse(a.toarray() * s)

    def metered(fn):
        before = sparse_work.total
        return fn(), sparse_work.total - before

    def close(got, want):
        return np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    rhs = rng_for(14).standard_normal((200, 3))
    got, work = metered(lambda: ling_solve(build_solver(x, cfg), rhs))
    want, want_work = metered(lambda: ling_solve(unscaled_solver(copies[id(x)], cfg), rhs))
    assert work == want_work and close(got, want)

    got, work = metered(lambda: ic.l_cca(x, y, 3, 3, cfg))
    # the reference keeps l_cca's seeds and its unscaled random start, and
    # runs the unscaled method on each side's scaled copy
    monkeypatch.setattr(ic.cca, "build_solver", lambda a, c: unscaled_solver(copies[id(a)], c))
    want, want_work = metered(lambda: ic.l_cca(x, y, 3, 3, cfg))
    assert work == want_work == got.work
    for name in ("x_basis", "y_basis", "correlations"):
        assert close(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("k_pc", [0, 5])
def test_equilibrated_descent_meets_the_scaled_rate_bound(k_pc):
    # unit columns of a matrix with a gapped spectrum, rescaled to norms
    # 1 to 100: the unscaled descent sees the spread, the equilibrated one
    # only the unit-column matrix's spectrum
    base = controlled_spectrum(60, 30, RATE_SPECTRUM, seed=0).toarray()
    unit = base / np.linalg.norm(base, axis=0)
    x = ic.as_sparse(unit * np.logspace(0, 2, 30))
    y = rng_for(100).standard_normal((60, 3))
    exact = dense_projection(x, y)
    lam = scipy.linalg.svd(unit, compute_uv=False)
    r = (lam[k_pc] ** 2 - lam[-1] ** 2) / (lam[k_pc] ** 2 + lam[-1] ** 2)
    ratio = {}
    for make in (build_solver, unscaled_solver):
        def solve(t2):
            cfg = ic.LingConfig(k_pc=k_pc, t2=t2, rsvd_power_iters=30, seed=9)
            return ling_solve(make(x, cfg), y)

        errs = error_curve(solve, exact, range(31))
        ratio[make] = fit_geometric_rate(truncate_curve(errs, 1e-8))
    assert ratio[build_solver] <= r ** 2 + 0.02
    assert ratio[build_solver] < ratio[unscaled_solver]


def test_zero_step_solver_is_the_unscaled_one(monkeypatch):
    # with no descent to precondition, the basis is x's own, bit for bit
    x = cliff_sparse(7)
    y = random_sparse(60, 20, 0.5, seed=15, col_scales=np.logspace(0, 2, 20))
    cfg = ic.LingConfig(k_pc=6, t2=0, seed=3)
    solver = build_solver(x, cfg)
    assert solver.col_scale.tobytes() == np.ones(x.shape[1]).tobytes()
    assert solver.basis.u1.tobytes() == unscaled_solver(x, cfg).basis.u1.tobytes()
    got = ic.l_cca(x, y, 3, 1, cfg)
    monkeypatch.setattr(ic.cca, "build_solver", unscaled_solver)
    want = ic.l_cca(x, y, 3, 1, cfg)
    for name in ("x_basis", "y_basis", "correlations"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_build_solver_peak_memory_stays_below_the_matrix_values():
    # 100 distinct columns, 20 apart, in each of 5000 rows: nnz = 500,000,
    # 4 MB of values, while the range finder's n-by-m blocks are 5000 x 20
    n, p, per_row = 5000, 2000, 100
    cols = np.sort((np.arange(n)[:, None] + 20 * np.arange(per_row)) % p, axis=1)
    values = rng_for(16).standard_normal(n * per_row)
    x = ic.as_sparse(
        (values, cols.ravel(), np.arange(0, n * per_row + 1, per_row)), shape=(n, p)
    )
    assert x.nnz == n * per_row
    for k_pc in (0, 10):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solver = build_solver(x, ic.LingConfig(k_pc=k_pc, t2=2, seed=1))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.any(solver.col_scale != 1.0)
        assert peak < 8 * x.nnz, (k_pc, peak)
