"""Deflated-gradient least-squares solver.

Approximates the projection of a dense block y onto the column space of a
huge sparse matrix x by splitting it into an exact projection onto the top
k_pc left singular directions of x plus a gradient-descent fit of the
deflated residual.  Deflation shrinks the spectral range the descent has
to fight through, so the geometric error rate
r = (l_{k_pc+1}^2 - l_p^2) / (l_{k_pc+1}^2 + l_p^2), with l_i the singular
values of x, replaces the much-worse rate involving l_1.

The descent is steepest descent with an exact per-column line search
(step = |g|^2 / |x g|^2 for gradient g = x.T (x b - y)); its classical
convergence ratio matches the advertised r exactly, so the rate is
testable without tuning a step size.

With t2 > 0 the solver runs on x diag(s), with s = D^-1/2 for
D = diag(x.T x) and s = 1 on zero columns: Jacobi preconditioning of the
normal equations.  Rescaling columns leaves range(x) and so the
projection unchanged, while r, now read off the
singular values of x diag(s), drops wherever column scale drives the
spread of the spectrum.  Neither the range finder nor the descent forms
x diag(s): each applies s to its p-by-k blocks, so the scaling adds no
n-side array and no sparse multiply.  At t2 = 0 there is no descent to
precondition: s = 1 and the basis is that of x itself.  The paper's
unscaled method is `gd_least_squares` and `randomized_top_singulars` with
their default col_scale, ones.

Both solvers, deflated (`cca.l_cca`) and plain (`cca.g_cca`, k_pc = 0,
whose basis is empty: n-by-0), run the one descent in `gd_least_squares`,
which takes the deflation basis u1 as an input.  A solve holds two n-by-k
arrays: the fit, which starts as the projection y1 = u1 (u1.T y) and carries
the descent's residual x b - (y - y1) between steps, and one buffer for
x g.  Every dense pass over them runs inside the sparse products' fixed
row blocks (see `linalg`), so the descent gives the same bytes at every
thread count.  The projection stays an n-side product, made by BLAS on
the calling thread: the descent amplifies rounding in its first gradient
several-fold per step when the spectrum past k_pc is poorly separated,
and forming y1 and that gradient from p-side coefficients instead made
six-step solves two to six times less accurate.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .linalg import (
    as_sparse,
    check_block,
    check_count,
    gram_diagonal,
    map_row_chunks,
    sparse_dense_mul,
    sparse_transpose_dense_mul,
)
from .rsvd import OVERSAMPLE, POWER_ITERS, RangeBasis, randomized_top_singulars


@dataclass(frozen=True)
class LingConfig:
    """Solver parameters.

    k_pc = 0 disables deflation entirely (pure gradient descent); t2 = 0
    leaves only the projection onto the top singular directions, where
    `cca.l_cca` returns the exact CCA of the two bases (and which it
    refuses at k_pc = 0, where every solve is zero).  k_pc, t2,
    rsvd_power_iters and seed are integers >= 0, checked here so that a
    config the range finder never sees (k_pc = 0) is refused too.
    rsvd_power_iters defaults to `rsvd.POWER_ITERS`; the range finder's
    sketch oversamples by `rsvd.OVERSAMPLE`, read here as `rsvd_oversample`.
    """

    k_pc: int
    t2: int
    rsvd_power_iters: int = POWER_ITERS
    seed: int = 0
    rsvd_oversample: ClassVar[int] = OVERSAMPLE

    def __post_init__(self):
        for name in ("k_pc", "t2", "rsvd_power_iters", "seed"):
            check_count(name, getattr(self, name), 0)


@dataclass(frozen=True)
class LingSolver:
    """A design matrix with its precomputed column scales and deflation basis.

    The scales are ones at t2 = 0 and the basis is empty (n-by-0) at
    k_pc = 0.  Built once and reused across many right-hand sides; its
    arrays are read-only, so a single solver may serve concurrent solves.
    """

    x: object
    basis: RangeBasis
    config: LingConfig
    col_scale: np.ndarray


def build_solver(x, config):
    """Precompute the column scales and the top-k_pc singular basis of x for repeated solves."""
    x = as_sparse(x)
    n, p = x.shape
    col_scale = np.ones(p)
    if config.t2 > 0:
        d = gram_diagonal(x)
        np.divide(1.0, np.sqrt(d), out=col_scale, where=d > 0)
    col_scale.flags.writeable = False
    basis = RangeBasis(u1=np.zeros((n, 0)), singular_estimates=np.zeros(0), rank_deficient=False)
    if config.k_pc > 0:
        basis = randomized_top_singulars(
            x, min(config.k_pc, n, p), power_iters=config.rsvd_power_iters,
            seed=config.seed, col_scale=col_scale,
        )
    return LingSolver(x=x, basis=basis, config=config, col_scale=col_scale)


def gd_least_squares(x, y, t2, u1=None, col_scale=None):
    """Fitted values x b after t2 line-search steps on |x b - y|^2, deflated by u1.

    y is an n-by-k block and t2 an integer >= 0.  u1 is an n-by-r
    deflation basis, which must be orthonormal and lie inside range(x);
    neither is checked here.  The fit starts from the exact projection
    y1 = u1 (u1.T y), zero for the default empty (n-by-0) u1, and the
    steps fit the deflated residual y - y1, so t2 = 0 returns y1.  With
    col_scale, a length-p vector s that defaults to ones, the steps
    descend on x diag(s): the gradient is g = s * x.T (x b - y), its image
    x (s * g), and the step |g|^2 / |x (s * g)|^2, at the multiplies of x
    alone.  The descent's dense n-by-k passes all run in the sparse
    products' row blocks: the first gradient's prologue subtracts y, each
    later gradient's applies the previous step's update, x g reports its
    column sums of squares for the step size, and the last update and the
    closing + y run in the same blocks.  A column whose gradient image x g
    vanishes takes a zero step, which keeps rank-deficient designs from
    dividing by zero.
    """
    check_count("t2", t2, 0)
    x = as_sparse(x)
    n, p = x.shape
    y = check_block("y", y, (n, None))
    col_scale = check_block("col_scale", np.ones(p) if col_scale is None else col_scale, (p,))
    u1 = check_block("u1", np.zeros((n, 0)) if u1 is None else u1, (n, None))
    # Both products are BLAS calls and stay on this thread, outside the row blocks.
    fit = u1 @ (u1.T @ y)
    if t2 == 0:
        return fit
    k = y.shape[1]
    # scaling by a p-by-k tile is one flat pass; broadcasting s[:, None] runs k entries at a time
    scale = np.repeat(col_scale[:, None], k, axis=1)
    xg = np.empty(fit.shape)
    xg_sq = np.empty(k)
    minus = (y, None)
    for _ in range(t2):
        g = sparse_transpose_dense_mul(x, fit, minus=minus)
        np.multiply(g, scale, out=g)
        g_sq = np.einsum("ij,ij->j", g, g)
        np.multiply(g, scale, out=g)
        sparse_dense_mul(x, g, out=xg, col_sq=xg_sq)
        minus = (xg, np.divide(g_sq, xg_sq, out=np.zeros(k), where=xg_sq > 0))

    def finish(rows, tile):
        fit_rows, update = fit[rows], xg[rows]
        np.multiply(update, tile, out=update)
        np.subtract(fit_rows, update, out=fit_rows)
        np.add(fit_rows, y[rows], out=fit_rows)

    map_row_chunks(finish, x, minus[1])
    return fit


def ling_solve(solver, y):
    """Approximate the projection of an n-by-k block y onto the column space of solver.x.

    One `gd_least_squares` call: the exact projection of y onto the
    solver's singular basis, then solver.config.t2 descent steps on the
    rest, on the solver's scaled columns.
    """
    return gd_least_squares(solver.x, y, solver.config.t2, solver.basis.u1, solver.col_scale)
