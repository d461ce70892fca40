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

A solve holds two n-by-k arrays: the descent's residual x b - (y - y1),
which starts at y1 - y written over the projection y1 = u1 (u1.T y), and
one buffer for x g.  The fit is that residual plus y.  The projection
stays an n-side product: the descent amplifies rounding in its first
gradient several-fold per step when the spectrum past k_pc is poorly
separated, and forming y1 and that gradient from p-side coefficients
instead made six-step solves two to six times less accurate.
"""

from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .linalg import as_sparse, check_count, sparse_dense_mul, sparse_transpose_dense_mul
from .rsvd import OVERSAMPLE, RangeBasis, randomized_top_singulars


@dataclass(frozen=True)
class LingConfig:
    """Solver parameters.

    k_pc = 0 disables deflation entirely (pure gradient descent); t2 = 0
    disables the descent, leaving only the projection onto the top
    singular directions.  k_pc, t2, rsvd_power_iters and seed are
    integers >= 0.  The range finder's sketch oversamples by the constant
    `rsvd.OVERSAMPLE`, readable here as `rsvd_oversample`.
    """

    k_pc: int
    t2: int
    rsvd_power_iters: int = 2
    seed: int = 0
    rsvd_oversample: ClassVar[int] = OVERSAMPLE

    def __post_init__(self):
        for name in ("k_pc", "t2", "rsvd_power_iters", "seed"):
            check_count(name, getattr(self, name), 0)


@dataclass(frozen=True)
class LingSolver:
    """A design matrix with its precomputed deflation basis.

    Built once and reused across many right-hand sides; immutable, so a
    single solver may serve concurrent solves.
    """

    x: object
    basis: Optional[RangeBasis]
    config: LingConfig


def build_solver(x, config):
    """Precompute the top-k_pc singular basis of x for repeated solves."""
    x = as_sparse(x)
    if config.k_pc == 0:
        return LingSolver(x=x, basis=None, config=config)
    k = min(config.k_pc, min(x.shape))
    basis = randomized_top_singulars(x, k, power_iters=config.rsvd_power_iters, seed=config.seed)
    return LingSolver(x=x, basis=basis, config=config)


def _check_rhs(x, y):
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError(f"rhs must be an n-by-k block for x {x.shape}, got shape {y.shape}")
    return y


def _descend(x, residual, y, t2):
    """The fit after t2 line-search steps on |x b - y_r|^2 from b = 0.

    `residual` enters as x b - y_r = -y_r and is updated in place; the
    returned fit, written over it, is the final residual plus y, which is
    y_r plus any part of the fit the caller made exactly (y1 in the
    deflated solve).  One n-by-k buffer holds x g at every step.  A column
    whose gradient image x g vanishes takes a zero step, which keeps
    rank-deficient designs from dividing by zero.
    """
    xg = np.empty(residual.shape)
    for _ in range(t2):
        g = sparse_transpose_dense_mul(x, residual)
        sparse_dense_mul(x, g, out=xg)
        g_sq = np.einsum("ij,ij->j", g, g)
        xg_sq = np.einsum("ij,ij->j", xg, xg)
        step = np.divide(g_sq, xg_sq, out=np.zeros_like(g_sq), where=xg_sq > 0)
        np.multiply(xg, step, out=xg)
        residual -= xg
    residual += y
    return residual


def gd_least_squares(x, y_r, t2):
    """Fitted values after t2 steepest-descent steps on |x b - y_r|^2.

    y_r is an n-by-k block and t2 an integer >= 0.  Each column is fit
    independently from b = 0 with an exact line search per step; the
    returned n-by-k array is x b after t2 steps.  A column whose gradient
    image x g vanishes takes a zero step.
    """
    check_count("t2", t2, 0)
    x = as_sparse(x)
    y_r = _check_rhs(x, y_r)
    return _descend(x, np.negative(y_r), y_r, t2)


def ling_solve(solver, y):
    """Approximate the projection of an n-by-k block y onto the column space of solver.x.

    Splits y into its component y1 on the precomputed singular basis
    (handled exactly) and a residual y - y1 handed to gradient descent for
    solver.config.t2 steps.
    """
    x = solver.x
    y = _check_rhs(x, y)
    t2 = solver.config.t2
    if solver.basis is None:
        return gd_least_squares(x, y, t2)
    u1 = solver.basis.u1
    y1 = u1 @ (u1.T @ y)
    if t2 == 0:
        return y1
    # The descent on y - y1 starts from its negation, y1 - y, written over
    # y1, and its final residual x b - (y - y1) is the fit y1 + x b minus y.
    return _descend(x, np.subtract(y1, y, out=y1), y, t2)
