"""Canonical correlation algorithms.

One exact desk-scale solver plus a family of large-scale approximations
that share a single driver:

* exact_cca — whiten both sides on their column spaces (the Grams'
  eigendirections above a relative floor) and take the SVD of the
  whitened cross-covariance.  Dependent columns need no repair: CCA sees
  a side only through its column space.  The reference answer everything
  else is measured against; column counts are capped because it
  materializes p-by-p Grams.
* iterative_ls_cca — orthogonal iteration where every half-step is a
  least-squares projection onto one side's column space, with a thin QR
  after every solve.  The LS solver is pluggable, which is the whole
  point: swapping it produces the variants below.
* l_cca / g_cca — the deflated-gradient solver (and its no-deflation
  special case) plugged into the driver.
* d_cca — projection approximated by inverting only diag(Gram); exact
  when columns have disjoint supports (indicator data).
* rp_cca — l_cca with no gradient steps, which returns the driver's limit
  at once: exact CCA between randomized top singular bases of the sides.

All entry points are deterministic given their seed and report wall time
plus the sparse multiply count consumed, so runs can be compared at
matched compute budgets.
"""

import functools
import time
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .evaluation import subspace_dist
from .linalg import (
    as_sparse,
    check_block,
    check_count,
    gram_diagonal,
    rank_deficient_columns,
    sparse_dense_mul,
    sparse_gram,
    sparse_transpose_dense_mul,
    sparse_work,
    thin_qr,
)
from .ling import LingConfig, build_solver, ling_solve

# exact_cca materializes p-by-p Grams; refuse silly column counts.
MAX_ORACLE_COLS = 2048

# exact_cca's rank: unit-diagonal Gram eigenvalues above this times their mean.
_EIG_FLOOR_REL = 1e-10

# exact_cca and zero-step l_cca refuse a k_cca above either side's rank with this.
_BELOW_RANK = "data rank below k_cca; no full-size canonical basis exists"

# Rounds of column replacement a rank-collapsed iterate gets before failing.
_MAX_RESTARTS = 5

# A side whose largest |value| lies outside 2**±_SCALE_BAND is scaled into it.
_SCALE_BAND = 64


class IterationFailure(np.linalg.LinAlgError):
    """Numerical failure mid-run; carries whatever trace existed so far."""

    def __init__(self, msg, partial_trace):
        super().__init__(msg)
        self.partial_trace = partial_trace


@dataclass(frozen=True)
class ExactCcaFactors:
    """Loadings and correlations of the exact solution.

    d holds the top canonical correlations, non-increasing.  Column i of
    x_loadings maps the x data to its i-th canonical variable; the
    canonical variables have unit norm and are mutually orthogonal.
    """

    d: np.ndarray
    x_loadings: np.ndarray
    y_loadings: np.ndarray


@dataclass(frozen=True)
class ConvergenceTrace:
    """One record per completed outer iteration of an iterative run.

    dists_x / dists_y stay empty unless the caller supplied reference
    subspaces to measure against.  restarts lists the iteration indices
    (0 = the random start) where a rank-collapsed iterate had columns
    replaced.
    """

    corr_sums: np.ndarray
    seconds: np.ndarray
    dists_x: np.ndarray
    dists_y: np.ndarray
    restarts: tuple


@dataclass(frozen=True)
class CcaResult:
    """Orthonormal canonical bases with their correlations.

    correlations come from a final small CCA between the two returned
    bases (the singular values of x_basis.T @ y_basis), which is the
    common yardstick applied to every algorithm in this package.  wall_time
    and work, the sparse nonzero-multiply count, cover the whole call of
    the solver that returned the result.
    """

    x_basis: np.ndarray
    y_basis: np.ndarray
    correlations: np.ndarray
    trace: Optional[ConvergenceTrace] = None
    wall_time: float = 0.0
    work: int = 0


def _metered(solver):
    """Make `solver` report the wall time and sparse work of its whole call.

    Solvers that call other metered solvers report the outermost call.
    """

    @functools.wraps(solver)
    def metered(*args, **kwargs):
        t0 = time.perf_counter()
        w0 = sparse_work.total
        result = solver(*args, **kwargs)
        return replace(result, wall_time=time.perf_counter() - t0, work=sparse_work.total - w0)

    return metered


def _band_shift(a):
    """Exponent e putting a's largest |value| in [1, 2) as ldexp(a, e); 0 inside 2**±_SCALE_BAND.

    Far from unit scale the solvers' squared norms over- or underflow.  A
    power-of-two scale is exact and the solvers are equivariant under it
    in the band, so the shift changes no bit of any basis or correlation.
    """
    if a.nnz == 0:
        return 0
    # largest |value| in [2**(top-1), 2**top); max and min make no nnz-sized temporary
    top = int(np.frexp(max(a.data.max(), -a.data.min()))[1])
    return 0 if -_SCALE_BAND < top <= _SCALE_BAND else 1 - top


def _checked_pair(x, y, k_cca, t1=None, reference=None, seed=None):
    """Canonical x and y, a side outside the band shifted into it, the other uncopied.

    Checks equal row counts, that k_cca is an integer in [1, min(n, p1, p2)],
    that a given t1 is an integer >= 1, a given seed an integer >= 0 and
    a given reference two finite n-by-k_cca arrays.
    """
    check_count("k_cca", k_cca, 1)
    if t1 is not None:
        check_count("t1", t1, 1)
    if seed is not None:
        check_count("seed", seed, 0)
    x = as_sparse(x, name="x")
    y = as_sparse(y, name="y")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"row mismatch: x {x.shape} vs y {y.shape}")
    if k_cca > min(*x.shape, y.shape[1]):
        raise ValueError(f"k_cca={k_cca} outside [1, {min(*x.shape, y.shape[1])}]")
    if reference is not None:
        want = f"reference must be two {x.shape[0]}x{k_cca} arrays of finite values, one per side"
        if len(reference) != 2:
            raise ValueError(f"{want}, got {len(reference)}")
        for side, r in zip("xy", reference):
            if not np.isfinite(check_block(f"{want}: {side}", r, (x.shape[0], k_cca))).all():
                raise ValueError(f"{want}: {side} holds non-finite values")
    return tuple(
        a if e == 0 else as_sparse((np.ldexp(a.data, e), a.indices, a.indptr), shape=a.shape)
        for a, e in ((x, _band_shift(x)), (y, _band_shift(y)))
    )


def _whitening(c):
    """p-by-r factor w, w.T c w = I_r, of a symmetric PSD Gram c of numerical rank r.

    c = s c1 s with s the column norms (1 for a zero-norm column) and c1
    of unit diagonal, so the rank does not depend on column scale.  The
    eigendirections of c1 above 1e-10 * trace/p span its column space,
    and w = s^-1 V_r diag(evals_r)^(-1/2).  An all-zero c has r = 0.
    """
    norms = np.sqrt(np.diag(c))
    s = np.where(norms > 0.0, norms, 1.0)
    c = c / np.outer(s, s)
    evals, evecs = np.linalg.eigh(c)
    keep = evals > _EIG_FLOOR_REL * np.trace(c) / c.shape[0]
    return evecs[:, keep] / np.sqrt(evals[keep]) / s[:, None]


def exact_cca(x, y, k_cca):
    """Top-k_cca canonical correlations and loadings, solved exactly.

    Whitens each side on its column space and takes the SVD of the
    r_x-by-r_y whitened cross-covariance; the singular values are the
    canonical correlations, and mapping the singular vectors back through
    the whitening factors gives the loadings.  A k_cca above either
    side's numerical rank raises ValueError.  Desk scale only.  The
    solve runs on the band-shifted pair, and the loadings are shifted
    back to the scale of x and y.
    """
    x, y = as_sparse(x, name="x"), as_sparse(y, name="y")
    shifts = (_band_shift(x), _band_shift(y))
    x, y = _checked_pair(x, y, k_cca)
    p = max(x.shape[1], y.shape[1])
    if p > MAX_ORACLE_COLS:
        raise ValueError(f"exact solver is desk-scale only (p <= {MAX_ORACLE_COLS}), got {p}")

    wx = _whitening(sparse_gram(x))
    wy = _whitening(sparse_gram(y))
    if k_cca > min(wx.shape[1], wy.shape[1]):
        raise ValueError(f"{_BELOW_RANK} (ranks x {wx.shape[1]}, y {wy.shape[1]})")
    u, d, vt = np.linalg.svd(wx.T @ sparse_gram(x, y) @ wy)
    return ExactCcaFactors(
        d=d[:k_cca],
        x_loadings=np.ldexp(wx @ u[:, :k_cca], shifts[0]),
        y_loadings=np.ldexp(wy @ vt[:k_cca].T, shifts[1]),
    )


@_metered
def exact_cca_result(x, y, k_cca):
    """exact_cca packaged as a CcaResult for cross-algorithm comparison.

    The canonical-variable blocks are re-orthonormalized by QR (they are
    orthonormal only up to the solver's own tolerance) and the
    correlations recomputed between the cleaned bases.
    """
    x, y = _checked_pair(x, y, k_cca)
    factors = exact_cca(x, y, k_cca)
    bases = []
    for a, loadings in ((x, factors.x_loadings), (y, factors.y_loadings)):
        q, r = thin_qr(sparse_dense_mul(a, loadings))
        if rank_deficient_columns(r).size:
            raise ValueError(_BELOW_RANK)
        bases.append(q)
    return CcaResult(bases[0], bases[1], final_correlations(bases[0], bases[1]))


def final_correlations(x_basis, y_basis):
    """Correlations between two orthonormal bases, sorted non-increasing.

    The CCA of two orthonormal blocks needs no whitening, so it reduces
    to the singular values of x_basis.T @ y_basis.  Values are clamped to
    [0, 1]; rounding can push them a hair over 1.
    """
    x_basis = check_block("x_basis", x_basis, (None, None))
    y_basis = check_block("y_basis", y_basis, (x_basis.shape[0], None))
    for name, b in (("x_basis", x_basis), ("y_basis", y_basis)):
        gram = b.T @ b
        # written so that a NaN, which compares false, fails too; a 0-column basis passes
        if not np.max(np.abs(gram - np.eye(b.shape[1])), initial=0.0) <= 1e-6:
            raise ValueError(f"{name} is not orthonormal within 1e-6")
    s = np.linalg.svd(x_basis.T @ y_basis, compute_uv=False)
    return np.clip(s, 0.0, 1.0)


def _replace_deficient(m, bad, side, rng):
    fresh = sparse_dense_mul(side, rng.standard_normal((side.shape[1], bad.size)))
    m = np.array(m, copy=True)
    m[:, bad] = fresh
    return m


def _orthonormalize_iterate(m, side, rng, restarts, t):
    """Thin QR of an iterate, reviving rank-collapsed columns.

    Deficient columns are replaced with fresh random combinations of the
    side's data columns and the QR redone; gives up only when the data
    itself cannot support the block size.
    """
    for _ in range(_MAX_RESTARTS + 1):
        q, r = thin_qr(m)
        bad = rank_deficient_columns(r)
        if bad.size == 0:
            return q
        restarts.append(t)
        m = _replace_deficient(m, bad, side, rng)
    raise np.linalg.LinAlgError(
        f"iterate stayed rank-deficient after {_MAX_RESTARTS} restarts "
        f"(data rank below the requested block size?)"
    )


@_metered
def iterative_ls_cca(
    x,
    y,
    k_cca,
    t1,
    ls_x,
    ls_y,
    seed,
    trace=False,
    reference=None,
):
    """Orthogonal iteration between two column spaces via pluggable LS solvers.

    Starts from a random combination of x's columns and alternates
    y-iterate = ls_y(x-iterate), x-iterate = ls_x(y-iterate), with a thin
    QR after every solve.  ls_x(rhs) must approximate the projection of
    rhs onto the column space of x (likewise ls_y) as an n-by-k_cca
    block, or the run raises ValueError naming the function; with exact
    solvers the iterates converge to the top-k_cca canonical subspaces.

    trace=True records correlation sums per outer iteration; passing
    reference=(x_ref, y_ref), two n-by-k_cca arrays, additionally records
    subspace distances to those references.
    """
    x, y = _checked_pair(x, y, k_cca, t1, reference, seed)
    if reference is not None:
        trace = True

    t_start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(seed))
    restarts = []
    corr_sums, seconds, dists_x, dists_y = [], [], [], []

    def make_trace():
        return ConvergenceTrace(
            corr_sums=np.array(corr_sums),
            seconds=np.array(seconds),
            dists_x=np.array(dists_x),
            dists_y=np.array(dists_y),
            restarts=tuple(restarts),
        )

    block = (x.shape[0], k_cca)
    t = 0
    try:
        g = rng.standard_normal((x.shape[1], k_cca))
        x_hat = _orthonormalize_iterate(sparse_dense_mul(x, g), x, rng, restarts, 0)
        for t in range(1, t1 + 1):
            # Each side holds one iterate: the stale one goes before the solve replacing it.
            y_hat = None
            y_hat = _orthonormalize_iterate(
                check_block("ls_y(x_hat)", ls_y(x_hat), block), y, rng, restarts, t
            )
            x_hat = None
            x_hat = _orthonormalize_iterate(
                check_block("ls_x(y_hat)", ls_x(y_hat), block), x, rng, restarts, t
            )
            if trace:
                corr_sums.append(float(np.sum(final_correlations(x_hat, y_hat))))
                seconds.append(time.perf_counter() - t_start)
                if reference is not None:
                    dists_x.append(subspace_dist(x_hat, reference[0]))
                    dists_y.append(subspace_dist(y_hat, reference[1]))
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        raise IterationFailure(
            f"outer iteration {t} failed: {exc}", make_trace() if trace else None
        ) from exc

    return CcaResult(
        x_basis=x_hat,
        y_basis=y_hat,
        correlations=final_correlations(x_hat, y_hat),
        trace=make_trace() if trace else None,
    )


@_metered
def l_cca(x, y, k_cca, t1, ling_cfg, trace=False, reference=None):
    """Orthogonal iteration with the deflated-gradient LS solver per side.

    Each side's solver (top-k_pc singular basis plus t2 gradient steps) is
    built once and reused across all t1 outer iterations.  Sub-seeds for
    the random start and the two basis computations are derived from
    ling_cfg.seed, so one integer pins the whole run.

    With k_pc > 0 and t2 = 0 each solve is the exact projection onto a
    basis, so the loop's limit, the exact CCA of the two bases, is
    returned at once, whatever t1.  A basis narrower than k_cca raises
    ValueError, as do trace and reference, which need the loop.  With
    k_pc = 0 too every solve would return zeros, so t2 = 0 raises
    ValueError there before any work.
    """
    x, y = _checked_pair(x, y, k_cca, t1, reference)
    zero_step = ling_cfg.t2 == 0
    if zero_step and ling_cfg.k_pc == 0:
        raise ValueError("t2 = 0 needs k_pc > 0: at k_pc = 0 every least-squares solve is zero")
    if zero_step and (trace or reference is not None):
        name = "trace" if trace else "reference"
        raise ValueError(f"{name} needs an outer loop; l_cca at k_pc > 0, t2 = 0 runs none")
    children = np.random.SeedSequence(ling_cfg.seed).spawn(3)
    seed_init, seed_x, seed_y = (int(c.generate_state(1)[0]) for c in children)
    solver_x = build_solver(x, replace(ling_cfg, seed=seed_x))
    solver_y = build_solver(y, replace(ling_cfg, seed=seed_y))
    if zero_step:
        u1_x, u1_y = solver_x.basis.u1, solver_y.basis.u1
        if min(u1_x.shape[1], u1_y.shape[1]) < k_cca:
            raise ValueError(f"{_BELOW_RANK} (basis ranks x {u1_x.shape[1]}, y {u1_y.shape[1]})")
        u, _, vt = np.linalg.svd(u1_x.T @ u1_y)
        bases = (u1_x @ u[:, :k_cca], u1_y @ vt[:k_cca].T)
        return CcaResult(*bases, final_correlations(*bases))
    return iterative_ls_cca(
        x,
        y,
        k_cca,
        t1,
        lambda rhs: ling_solve(solver_x, rhs),
        lambda rhs: ling_solve(solver_y, rhs),
        seed_init,
        trace=trace,
        reference=reference,
    )


def g_cca(x, y, k_cca, t1, t2, seed, trace=False, reference=None):
    """Pure-gradient variant: the deflated solver with deflation turned off."""
    cfg = LingConfig(k_pc=0, t2=t2, seed=seed)
    return l_cca(x, y, k_cca, t1, cfg, trace=trace, reference=reference)


def _diagonal_ls(a, side):
    """LS solve with the Gram replaced by its diagonal.

    Exact when a's columns have disjoint supports (indicator matrices);
    otherwise an approximation.  Zero-norm columns get a zero inverse
    entry, the pseudo-inverse convention.
    """
    d = gram_diagonal(a)
    n_zero = int(np.count_nonzero(d == 0))
    if n_zero:
        warnings.warn(
            f"{n_zero} zero-norm columns on side {side!r} treated as absent",
            stacklevel=4,  # past d_cca and its _metered wrapper
        )
    inv = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)

    def solve(rhs):
        return sparse_dense_mul(a, inv[:, None] * sparse_transpose_dense_mul(a, rhs))

    return solve


@_metered
def d_cca(x, y, k_cca, t1, seed, trace=False, reference=None):
    """Orthogonal iteration with diagonal-Gram projections per side."""
    x, y = _checked_pair(x, y, k_cca, t1, reference, seed)
    return iterative_ls_cca(
        x,
        y,
        k_cca,
        t1,
        _diagonal_ls(x, "x"),
        _diagonal_ls(y, "y"),
        seed,
        trace=trace,
        reference=reference,
    )


def rp_cca(x, y, k_cca, k_rpcca, seed=0):
    """Exact CCA between rank-k_rpcca randomized range bases: zero-step l_cca.

    Correlation living outside the kept singular directions is invisible
    to this method by construction.
    """
    x, y = _checked_pair(x, y, k_cca, seed=seed)
    check_count("k_rpcca", k_rpcca, 1)
    if not k_cca <= k_rpcca <= min(*x.shape, y.shape[1]):
        raise ValueError(f"k_rpcca={k_rpcca} outside [k_cca={k_cca}, {min(*x.shape, y.shape[1])}]")
    return l_cca(x, y, k_cca, 1, LingConfig(k_pc=k_rpcca, t2=0, seed=seed))
