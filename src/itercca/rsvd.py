"""Randomized computation of top left singular subspaces of sparse matrices.

Range finder with a Gaussian test matrix of k + OVERSAMPLE columns,
power iterates and a final sketch orthonormalized by thin QR (the bare
power scheme loses all but the top direction to exponent collapse), and a
small eigendecomposition of the projected Gram that only orders the basis
and truncates it to k, or to the sketch's rank when that is smaller: the
columns of its r that `linalg.rank_deficient_columns` does not flag.
Each round trip normalizes only its p-side iterate a.T (a w), whatever
the shape of the matrix, since a (a.T a)^i omega spans the same space
whichever side is normalized (Halko, Martinsson and Tropp, 2011).

Given column scales s, the range finder runs on a diag(s) without
forming it: each p-side iterate is scaled by s before a w and each a.T z
after the product, so the basis and its singular value estimates belong
to the scaled matrix at the same sparse multiplies.

The final sketch a w goes through `thin_qr_deferred`, which returns its
orthonormal basis as q = z to_q, with z n-by-m and to_q m-by-m (z is
the sketch itself when one Cholesky pass suffices).  q is never formed: the
projection a.T q is (a.T z) to_q, and to_q is folded into the
eigenvectors E that pick the basis out of the sketch, so the only dense
n-side product is u1 = z (to_q E).

Randomness comes from numpy's PCG64 bit generator seeded directly with the
integer `seed`, with standard-normal draws; identical inputs and seed give
bitwise identical output on any platform.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    as_sparse,
    check_block,
    check_count,
    rank_deficient_columns,
    sparse_dense_mul,
    sparse_transpose_dense_mul,
    thin_qr,
    thin_qr_deferred,
)

# Sketch columns drawn beyond the k requested.
OVERSAMPLE = 10

# Default power iterations a.T(a .) before the final sketch, here and in
# `LingConfig` (0, 1 and 2 were measured at about equal multiplies and 2 kept).
POWER_ITERS = 2


@dataclass(frozen=True)
class RangeBasis:
    """Orthonormal basis u1 for an approximate top singular subspace.

    Columns are ordered by decreasing singular value estimate
    (`singular_estimates`).  `rank_deficient` is set when k exceeded the
    sketch's rank by `linalg.rank_deficient_columns` and u1 was cut to it.
    """

    u1: np.ndarray
    singular_estimates: np.ndarray
    rank_deficient: bool


def _scaled(b, col_scale):
    """b overwritten by diag(s) b for col_scale = s[:, None], or b itself without scales.

    Every b is a fresh p-by-m array the range finder owns, so it is scaled
    in place rather than copied.
    """
    return b if col_scale is None else np.multiply(b, col_scale, out=b)


def randomized_top_singulars(a, k, power_iters=POWER_ITERS, seed=0, col_scale=None):
    """Approximate top-k left singular vectors of a sparse n-by-p matrix.

    Parameters
    ----------
    a : sparse matrix, n-by-p
    k : int
        Number of basis columns requested, 1 <= k <= min(n, p); the
        sketch has min(k + OVERSAMPLE, n, p) columns, and its rank caps
        the columns returned (`RangeBasis`).
    power_iters : int >= 0
        Power iterations a.T(a .) applied to the test matrix before the
        final sketch a w.  Each p-side iterate goes through `thin_qr`, and
        the final sketch through `thin_qr_deferred`.  Either way the call
        makes 2 (power_iters + 1) sparse products.
    seed : int >= 0
        Seed for the PCG64 generator drawing the Gaussian test matrix.
    col_scale : length-p float64 array, optional
        Column scales s: the basis and estimates are those of a diag(s),
        at the multiplies of `a` alone.  Their values are not checked.

    power_iters and seed must be Python or numpy integers (no bool);
    anything else raises ValueError naming the argument before any product.
    """
    check_count("power_iters", power_iters, 0)
    check_count("seed", seed, 0)
    a = as_sparse(a)
    n, p = a.shape
    if not 1 <= k <= min(n, p):
        raise ValueError(f"k={k} outside [1, min{a.shape}]")
    if col_scale is not None:
        col_scale = check_block("col_scale", col_scale, (p,))[:, None]

    m = min(k + OVERSAMPLE, n, p)
    w = np.random.Generator(np.random.PCG64(seed)).standard_normal((p, m))
    for _ in range(power_iters):
        # the n-by-m iterate is freed before the next product allocates another
        w = sparse_transpose_dense_mul(a, sparse_dense_mul(a, _scaled(w, col_scale)))
        w = thin_qr(_scaled(w, col_scale)).q
    # the orthonormal sketch q = z z_to_q is never formed
    z, z_to_q, r = thin_qr_deferred(sparse_dense_mul(a, _scaled(w, col_scale)))
    b = _scaled(sparse_transpose_dense_mul(a, z), col_scale) @ z_to_q
    keep = min(k, m - rank_deficient_columns(r).size)

    # Eigendecomposition of the projected Gram (q.T a)(q.T a).T orders the
    # sketch by singular value estimate; the top `keep` directions are kept.
    evals, evecs = np.linalg.eigh(b.T @ b)
    order = np.argsort(evals)[::-1]
    sing = np.sqrt(np.maximum(evals[order], 0.0))

    e = evecs[:, order[:keep]]
    u1 = z @ (z_to_q @ e)
    return RangeBasis(u1=u1, singular_estimates=sing[:keep], rank_deficient=keep < k)
