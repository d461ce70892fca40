"""Randomized computation of top left singular subspaces of sparse matrices.

Range finder with a Gaussian test matrix, power iterates and a final
sketch orthonormalized by `thin_qr` (the bare power scheme loses all but
the top direction to exponent collapse), and a small eigendecomposition
of the projected Gram to order and truncate the basis.  For a matrix
with fewer columns than rows only the short p-side iterates are
normalized, since a (a.T a)^i omega spans the same space whichever side
is normalized (Halko, Martinsson and Tropp, 2011); the sparse products
are the same in either case.

Randomness comes from numpy's PCG64 bit generator seeded directly with the
integer `seed`, with standard-normal draws; identical inputs and seed give
bitwise identical output on any platform.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    as_sparse,
    sparse_dense_mul,
    sparse_transpose_dense_mul,
    thin_qr,
)


@dataclass(frozen=True)
class RangeBasis:
    """Orthonormal basis u1 for an approximate top singular subspace.

    Columns are ordered by decreasing singular value estimate
    (`singular_estimates`).  `rank_deficient` is set when the requested
    rank exceeded the numerical rank and u1 was truncated accordingly.
    """

    u1: np.ndarray
    singular_estimates: np.ndarray
    rank_deficient: bool


def randomized_top_singulars(a, k, power_iters=2, oversample=10, seed=0):
    """Approximate top-k left singular vectors of a sparse n-by-p matrix.

    Parameters
    ----------
    a : sparse matrix, n-by-p
    k : int
        Number of basis columns requested, 1 <= k <= min(n, p).
    power_iters : int >= 0
        Power iterations a.T(a .) applied to the test matrix before the
        final sketch a w.  Each p-side iterate goes through `thin_qr`, and
        so does each intermediate n-side one when p >= n; with the final
        sketch that is power_iters + 1 calls when p < n and
        2 power_iters + 1 when p >= n.
    oversample : int >= 0
        Extra sketch columns beyond k; the basis is truncated back to k.
        Neither count is checked here; `LingConfig` checks both.
    seed : int
        Seed for the PCG64 generator drawing the Gaussian test matrix.
    """
    a = as_sparse(a)
    n, p = a.shape
    if not 1 <= k <= min(n, p):
        raise ValueError(f"k={k} outside [1, min{a.shape}]")

    m = min(k + oversample, n, p)
    rng = np.random.Generator(np.random.PCG64(seed))
    omega = rng.standard_normal((p, m))

    w = omega
    for _ in range(power_iters):
        q = sparse_dense_mul(a, w)
        if p >= n:
            q = thin_qr(q).q
        w = thin_qr(sparse_transpose_dense_mul(a, q)).q
        del q  # free the n-by-m iterate before the next product allocates another
    q = thin_qr(sparse_dense_mul(a, w)).q

    # Eigendecomposition of the projected Gram (q.T a)(q.T a).T orders the
    # sketch by singular value estimate and reveals the numerical rank.
    b = sparse_transpose_dense_mul(a, q)
    evals, evecs = np.linalg.eigh(b.T @ b)
    order = np.argsort(evals)[::-1]
    evals = np.maximum(evals[order], 0.0)
    sing = np.sqrt(evals)

    if sing.size and sing[0] > 0.0:
        cutoff = sing[0] * max(n, p) * np.finfo(np.float64).eps
        rank = int(np.count_nonzero(sing > cutoff))
    else:
        rank = 0
    keep = min(k, rank)

    u1 = q @ evecs[:, order[:keep]]
    return RangeBasis(u1=u1, singular_estimates=sing[:keep], rank_deficient=keep < k)
