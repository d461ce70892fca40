"""Subspace distance and convergence-rate measurement.

Everything here is instrumentation: a metric between column spaces, a
geometric-rate fit over the last half of an error curve, and the scalar
summary (sum of captured correlations) used to compare algorithms.
"""

import numpy as np

from .linalg import check_block, rank_deficient_columns, thin_qr


def subspace_dist(w, z):
    """Spectral-norm distance between the column spaces of w and z.

    Equals the sine of the largest principal angle, i.e. the spectral norm
    of the difference of the two orthogonal projectors, but is computed
    from n x k quantities only: orthonormalize both sides and take the
    largest singular value of the residual q_z - q_w (q_w^T q_z).  For
    spans of equal width the residual of q_w on q_z has the same singular
    values, so one residual gives the symmetric distance.  That form
    agrees with sqrt(1 - sigma_min(q_w^T q_z)^2) in exact arithmetic and,
    unlike it, resolves distances all the way down to machine precision
    (the sigma_min route bottoms out near sqrt(eps)).
    """
    w = check_block("w", w, (None, None))
    z = check_block("z", z, w.shape)
    for name, a in (("w", w), ("z", z)):
        if not np.isfinite(a).all():
            raise ValueError(f"argument {name} holds non-finite values")

    q_w, r_w = thin_qr(w)
    q_z, r_z = thin_qr(z)
    for name, r in (("w", r_w), ("z", r_z)):
        if rank_deficient_columns(r).size:
            raise ValueError(f"argument {name} is rank deficient")

    resid = q_z - q_w @ (q_w.T @ q_z)
    return float(min(np.linalg.svd(resid, compute_uv=False)[0], 1.0))


def fit_geometric_rate(errors):
    """Per-iteration decay ratio of an error curve, fitted over its last half.

    The head of a convergence curve is transient-dominated, so only the
    last ceil(len / 2) points enter the least-squares slope of log(error)
    against iteration index; the ratio is exp(slope).  Requires at least 4
    tail points, all strictly positive; curves that reach exact zero must be
    truncated by the caller first.
    """
    errors = check_block("errors", errors, (None,))
    if np.any(errors <= 0) or not np.all(np.isfinite(errors)):
        raise ValueError("errors must be strictly positive and finite")

    n_tail = (errors.size + 1) // 2
    if n_tail < 4:
        raise ValueError(f"need >= 4 tail points, got {n_tail}")
    tail = np.log(errors[-n_tail:])
    slope = np.polynomial.polynomial.polyfit(np.arange(n_tail), tail, 1)[1]
    return float(np.exp(slope))


def captured_correlation_sum(result):
    """Total correlation captured by a run: the sum of its correlations."""
    return float(np.sum(result.correlations))
