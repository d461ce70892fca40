"""Reference answers computed apart from itercca, and the property checks.

Nothing here calls the package: the Grams come from scipy.sparse
products, the whitening from scipy.linalg Cholesky factors (the package
whitens by eigendecomposition), and the indicator oracle from bigram
counts the benchmark tallies itself.
"""

import numpy as np
import scipy.linalg as sl
from scipy import sparse


class Oracle:
    """Top canonical correlations with the canonical variables of each side.

    x_basis and y_basis are n-by-k with orthonormal columns spanning the
    top-k canonical variables, correlations non-increasing.
    """

    def __init__(self, correlations, x_basis, y_basis):
        self.correlations = correlations
        self.x_basis = x_basis
        self.y_basis = y_basis


def dense_cca(x_triplet, y_triplet, shape_x, shape_y, k):
    """CCA by Cholesky whitening of the dense Grams (scipy.linalg).

    Columns without entries are dropped first: they add nothing to the
    column space, and the Cholesky factor needs a definite Gram.
    """
    x = _csr(x_triplet, shape_x)
    y = _csr(y_triplet, shape_y)
    x = x[:, np.flatnonzero(np.diff(x.tocsc().indptr))]
    y = y[:, np.flatnonzero(np.diff(y.tocsc().indptr))]
    lx = sl.cholesky((x.T @ x).toarray(), lower=True)
    ly = sl.cholesky((y.T @ y).toarray(), lower=True)
    cxy = (x.T @ y).toarray()
    m = sl.solve_triangular(ly, sl.solve_triangular(lx, cxy, lower=True).T, lower=True).T
    u, s, vt = sl.svd(m)
    # canonical variables x lx^-T u and y ly^-T v are orthonormal
    wx = sl.solve_triangular(lx, u[:, :k], lower=True, trans="T")
    wy = sl.solve_triangular(ly, vt[:k].T, lower=True, trans="T")
    return Oracle(s[:k], x @ wx, y @ wy)


def indicator_cca(x_cols, y_cols, p1, p2, k):
    """Closed form for one-hot rows: the SVD of D_x^-1/2 C D_y^-1/2.

    C is the p1-by-p2 bigram count matrix and D_x, D_y its row and column
    sums, which are the diagonal Grams of the indicator matrices.
    """
    c = np.bincount(x_cols * p2 + y_cols, minlength=p1 * p2).reshape(p1, p2).astype(np.float64)
    dx = np.sqrt(c.sum(axis=1))
    dy = np.sqrt(c.sum(axis=0))
    u, s, vt = sl.svd(c / dx[:, None] / dy[None, :])
    return Oracle(s[:k], (u[:, :k] / dx[:, None])[x_cols], (vt[:k].T / dy[:, None])[y_cols])


def _csr(triplet, shape):
    data, rows, cols = triplet
    return sparse.csr_array((data, (rows, cols)), shape=shape)


def oracle_dist(x_basis, y_basis, oracle, dims):
    """Distance from a solve's leading canonical directions to the oracle's.

    The solve's bases are rotated to their own canonical directions (SVD
    of x_basis' y_basis); the span of the first dims on each side is
    compared with the oracle's first dims, as the sine of the largest
    principal angle, and the larger side is returned.
    """
    u, _, vt = np.linalg.svd(x_basis.T @ y_basis)
    pairs = ((x_basis @ u[:, :dims], oracle.x_basis[:, :dims]),
             (y_basis @ vt[:dims].T, oracle.y_basis[:, :dims]))
    return max(float(np.sin(np.max(sl.subspace_angles(a, b)))) for a, b in pairs)


def check_solve(label, x_basis, y_basis, correlations, oracle, problems, tol=1e-6):
    """Append to problems every property the solve breaks.

    Both bases orthonormal; correlations equal to the singular values of
    x_basis.T @ y_basis recomputed here; each correlation at most the
    oracle's at the same index (interlacing, since both bases lie in the
    data's column spaces).
    """
    k = len(correlations)
    for side, b in (("x", x_basis), ("y", y_basis)):
        err = float(np.max(np.abs(b.T @ b - np.eye(b.shape[1]))))
        if err > 1e-8:
            problems.append(f"{label}: {side}_basis not orthonormal (max |B'B - I| = {err:.2e})")
    recomputed = np.clip(sl.svdvals(x_basis.T @ y_basis), 0.0, 1.0)
    err = float(np.max(np.abs(recomputed - correlations)))
    if err > 1e-10:
        problems.append(f"{label}: correlations differ from svd(x_basis' y_basis) by {err:.2e}")
    excess = float(np.max(correlations - oracle.correlations[:k]))
    if excess > tol:
        problems.append(f"{label}: correlation exceeds the oracle's by {excess:.2e}")
