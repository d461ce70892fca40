#!/usr/bin/env python3
"""
Track the orthogonal iteration as it closes in on the exact subspaces.

Runs the exact-least-squares iterative solver on a well-separated
instance and prints the subspace distance to the dense-oracle answer
after each outer round, then fits the geometric decay rate and compares
it with the bound set by the correlation gap at the cut.
"""

# itercca first: OPENBLAS_THREAD_TIMEOUT takes effect only if set before numpy loads.
import itercca as ic
from itercca.evaluation import fit_geometric_rate

import numpy as np
import scipy.linalg


def dense_ls(a):
    """Exact least-squares projector, fine at this scale."""
    q = scipy.linalg.qr(a.toarray(), mode="economic")[0]
    return lambda rhs: q @ (q.T @ rhs)


def main():
    spec = ic.SynthSpec(
        n=200, p1=20, p2=15, k_shared=5,
        planted_corrs=(0.97, 0.94, 0.91, 0.88, 0.85),
        spectrum_decay=0.5, density=0.6, seed=11,
    )
    x, y, _ = ic.synth_correlated(spec)

    d = ic.exact_cca(x, y, k_cca=7).d
    gap = d[5] / d[4]
    print(f"correlations at the cut: d5={d[4]:.4f}, d6={d[5]:.4f}")
    print(f"ratio d6/d5 = {gap:.3f}, predicted distance rate = {gap**2:.3f}")
    print("=" * 60)

    oracle = ic.exact_cca_result(x, y, k_cca=5)
    result = ic.iterative_ls_cca(x, y, k_cca=5, t1=30,
                                 ls_x=dense_ls(x), ls_y=dense_ls(y), seed=0,
                                 trace=True,
                                 reference=(oracle.x_basis, oracle.y_basis))
    print(f"{'round':>5}  {'dist to oracle (x side)':>24}")
    for i, d in enumerate(result.trace.dists_x):
        print(f"{i + 1:>5}  {d:>24.3e}")
    print("=" * 60)

    errors = np.asarray(result.trace.dists_x)
    keep = errors > 1e-12 * errors[0]
    fitted = fit_geometric_rate(errors[keep])
    print(f"fitted per-round rate {fitted:.3f} vs bound {gap**2:.3f}")
    print(f"final distances: x {result.trace.dists_x[-1]:.2e}, "
          f"y {result.trace.dists_y[-1]:.2e}")


if __name__ == "__main__":
    main()
