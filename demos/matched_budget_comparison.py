#!/usr/bin/env python3
"""
Compare the three inexact solvers at one shared sparse-multiply budget.

Builds two 5000x300 instances with twenty planted correlations, one with
a steeply decaying column spectrum and one flat, runs the deflated
solver, plain gradient descent tuned to the same work, and the sketch
route tuned to the same work, and prints the captured correlation sums:
once with the descents on equilibrated columns (what `l_cca` runs) and
once with the paper's unscaled basis and descent on the raw columns, at
the same multiplies and seeds.  The sketch has no descent, so both
columns show the same run for it.
"""

# itercca first: OPENBLAS_THREAD_TIMEOUT takes effect only if set before numpy loads.
import itercca as ic

import numpy as np

from itercca.linalg import sparse_work
from itercca.ling import gd_least_squares
from itercca.rsvd import randomized_top_singulars

K_CCA = 20
T1 = 4


def build_instance(decay, seed):
    corrs = tuple(np.round(np.linspace(0.95, 0.8, K_CCA), 3))
    spec = ic.SynthSpec(
        n=5000, p1=300, p2=300, k_shared=K_CCA,
        planted_corrs=corrs, spectrum_decay=decay,
        density=0.02, seed=seed, placement="edges",
    )
    x, y, _ = ic.synth_correlated(spec)
    return x, y


def raw_columns_cca(x, y, k_pc, t2):
    """l_cca's run at seed 5 with the unscaled basis and descent on each side.

    Returns the captured correlation sum and the sparse multiplies spent.
    """
    before = sparse_work.total
    children = np.random.SeedSequence(5).spawn(3)
    seed_init, seed_x, seed_y = (int(c.generate_state(1)[0]) for c in children)

    def solve_with(a, seed):
        u1 = randomized_top_singulars(a, k_pc, seed=seed).u1 if k_pc else None
        return lambda rhs: gd_least_squares(a, rhs, t2, u1)

    run = ic.iterative_ls_cca(x, y, K_CCA, T1, solve_with(x, seed_x), solve_with(y, seed_y),
                              seed_init)
    return ic.captured_correlation_sum(run), sparse_work.total - before


def run_trio(x, y):
    """(name, multiplies, sum on equilibrated columns, sum on raw columns) per method."""
    nnz = x.nnz + y.nnz
    lc = ic.l_cca(x, y, k_cca=K_CCA, t1=T1, ling_cfg=ic.LingConfig(k_pc=220, t2=2, seed=5))

    # plain gradient descent (l_cca at k_pc=0), inner steps chosen to spend the same work
    t2_matched = max(1, round(lc.work / (T1 * 2 * K_CCA * nnz)))
    gc = ic.g_cca(x, y, k_cca=K_CCA, t1=T1, t2=t2_matched, seed=5)

    # sketch width chosen so the randomized factorization costs the same
    k_rp = min(round(lc.work / (6 * nnz)) - 10, min(x.shape[1], y.shape[1]) - 1)
    rc = ic.rp_cca(x, y, k_cca=K_CCA, k_rpcca=k_rp, seed=5)
    rc_sum = ic.captured_correlation_sum(rc)

    rows = []
    for name, scaled, (k_pc, t2) in (("deflated solver (k_pc=220, t2=2)", lc, (220, 2)),
                                     (f"gradient descent (t2={t2_matched})", gc, (0, t2_matched))):
        raw_sum, raw_work = raw_columns_cca(x, y, k_pc, t2)
        assert raw_work == scaled.work
        rows.append((name, scaled.work, ic.captured_correlation_sum(scaled), raw_sum))
    rows.append((f"sketch route (k_rpcca={k_rp})", rc.work, rc_sum, rc_sum))
    return rows


def main():
    for label, decay, seed in (("steep spectrum", 1.0, 71),
                               ("flat spectrum", 0.0, 72)):
        x, y = build_instance(decay, seed)
        print(f"{label}: n=5000, p=300, planted sum "
              f"{np.linspace(0.95, 0.8, K_CCA).sum():.2f}, "
              f"correlations planted at both spectrum edges")
        print("=" * 78)
        print(f"{'method':<36}  {'multiplies':>12}  {'equilibrated':>12}  {'raw columns':>11}")
        for name, work, scaled, raw in run_trio(x, y):
            print(f"{name:<36}  {work:>12}  {scaled:>12.2f}  {raw:>11.2f}")
        print("=" * 78)
        print()
    print("On raw columns the steep instance favours deflation: the sketch")
    print("cannot reach the weak-column directions at this width, and")
    print("plain descent stalls on the spread of column scales.")
    print("Equilibration takes most of that spread away, so plain descent")
    print("comes within a hair of the deflated solver, both well above")
    print("the sketch. On the flat instance deflation has nothing to")
    print("remove, so plain descent matches it at equal cost.")

if __name__ == "__main__":
    main()
