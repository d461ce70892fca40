#!/usr/bin/env python3
"""
Compare the three inexact solvers at one shared sparse-multiply budget.

Builds two 5000x300 instances with twenty planted correlations, one with
a steeply decaying column spectrum and one flat, runs the deflated
solver, plain gradient descent tuned to the same work, and the sketch
route tuned to the same work, and prints the captured correlation sums.
"""

# itercca first: OPENBLAS_THREAD_TIMEOUT takes effect only if set before numpy loads.
import itercca as ic

import numpy as np

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


def run_trio(x, y):
    nnz = x.nnz + y.nnz
    lc = ic.l_cca(x, y, k_cca=K_CCA, t1=T1,
                  ling_cfg=ic.LingConfig(k_pc=220, t2=2, seed=5))

    # plain gradient descent, inner steps chosen to spend the same work
    t2_matched = max(1, round(lc.work / (T1 * 2 * K_CCA * nnz)))
    gc = ic.g_cca(x, y, k_cca=K_CCA, t1=T1, t2=t2_matched, seed=5)

    # sketch width chosen so the randomized factorization costs the same
    k_rp = min(round(lc.work / (6 * nnz)) - 10, min(x.shape[1], y.shape[1]) - 1)
    rc = ic.rp_cca(x, y, k_cca=K_CCA, k_rpcca=k_rp, seed=5)

    return (("deflated solver (k_pc=220, t2=2)", lc),
            (f"gradient descent (t2={t2_matched})", gc),
            (f"sketch route (k_rpcca={k_rp})", rc))


def main():
    for label, decay, seed in (("steep spectrum", 1.0, 71),
                               ("flat spectrum", 0.0, 72)):
        x, y = build_instance(decay, seed)
        print(f"{label}: n=5000, p=300, planted sum "
              f"{np.linspace(0.95, 0.8, K_CCA).sum():.2f}, "
              f"correlations planted at both spectrum edges")
        print("=" * 68)
        print(f"{'method':<36}  {'multiplies':>12}  {'corr sum':>9}")
        for name, result in run_trio(x, y):
            print(f"{name:<36}  {result.work:>12}  "
                  f"{ic.captured_correlation_sum(result):>9.2f}")
        print("=" * 68)
        print()
    print("On the steep instance the deflated solver wins: the sketch")
    print("cannot reach the weak-column directions at this width, and")
    print("plain descent stalls on the wide spectrum. On the flat")
    print("instance deflation has nothing to remove, so plain descent")
    print("matches it at equal cost.")


if __name__ == "__main__":
    main()
