#!/usr/bin/env python3
"""
Plant known correlations in a synthetic pair and recover them exactly.

Generates a 200x20 / 200x15 sparse pair sharing five latent factors,
then runs the dense-oracle solver and prints planted vs recovered values.
"""

# itercca first: OPENBLAS_THREAD_TIMEOUT takes effect only if set before numpy loads.
import itercca as ic

import numpy as np


def main():
    spec = ic.SynthSpec(
        n=200, p1=20, p2=15, k_shared=5,
        planted_corrs=(0.97, 0.94, 0.91, 0.88, 0.85),
        spectrum_decay=0.5, density=0.6, seed=11,
    )
    x, y, planted = ic.synth_correlated(spec)
    print(f"x: {x.shape} with {x.nnz} nonzeros, y: {y.shape} with {y.nnz} nonzeros")
    print("=" * 60)

    factors = ic.exact_cca(x, y, k_cca=7)
    print(f"{'index':>5}  {'planted':>8}  {'recovered':>9}")
    for i, d in enumerate(factors.d):
        target = f"{planted[i]:.2f}" if i < len(planted) else "(noise)"
        print(f"{i + 1:>5}  {target:>8}  {d:>9.4f}")
    print("=" * 60)
    print("The five planted pairs come back near their targets; the")
    print("remaining values sit at the sampling-noise level.")

    result = ic.exact_cca_result(x, y, k_cca=5)
    print(f"captured correlation sum: {ic.captured_correlation_sum(result):.4f}")
    print(f"sparse multiplies: {result.work}")


if __name__ == "__main__":
    main()
