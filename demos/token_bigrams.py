#!/usr/bin/env python3
"""
Correlate adjacent tokens of a synthetic stream via indicator matrices.

Samples a Markov stream over five groups of words with different
stay-inside-the-group probabilities, turns adjacent pairs into sparse
indicator matrices, and compares the indicator-specialized solver with
the generic iterative one. The recovered correlations mirror the group
stay probabilities, with a leading exact 1 from the constant direction.
"""

# itercca first: OPENBLAS_THREAD_TIMEOUT takes effect only if set before numpy loads.
import itercca as ic

import numpy as np
import scipy.linalg

STAY_PROBS = (0.95, 0.85, 0.75, 0.65, 0.55)


def dense_ls(a):
    """Exact least-squares projector, fine at this scale."""
    q = scipy.linalg.qr(a.toarray(), mode="economic")[0]
    return lambda rhs: q @ (q.T @ rhs)


def sample_stream(n_tokens, n_groups, group_size, seed):
    """Tokens hop groups: stay with the group's probability, else jump."""
    rng = np.random.default_rng(seed)
    vocab = n_groups * group_size
    tokens = []
    group = 0
    for _ in range(n_tokens):
        tokens.append(f"w{group * group_size + rng.integers(group_size)}")
        if rng.random() >= STAY_PROBS[group]:
            group = int(rng.integers(n_groups))
    return tokens, vocab


def main():
    tokens, vocab = sample_stream(10000, 5, 20, seed=77)
    spec = ic.TokenDatasetSpec(tokens=tuple(tokens))
    x, y = ic.tokens_to_indicators(spec)
    print(f"stream of {len(tokens)} tokens over {vocab} words")
    print(f"indicators: x {x.shape}, y {y.shape}, one nonzero per row")
    print("=" * 60)

    dc = ic.d_cca(x, y, k_cca=6, t1=30, seed=0)
    it = ic.iterative_ls_cca(x, y, k_cca=6, t1=30,
                             ls_x=dense_ls(x), ls_y=dense_ls(y), seed=0)
    print(f"{'index':>5}  {'d_cca':>8}  {'iterative':>9}")
    for i in range(6):
        print(f"{i + 1:>5}  {dc.correlations[i]:>8.4f}  "
              f"{it.correlations[i]:>9.4f}")
    print("=" * 60)
    gap = max(abs(a - b) for a, b in zip(dc.correlations, it.correlations))
    print(f"largest disagreement between the two routes: {gap:.2e}")
    print("The top correlation is exactly 1 (both indicator matrices")
    print("contain the all-ones direction); the rest track the group")
    print(f"stay probabilities {STAY_PROBS}.")


if __name__ == "__main__":
    main()
