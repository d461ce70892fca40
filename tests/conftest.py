"""Shared instance builders and independent oracles for the test suite.

Oracles here deliberately avoid the package's own code paths: naive loop
products, scipy-based whitening, dense QR projectors.  Expected values in
tests come from these, never from the functions under test.
"""

# itercca first: it turns ITERCCA_THREADS into the BLAS thread variables
# and OPENBLAS_THREAD_TIMEOUT, which OpenBLAS reads only when numpy first
# loads it.  Imported after numpy, the suite's BLAS would run at its
# default thread count with spinning idle workers.
import itercca as ic
from itercca.linalg import thin_qr

import numpy as np
import scipy.linalg


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def random_sparse(n, p, density, seed, col_scales=None):
    """iid-normal sparse test matrix with Bernoulli support."""
    rng = rng_for(seed)
    dense = rng.standard_normal((n, p))
    dense = dense * (rng.random((n, p)) < density)
    if col_scales is not None:
        dense = dense * np.asarray(col_scales, dtype=np.float64)
    return ic.as_sparse(dense)


# column-scale ladder with deliberate gaps after positions 5 and 10, so a
# randomized range finder can pin the deflation subspaces down
LADDER_SCALES = np.concatenate(
    [np.full(5, 1.0), np.full(5, 0.5), 0.3 * np.power(np.arange(1, 21, dtype=np.float64), -0.2)]
)

# exact singular-value profile for the rate tests: gapped at 5/6 and
# 10/11, modest overall range so the line-search steps stay tame
RATE_SPECTRUM = np.concatenate(
    [np.full(5, 1.0), np.full(5, 0.72), np.linspace(0.5, 0.35, 20)]
)


def controlled_spectrum(n, p, spectrum, seed):
    """Matrix with exactly the given singular values and random factors."""
    spectrum = np.asarray(spectrum, dtype=np.float64)
    rng = rng_for(seed)
    u = thin_qr(rng.standard_normal((n, p))).q
    v = thin_qr(rng.standard_normal((p, p))).q
    return ic.as_sparse(u * spectrum @ v.T)


def cliff_sparse(seed, n=60, p=30, top=5):
    """Sparse matrix with a hard spectral cliff after `top` columns."""
    scales = np.concatenate([np.full(top, 1.0), np.full(p - top, 0.05)])
    return random_sparse(n, p, 0.6, seed, col_scales=scales)


def spy_on(monkeypatch, name, module=ic.linalg):
    """Shapes of the blocks handed to module.<name>, in call order."""
    seen = []
    original = getattr(module, name)

    def spy(m):
        seen.append(m.shape)
        return original(m)

    monkeypatch.setattr(module, name, spy)
    return seen


def naive_matmul(a_dense, b_dense):
    """Triple-loop matrix product, the reference for the sparse kernels."""
    a_dense = np.asarray(a_dense, dtype=np.float64)
    b_dense = np.asarray(b_dense, dtype=np.float64)
    n, p = a_dense.shape
    p2, k = b_dense.shape
    assert p == p2
    out = np.zeros((n, k))
    for i in range(n):
        for j in range(k):
            acc = 0.0
            for l in range(p):
                acc += a_dense[i, l] * b_dense[l, j]
            out[i, j] = acc
    return out


def exact_ls(a):
    """Exact projection onto the column space of a sparse matrix.

    Dense QR route, independent of the package's iterative solvers; only
    valid at test scale and for full-column-rank a.
    """
    q = scipy.linalg.qr(a.toarray(), mode="economic")[0]
    return lambda rhs: q @ (q.T @ rhs)


def brute_force_cca(x_dense, y_dense, k):
    """Reference canonical correlations via scipy whitening plus dense SVD.

    Written independently of the package's solver: scipy eigendecomposition,
    explicit diagonal inverse-sqrt factors, scipy SVD.
    """
    x_dense = np.asarray(x_dense, dtype=np.float64)
    y_dense = np.asarray(y_dense, dtype=np.float64)
    cxx = x_dense.T @ x_dense
    cyy = y_dense.T @ y_dense
    cxy = x_dense.T @ y_dense

    def inv_sqrt(c):
        evals, evecs = scipy.linalg.eigh(c)
        return evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T

    ctilde = inv_sqrt(cxx) @ cxy @ inv_sqrt(cyy)
    return scipy.linalg.svd(ctilde, compute_uv=False)[:k]


def separated_instance(seed=11, p1=20, p2=15):
    """Planted instance whose top-5 canonical spectrum is well separated.

    The five planted correlations sit far above the sampling-noise level,
    giving a clean gap between the fifth and sixth canonical values.
    """
    spec = ic.SynthSpec(
        n=200, p1=p1, p2=p2, k_shared=5,
        planted_corrs=(0.97, 0.94, 0.91, 0.88, 0.85),
        spectrum_decay=0.5, density=0.6, seed=seed,
    )
    x, y, _ = ic.synth_correlated(spec)
    return x, y


def markov_tokens(n_tokens, n_groups, group_size, stay_probs, seed):
    """Token stream from a block Markov chain over a grouped vocabulary.

    From a token in group g the next token is uniform within group g with
    probability stay_probs[g], else uniform over the whole vocabulary.
    Distinct stay probabilities give the stream's bigram structure one
    strong canonical direction per group.
    """
    assert len(stay_probs) == n_groups
    rng = rng_for(seed)
    vocab_size = n_groups * group_size
    tokens = []
    current = int(rng.integers(vocab_size))
    for _ in range(n_tokens):
        tokens.append(f"w{current}")
        group = current // group_size
        if rng.random() < stay_probs[group]:
            current = group * group_size + int(rng.integers(group_size))
        else:
            current = int(rng.integers(vocab_size))
    return tokens


def truncate_curve(errors, rel_floor):
    """Cut an error curve at its first point below rel_floor * errors[0].

    Rate fits read the geometric phase of a convergence curve; below the
    numerical floor the decay law no longer applies.
    """
    errors = np.asarray(errors, dtype=np.float64)
    below = np.flatnonzero(errors < rel_floor * errors[0])
    return errors[: below[0]] if below.size else errors
