"""Top-k canonical correlation subspaces of large sparse matrix pairs.

The namespace holds the solver API: the solvers, their configs, results
and errors, the data entry points and the metrics that compare runs.  The
kernels are reached through their modules: `linalg`, `rsvd`, `ling` and
`evaluation`.
"""

import os as _os

# Honor ITERCCA_THREADS before numpy (and its BLAS) is first imported
# anywhere in the package; explicit user settings of the BLAS variables
# always win over this default.  The same count sizes the row-block pool
# of the sparse products (see linalg).
_threads = _os.environ.get("ITERCCA_THREADS")
if _threads:
    if not (_threads.isascii() and _threads.isdigit() and int(_threads) > 0):
        raise ValueError(f"ITERCCA_THREADS must be a positive integer, got {_threads!r}")
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
    # Idle OpenBLAS workers sleep almost at once instead of spinning on the
    # cores the sparse row blocks need; OpenBLAS reads this when it loads.
    _os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .cca import (
    CcaResult,
    ConvergenceTrace,
    ExactCcaFactors,
    IterationFailure,
    d_cca,
    exact_cca,
    exact_cca_result,
    final_correlations,
    g_cca,
    iterative_ls_cca,
    l_cca,
    rp_cca,
)
from .datasets import (
    SynthSpec,
    TokenDatasetSpec,
    read_libsvm,
    read_matrix_market,
    synth_correlated,
    tokens_to_indicators,
    write_matrix_market,
)
from .evaluation import captured_correlation_sum, subspace_dist
from .linalg import NonFiniteError, as_sparse
from .ling import LingConfig

__all__ = [
    "CcaResult",
    "ConvergenceTrace",
    "ExactCcaFactors",
    "IterationFailure",
    "LingConfig",
    "NonFiniteError",
    "SynthSpec",
    "TokenDatasetSpec",
    "as_sparse",
    "captured_correlation_sum",
    "d_cca",
    "exact_cca",
    "exact_cca_result",
    "final_correlations",
    "g_cca",
    "iterative_ls_cca",
    "l_cca",
    "read_libsvm",
    "read_matrix_market",
    "rp_cca",
    "subspace_dist",
    "synth_correlated",
    "tokens_to_indicators",
    "write_matrix_market",
]
