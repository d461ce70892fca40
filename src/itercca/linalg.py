"""Sparse and dense matrix kernels shared by every algorithm in the package.

Sparse matrices are canonical CSR (`scipy.sparse.csr_array`) with sorted,
duplicate-free column indices and no explicitly stored zeros; `as_sparse`
produces that form and freezes the underlying buffers.  It validates each
input once, where it enters: a matrix that `as_sparse` itself returned is
handed back as is, without a copy or a check, so the repeated calls at
every solver entry point and public kernel cost nothing.  Dense matrices are plain float64
ndarrays and are tall-skinny everywhere in this package.  Every argument
of a public function passes one of three validators, once, where it
enters: `check_count` for integers, `as_sparse` for sparse matrices and
`check_block` for dense arrays, each raising a ValueError that names the
argument.

The two sparse-dense products funnel through a per-thread work counter
(`sparse_work`) that tallies nonzero multiplies; algorithm drivers snapshot
it to report machine-independent compute budgets, so solves running in
separate threads each see only their own products.

A product of a CSR matrix whose nnz times the dense width k reaches
2,000,000 is cut into row blocks of about equal nnz, one per 2,000,000
multiplies (at least two, at most eight), chosen from the matrix and k
alone.  With `ITERCCA_THREADS` above 1 (capped at
the usable cores and at the block count), each thread takes a contiguous
run of blocks: the calling thread the first run, a shared pool the rest.
`a @ b` is bitwise equal to the serial product, since each block fills
its own rows, and `a.T @ b` adds one partial per block in block order, so
both give the same bytes at every thread count.  The kernels also run the
gradient descent's dense n-by-k passes inside their blocks, so those
passes share the threads: `sparse_dense_mul` can return the product's
column sums of squares, and `sparse_transpose_dense_mul` can first
subtract a scaled block from its dense operand in place.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

# Relative threshold on |r_ii| the whole package uses for numerical rank
# decisions in thin QR factors.
RANK_RTOL = 1e-12


# CholeskyQR2 runs on every block whose first Cholesky factor is
# conditioned within _CHOLQR2_MAX_COND, its second pass only above
# _CHOLQR_ONE_PASS_MAX_COND: below that one pass already leaves
# |q.T q - I| under 3.2e-14 (measured on 15x2 to 200,000x60 blocks).
_CHOLQR2_MAX_COND = 1e6
_CHOLQR_ONE_PASS_MAX_COND = 16

# A product gets one row block per _ROW_BLOCK_MIN_WORK multiplies
# (nnz * k), at least two and at most _BLOCKS.  A smaller product stays one
# block: waking pool threads costs more than it saves.  Each block adds a
# p-by-k partial and a hand-off, so finer blocks made one-thread runs of
# the bench slower.  The count never depends on the thread count, so
# neither do the products' sums.
_ROW_BLOCK_MIN_WORK = 2_000_000
_BLOCKS = 8

# The fused dense passes walk a block in chunks of about this many
# float64 entries (256 KiB), so each chunk-sized temporary stays in cache;
# a chunk is also at most a sixteenth of the rows, so on a small array the
# temporaries stay a small fraction of it.
_CHUNK_ENTRIES = 2**15

# gram_diagonal squares this many stored entries at a time, a 512 KiB
# temporary; smaller chunks were slower on the bench matrices.
_GRAM_CHUNK = 2**16


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


# Threads that run the row blocks.  The package's __init__ has already
# checked that ITERCCA_THREADS, when set, is a positive integer.
_ROW_BLOCKS = min(int(os.environ.get("ITERCCA_THREADS") or 1), _usable_cores())


class _SparseWork(threading.local):
    """Tally of nonzero multiplies performed by the sparse kernels.

    Thread-local instrumentation, not part of any numerical contract:
    each thread sees its own `total`, starting at 0, and callers snapshot
    it before and after a run to meter that run alone.
    """

    def __init__(self):
        self.total = 0

    def add(self, count):
        self.total += int(count)


sparse_work = _SparseWork()


class NonFiniteError(ValueError):
    """A matrix handed to the package holds NaN or infinite values."""


def _is_own_output(a, shape):
    """True when `a` is an as_sparse result whose buffers are still its own.

    The marker holds the very buffers as_sparse froze; reassigning a
    buffer or making one writeable again sends `a` back through the checks.
    """
    frozen = getattr(a, "_itercca_canonical", None)
    return (
        frozen is not None
        and (shape is None or np.array_equal(shape, a.shape))
        and all(
            mine is theirs and not theirs.flags.writeable
            for mine, theirs in zip(frozen, (a.data, a.indices, a.indptr))
        )
    )


def as_sparse(a, shape=None, name="matrix"):
    """Return `a` as a canonical, frozen CSR matrix.

    Accepts anything `scipy.sparse.csr_array` accepts (dense arrays, other
    sparse formats, (data, (row, col)) triplets).  Duplicates are summed,
    indices sorted, explicit zeros dropped, and the result's buffers are
    marked read-only so shared matrices cannot be mutated downstream.
    Non-finite values raise `NonFiniteError`, with `name` naming the input.
    A matrix this function returned earlier is returned unchanged, with
    no copy and no check; every other input is copied and checked.
    """
    if _is_own_output(a, shape):
        return a
    m = sparse.csr_array(a, shape=shape, dtype=np.float64, copy=True)
    m.sum_duplicates()
    m.sort_indices()
    m.eliminate_zeros()
    m.check_format(full_check=True)
    finite = np.isfinite(m.data)
    if not finite.all():
        raise NonFiniteError(
            f"{name} holds {finite.size - np.count_nonzero(finite)} non-finite values"
        )
    for buf in (m.data, m.indices, m.indptr):
        buf.flags.writeable = False
    m._itercca_canonical = (m.data, m.indices, m.indptr)
    return m


def check_count(name, value, low):
    """Raise ValueError naming `name` unless value is an int or numpy integer (no bool) >= low."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_block(name, a, shape, writes=False):
    """`a` as a float64 array of `shape`, or a ValueError naming `name`.

    `shape` gives each axis a size or None for any size.  Without
    `writes` the result is np.asarray(a, dtype=np.float64).  With
    `writes=True` the callee writes into `a`, which must then already be
    a writable C-contiguous float64 ndarray and is returned as is.  No
    pass checks the values; what np.asarray cannot convert is refused too.
    """

    def refuse(got):
        kind = "a writable C-contiguous float64 array" if writes else "a float64 array"
        axes = ", ".join("any" if w is None else str(w) for w in shape)
        axes += "," * (len(shape) == 1)
        return ValueError(f"{name} must be {kind} of shape ({axes}), got {got}")

    if writes:
        ok = (
            isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.flags.c_contiguous and a.flags.writeable
        )
    else:
        try:
            a = np.asarray(a, dtype=np.float64)
        except (ValueError, TypeError) as err:
            raise refuse(f"a {type(a).__name__} numpy cannot read as float64: {err}") from None
        ok = True
    if not (ok and a.ndim == len(shape) and all(w in (None, n) for w, n in zip(shape, a.shape))):
        raise refuse(f"shape {np.shape(a)}")
    return a


_pool = None  # (pid, executor), created on the first parallel product
_pool_lock = threading.Lock()


def _row_pool():
    """The executor, shared by all callers, that runs all but the first run of blocks.

    Recreated in a forked child, whose copy has no live threads.
    """
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            executor = ThreadPoolExecutor(_ROW_BLOCKS - 1, thread_name_prefix="itercca-rows")
            _pool = (os.getpid(), executor)
        return _pool[1]


def _row_ranges(a, k):
    """Row blocks of about equal nnz splitting a product of canonical `a` with k columns.

    Chosen from `a` and k alone, never from the thread count: the single
    range (0, n) below _ROW_BLOCK_MIN_WORK multiplies, otherwise up to
    min(_BLOCKS, max(2, nnz * k // _ROW_BLOCK_MIN_WORK)) non-empty ranges.
    """
    work = a.nnz * k
    if work < _ROW_BLOCK_MIN_WORK:
        return [(0, a.shape[0])]
    blocks = min(_BLOCKS, max(2, work // _ROW_BLOCK_MIN_WORK))
    # Integer targets in indptr's dtype, so searchsorted casts nothing.
    targets = (a.nnz * np.arange(1, blocks, dtype=np.int64) // blocks).astype(a.indptr.dtype)
    cuts = [0, *np.searchsorted(a.indptr, targets).tolist(), a.shape[0]]
    return [(r0, r1) for r0, r1 in zip(cuts, cuts[1:]) if r1 > r0] or [(0, a.shape[0])]


def _map_blocks(fn, ranges):
    """[fn(r0, r1) for r0, r1 in ranges], each thread running a contiguous run of ranges.

    The caller runs the first run and the pool the rest; one thread, or
    a single range, never touches the pool.
    """
    runs = min(_ROW_BLOCKS, len(ranges))
    cuts = [len(ranges) * i // runs for i in range(runs + 1)]

    def run(i):
        return [fn(*rows) for rows in ranges[cuts[i] : cuts[i + 1]]]

    pending = [_row_pool().submit(run, i) for i in range(1, runs)]
    try:
        first = run(0)
    finally:
        wait(pending)  # no block outlives the call, even when the first raises
    return first + [part for f in pending for part in f.result()]


def _chunk_rows(n, k):
    return max(1, min(_CHUNK_ENTRIES // max(k, 1), n // 16))


def _row_chunks(r0, r1, rows):
    return [slice(c, min(c + rows, r1)) for c in range(r0, r1, rows)]


def _scale_tile(s, n):
    """The length-k vector s repeated down the rows of one chunk of an n-by-k array.

    Scaling a chunk by a tile of its own shape runs as one flat loop;
    broadcasting s itself runs numpy's loop k entries at a time, which
    took 2.4 times as long on 819-by-20 chunks.
    """
    return np.tile(s, (_chunk_rows(n, s.shape[0]), 1))


def map_row_chunks(fn, a, s):
    """Call fn(rows, tile) on every chunk of rows of a product of `a` with len(s) columns.

    `rows` is a slice of the product's rows and `tile` holds s in each of
    them, so `chunk * tile` scales the chunk's columns by s.  The chunks
    cover the product's row blocks in order, and the blocks run on the
    threads the products use, so fn may write the rows it is given of
    shared n-by-k arrays.  fn must not call BLAS, whose own threads would
    nest inside the pool's.
    """
    a = as_sparse(a)
    s = check_block("s", s, (None,))
    tile = _scale_tile(s, a.shape[0])

    def block(r0, r1):
        for rows in _row_chunks(r0, r1, tile.shape[0]):
            fn(rows, tile[: rows.stop - rows.start])

    _map_blocks(block, _row_ranges(a, s.shape[0]))


def _sum_in_order(parts):
    total = parts[0]
    for part in parts[1:]:
        total += part
    return total


# The public kernels start with `a = as_sparse(a)`: an identity check on
# the package's own matrices, one canonicalizing copy per call for any
# other input.  Every product, one block or many, then calls the kernels
# scipy's own `@` runs on CSR and CSC operands with two or more dense
# columns, with indptr[r0:r1 + 1] as the block's pointer array: it indexes
# the full data and indices buffers, so a block is a view with no copy.
# Both kernels add into a zeroed output.


def sparse_dense_mul(a, b, out=None, col_sq=None):
    """Product a @ b of a sparse n-by-p matrix with a dense p-by-k matrix.

    With `out`, a C-contiguous float64 n-by-k array that shares no memory
    with `b`, the product is written into `out` and `out` is returned,
    bitwise equal to the product made without it.  With `col_sq`, a
    writable float64 array of length k, the product's column sums of
    squares are written into it, each block's sums added in block order.
    """
    a = as_sparse(a)
    n, p = a.shape
    b = check_block("b", b, (p, None))
    k = b.shape[1]
    if out is not None:
        check_block("out", out, (n, k), writes=True)
        if np.may_share_memory(out, b):
            raise ValueError("out must not share memory with b, which is read after out is zeroed")
    if col_sq is not None:
        check_block("col_sq", col_sq, (k,), writes=True)
    sparse_work.add(a.nnz * k)
    b = np.ascontiguousarray(b).reshape(-1)
    # A new output comes zeroed from the allocator; a caller's is zeroed block by block.
    stale = out is not None
    if out is None:
        out = np.zeros((n, k))

    def fill(r0, r1):
        block = out[r0:r1]
        if stale:
            block.fill(0.0)
        _sparsetools.csr_matvecs(
            r1 - r0, p, k, a.indptr[r0 : r1 + 1], a.indices, a.data, b, block.reshape(-1)
        )
        return None if col_sq is None else np.einsum("ij,ij->j", block, block)

    sums = _map_blocks(fill, _row_ranges(a, k))
    if col_sq is not None:
        col_sq[:] = _sum_in_order(sums)
    return out


def sparse_transpose_dense_mul(a, b, minus=None):
    """Product a.T @ b without materializing the transpose of `a`.

    `a` is sparse n-by-p, `b` dense n-by-k; the result is dense p-by-k.
    With `minus=(m, s)`, m an n-by-k array and s a length-k vector, `b`
    is first updated in place to b - m * s (each column of m scaled by
    the matching entry of s), or to b - m when s is None, and the product
    is taken of the updated `b`; `b` must then be a writable C-contiguous
    float64 array sharing no memory with m.
    """
    a = as_sparse(a)
    b = check_block("b", b, (a.shape[0], None), writes=minus is not None)
    if minus is not None:
        m, s = minus
        m = check_block("m", m, b.shape)
        s = None if s is None else check_block("s", s, b.shape[1:])
        if np.may_share_memory(b, m):
            raise ValueError("b must not share memory with m, which is read while b is updated")
        tile = None if s is None else _scale_tile(s, b.shape[0])
    p = a.shape[1]
    k = b.shape[1]
    sparse_work.add(a.nnz * k)
    b = np.ascontiguousarray(b)

    def partial(r0, r1):
        if minus is not None:
            scaled = None if s is None else np.empty_like(tile)
            for rows in _row_chunks(r0, r1, _chunk_rows(b.shape[0], k)):
                chunk, h = b[rows], rows.stop - rows.start
                update = m[rows] if s is None else np.multiply(m[rows], tile[:h], out=scaled[:h])
                np.subtract(chunk, update, out=chunk)
        part = np.zeros((p, k))
        _sparsetools.csc_matvecs(
            p, r1 - r0, k, a.indptr[r0 : r1 + 1], a.indices, a.data,
            b[r0:r1].reshape(-1), part.reshape(-1),
        )
        return part

    return _sum_in_order(_map_blocks(partial, _row_ranges(a, k)))


class QrFactors(NamedTuple):
    q: np.ndarray
    r: np.ndarray


def _cholesky_pass(m):
    """(r, cond(r)) with r = cholesky(m.T m).T, or None when refused.

    The guard refuses m when Cholesky breaks down or r is worse
    conditioned than _CHOLQR2_MAX_COND.  Cholesky factors have a positive
    diagonal, so no sign flip is needed.  q = m inv(r) is orthonormal only
    to about eps * cond(r)**2 (Yamamoto, Nakatsukasa, Yanagisawa and
    Fukaya, 2015): rounding level for a well-conditioned m, and a basis
    conditioned near 1 for any m the guard accepts.
    """
    try:
        r = np.linalg.cholesky(m.T @ m).T
    except np.linalg.LinAlgError:
        return None
    cond = np.linalg.cond(r)
    if not cond <= _CHOLQR2_MAX_COND:
        return None
    return r, cond


def thin_qr(m):
    """Thin QR of a tall-skinny dense matrix, with diag(r) non-negative.

    CholeskyQR2 (Fukaya, Nakatsukasa, Yanagisawa and Yamamoto, 2014),
    built from matrix products, factors blocks of every height: a first
    guarded Cholesky pass gives r1 and q1 = m inv(r1), and a second pass
    on q1 runs only when r1 is conditioned worse than
    _CHOLQR_ONE_PASS_MAX_COND, with r = r2 r1, since below that one pass
    already leaves q orthonormal to rounding level.  The guard keeps
    cond(m) well below eps**-0.5, so q1 is conditioned near 1 and the
    second pass is never refused.  Blocks the guard refuses (Cholesky
    breakdown or cond above 1e6, which includes every rank-deficient
    block) take Householder reflections, with column signs of q flipped
    so diag(r) is non-negative, which makes the factorization
    deterministic.  Rank deficiency is not an error here; use
    `rank_deficient_columns` on the returned r and decide at the caller.
    """
    base, to_q, r = thin_qr_deferred(m)
    return QrFactors(base @ to_q, r)


def thin_qr_deferred(m):
    """`thin_qr(m)` as (base, to_q, r), with thin_qr's q = base @ to_q.

    A caller that needs q only inside products applies the small k-by-k
    to_q on the small side instead of forming q.  After one Cholesky pass
    this is (m, inv(r1), r1), so q is never formed; after two it is
    (q1, inv(r2), r2 r1); after Householder it is (q, I, r).
    """
    m = check_block("m", m, (None, None))
    n, k = m.shape
    if not 1 <= k <= n:
        raise ValueError(f"thin_qr needs n >= k >= 1, got shape {m.shape}")
    if (first := _cholesky_pass(m)) is None:
        q, r = _householder_qr(m)
        return q, np.eye(k), r
    r1, cond = first
    if cond <= _CHOLQR_ONE_PASS_MAX_COND:
        return m, np.linalg.inv(r1), r1
    q1 = m @ np.linalg.inv(r1)
    r2, _ = _cholesky_pass(q1)
    return q1, np.linalg.inv(r2), r2 @ r1


def _householder_qr(m):
    """Householder thin QR of m, column signs flipped so diag(r) >= 0."""
    q, r = np.linalg.qr(m, mode="reduced")
    signs = np.where(np.diag(r) < 0, -1.0, 1.0)
    return QrFactors(q * signs, r * signs[:, None])


def rank_deficient_columns(r):
    """Indices i with |r_ii| below RANK_RTOL times the largest diagonal entry."""
    d = np.abs(np.diag(r))
    ref = d.max() if d.size else 0.0
    if ref == 0.0:
        return np.arange(d.size)
    return np.flatnonzero(d < RANK_RTOL * ref)


def gram_diagonal(a):
    """Squared column norms of a sparse matrix, i.e. diag(a.T @ a).

    Each stored entry's square is added to its column in storage order,
    _GRAM_CHUNK entries at a time, so the one temporary is a chunk's
    squares and the sums are bitwise those of a single pass.
    """
    a = as_sparse(a)
    d = np.zeros(a.shape[1])
    one = np.ones(1)
    for c in range(0, a.nnz, _GRAM_CHUNK):
        data, cols = a.data[c : c + _GRAM_CHUNK], a.indices[c : c + _GRAM_CHUNK]
        # the chunk as the one column of a CSC matrix: d[cols] += data * data.
        # np.add.at gives the same bits but took 1.4x as long on the bench's
        # x (0.56 against 0.40 ms at nnz 250,000; 1.4 against 0.99 at 800,000)
        ptr = np.array([0, data.size], dtype=cols.dtype)
        _sparsetools.csc_matvec(d.size, 1, ptr, cols, data * data, one, d)
    return d


def sparse_gram(a, b=None):
    """The dense cross product a.T @ b (a.T @ a when b is omitted).

    Both operands are sparse with equal row counts; the output is a small
    dense p_a-by-p_b array, so this is only for desk-scale column counts.
    Counted into `sparse_work` at the exact multiply count of the
    row-outer-product expansion.
    """
    a = as_sparse(a)
    b = a if b is None else as_sparse(b)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"row mismatch: {a.shape} vs {b.shape}")
    row_nnz_a = np.diff(a.indptr)
    row_nnz_b = np.diff(b.indptr)
    sparse_work.add(int(row_nnz_a @ row_nnz_b))
    return np.asarray((a.T @ b).todense(), dtype=np.float64)
