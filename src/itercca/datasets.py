"""Data loading and generation.

Three sources of paired sparse matrices: standard file formats
(Matrix Market coordinate, libsvm lines), indicator matrices built from a
token stream (rows of x mark the current token, rows of y the one after),
and a synthetic generator that plants known canonical correlations behind
a controlled singular spectrum so tests know the right answer.

Every text file, the CLI's token and spec files included, goes through
one UTF-8 decode that names a bad byte as `path:line`.
"""

import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linalg import as_sparse, check_count, thin_qr

_MM_HEADER = ("%%matrixmarket", "matrix", "coordinate", "real", "general")

# The readers parse a clean file in one vectorized pass and hand anything
# else to the line scanner, which reads it or names the offending line.
# "Clean" is a strict ASCII subset on which numpy's text parser and the
# scanner's int()/float() agree: the bytes below, plus ':' for libsvm.
_NUMERIC = b"0123456789+-.eE \n"
_LIBSVM = _NUMERIC + b":"
# Matrix Market preamble lines (header, comments, size line): printable
# ASCII, tab and LF, so bytes and str agree on lines and whitespace.
_PREAMBLE = b"\t\n" + bytes(range(0x20, 0x7F))
_MM_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])
_LIBSVM_ITEM = np.dtype([("j", np.int64), ("v", np.float64)])


def _only(allowed, raw):
    return not raw.translate(None, allowed)


def _line_count(raw):
    """Lines str.splitlines() finds in text whose only line break is LF."""
    return raw.count(b"\n") + (not raw.endswith(b"\n"))


def _loadtxt(raw, dtype):
    """Whitespace-separated records parsed by numpy, or None if it refuses."""
    try:
        return np.loadtxt(raw.decode().splitlines(), dtype=dtype, ndmin=1)
    except (ValueError, OverflowError):
        return None


def _fast_matrix_market(raw):
    """((n, p), rows, cols, vals) of a clean file, or None for the scanner."""
    pos, preamble = 0, []
    while True:  # header, comment and blank lines, then the size line
        end = raw.find(b"\n", pos)
        if end < 0:
            return None
        line = raw[pos:end]
        pos = end + 1
        preamble.append(line)
        if len(preamble) > 1 and line.strip() and not line.lstrip().startswith(b"%"):
            break
    body = raw[pos:]
    size = preamble[-1].split()
    if (
        not body.strip()
        or not _only(_PREAMBLE, raw[:pos - 1])
        or tuple(preamble[0].decode().lower().split()) != _MM_HEADER
        or len(size) != 3
        or not all(s.isdigit() for s in size)
        or not _only(_NUMERIC, body)
    ):
        return None
    n, p, nnz = (int(s) for s in size)
    if _line_count(body) != nnz:
        return None
    e = _loadtxt(body, _MM_ENTRY)
    if e is None or e.size != nnz:
        return None
    rows, cols = e["i"] - 1, e["j"] - 1
    if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= p:
        return None
    return (n, p), rows, cols, e["v"]


def _decode(path, raw):
    """The bytes of the file at path as UTF-8 text; a bad byte is named by its line."""
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        line = len((raw[:exc.start].decode() + "x").splitlines())
        raise ValueError(
            f"{path}:{line}: byte 0x{raw[exc.start]:02x} is not UTF-8 ({exc.reason})"
        ) from None


def read_text(path):
    """The file at path, read once and decoded as the readers decode their files."""
    with open(path, "rb") as fh:
        return _decode(path, fh.read())


def _scan_matrix_market(path, lines):
    """((n, p), rows, cols, vals) of the file's lines; errors name the line."""

    def fail(lineno, msg):
        raise ValueError(f"{path}:{lineno}: {msg}")

    if not lines:
        fail(1, "empty file")
    if tuple(lines[0].lower().split()) != _MM_HEADER:
        fail(1, f"expected header '%%MatrixMarket matrix coordinate real general', got {lines[0]!r}")

    body = [
        (i + 1, line)
        for i, line in enumerate(lines[1:], start=1)
        if line.strip() and not line.lstrip().startswith("%")
    ]
    if not body:
        fail(len(lines), "missing size line")

    lineno, size_line = body[0]
    parts = size_line.split()
    if len(parts) != 3:
        fail(lineno, f"size line needs 'rows cols nnz', got {size_line!r}")
    try:
        n, p, nnz = (int(s) for s in parts)
    except ValueError:
        fail(lineno, f"non-integer size entry in {size_line!r}")
    if n < 0 or p < 0 or nnz < 0:
        fail(lineno, "negative size entry")
    if len(body) - 1 != nnz:
        fail(lineno, f"declared {nnz} entries, found {len(body) - 1}")

    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz, dtype=np.float64)
    for k, (lineno, line) in enumerate(body[1:]):
        parts = line.split()
        if len(parts) != 3:
            fail(lineno, f"entry needs 'row col value', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            v = float(parts[2])
        except ValueError:
            fail(lineno, f"non-numeric entry in {line!r}")
        if not (1 <= i <= n and 1 <= j <= p):
            fail(lineno, f"index ({i}, {j}) outside 1-based bounds ({n}, {p})")
        rows[k], cols[k], vals[k] = i - 1, j - 1, v
    return (n, p), rows, cols, vals


def read_matrix_market(path):
    """Load a Matrix Market coordinate-format file as a sparse matrix.

    Only the real general coordinate flavor is accepted.  Duplicate
    entries are summed, per the format's convention.  Malformed content
    raises a ValueError naming the offending line.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    shape, rows, cols, vals = _fast_matrix_market(raw) or _scan_matrix_market(
        path, _decode(path, raw).splitlines())
    return as_sparse((vals, (rows, cols)), shape=shape, name=str(path))


def write_matrix_market(path, a):
    """Write a sparse matrix in Matrix Market coordinate format.

    The file holds the real general header, one '%' comment line, the
    size line and a 'row col value' line per nonzero, each value in its
    shortest round-trip form (-6.232744625373522E23), so
    read_matrix_market reads back the very same float64 values.  The
    writing runs on scipy's own thread pool, one thread per CPU, which
    ITERCCA_THREADS does not size; the bytes do not depend on it.
    scipy.io is imported here, not with the module, because it adds
    about 16 ms to a cold `import itercca`.
    """
    import scipy.io

    a = as_sparse(a)
    # an open file, as mmwrite appends .mtx to a path without it; "general",
    # as it would head a symmetric matrix "symmetric", which the reader refuses
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, a, symmetry="general")


def _fast_libsvm(raw, n_cols):
    """((n, p), rows, cols, vals) of a clean file, or None for the scanner.

    Each line's first field, the label, is turned into a comment and
    every idx:val item moved onto a line of its own as "idx val", so one
    numpy parse reads all items; the row of an item is its line number.
    """
    u = np.frombuffer(raw, dtype=np.uint8)
    if not u.size or not _only(_LIBSVM, raw):
        return None
    sep = (u == ord(" ")) | (u == ord("\n"))
    starts = np.flatnonzero(~sep & np.concatenate(([True], sep[:-1])))
    line = np.searchsorted(np.flatnonzero(u == ord("\n")), starts)
    label = np.diff(line, prepend=-1) != 0  # first field of its line
    items = starts[~label]
    if not items.size:
        return None
    text = u.copy()
    text[u == ord(":")] = ord(" ")
    text[starts[label]] = ord("#")
    text[items - 1] = ord("\n")
    e = _loadtxt(text.tobytes(), _LIBSVM_ITEM)
    if e is None or e.size != items.size:
        return None
    cols = e["j"] - 1
    if n_cols is None:
        n_cols = int(cols.max()) + 1
    if cols.min() < 0 or cols.max() >= n_cols:
        return None
    return (_line_count(raw), n_cols), line[~label], cols, e["v"]


def _scan_libsvm_width(path, lines):
    """The largest integer index in any item, as the scanner's width."""
    top = 0
    for line in lines:
        for item in line.split()[1:]:
            try:
                top = max(top, int(item.partition(":")[0]))
            except ValueError:
                continue  # the scanner reports malformed fields properly
    if top == 0:
        raise ValueError(f"{path}: no feature indices found to infer the column count")
    return top


def _scan_libsvm(path, lines, n_cols):
    """((n, p), rows, cols, vals) of the file's lines; errors name the line."""
    n_cols = n_cols or _scan_libsvm_width(path, lines)
    rows, cols, vals = [], [], []
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        # first field is the label, possibly the line's only field
        for item in parts[1:]:
            idx_s, sep, val_s = item.partition(":")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'idx:val', got {item!r}")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric field {item!r}") from None
            if not 1 <= idx <= n_cols:
                raise ValueError(
                    f"{path}:{lineno}: index {idx} outside 1-based bound {n_cols}"
                )
            rows.append(lineno - 1)
            cols.append(idx - 1)
            vals.append(val)
    return (
        (len(lines), n_cols),
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        np.array(vals),
    )


def read_libsvm(path, n_cols=None):
    """Load a libsvm-format file (label idx:val ..., 1-based indices).

    Labels are discarded; each line becomes one row; an empty line is an
    all-zero row.  Indices outside [1, n_cols] and non-numeric fields
    raise a ValueError naming the line.  With n_cols None the width is
    the largest index in the file, and a file without one is an error.
    """
    if n_cols is not None:
        check_count("n_cols", n_cols, 1)
    with open(path, "rb") as fh:
        raw = fh.read()
    shape, rows, cols, vals = _fast_libsvm(raw, n_cols) or _scan_libsvm(
        path, _decode(path, raw).splitlines(), n_cols)
    return as_sparse((vals, (rows, cols)), shape=shape, name=str(path))


@dataclass(frozen=True)
class TokenDatasetSpec:
    """Recipe for paired indicator matrices from a token stream.

    Per side, tokens are ranked by how often they occur in that side's
    role (x: current position, y: next position), ties broken by first
    appearance; the top drop_top are removed and the remainder truncated
    to vocab_limit (0 = unlimited).  Bigrams never span an occurrence of
    boundary_token.
    """

    tokens: Sequence[str]
    x_vocab_limit: int = 0
    y_vocab_limit: int = 0
    x_drop_top: int = 0
    y_drop_top: int = 0
    boundary_token: Optional[str] = None

    def __post_init__(self):
        for name in ("x_vocab_limit", "y_vocab_limit", "x_drop_top", "y_drop_top"):
            check_count(name, getattr(self, name), 0)
        # tokens_to_indicators reads the stream twice, so a one-shot iterator is held as a tuple
        object.__setattr__(self, "tokens", tuple(self.tokens))


def _role_columns(role, n_codes, skip, drop_top, limit):
    """Column of each token code on one side (-1 when trimmed) and the width.

    Codes number tokens by first appearance, so a stable sort on the
    role count ranks by frequency with the first-appearance tie-break;
    code `skip` (the boundary token) is never a column.
    """
    ranked = np.argsort(-np.bincount(role, minlength=n_codes), kind="stable")
    kept = ranked[ranked != skip][drop_top:]
    if limit:
        kept = kept[:limit]
    col = np.full(n_codes, -1, dtype=np.int64)
    col[kept] = np.arange(kept.size)
    return col, kept.size


def tokens_to_indicators(spec):
    """Paired one-hot matrices over a token stream's bigrams.

    Row i of x marks the current token of the i-th retained bigram, row i
    of y the token after it.  A bigram is retained only when both tokens
    survive their side's vocabulary trimming.
    """
    index = {t: i for i, t in enumerate(dict.fromkeys(spec.tokens))}
    codes = np.fromiter(map(index.__getitem__, spec.tokens), dtype=np.int64,
                        count=len(spec.tokens))
    if not codes.size:
        raise ValueError("token stream is empty")
    a, b = codes[:-1], codes[1:]
    skip = -1
    if spec.boundary_token is not None:
        skip = index.get(spec.boundary_token, -1)
        if skip >= 0 and len(index) == 1:
            raise ValueError("token stream is empty after boundary removal")
        clear = (a != skip) & (b != skip)  # bigrams not touching the boundary
        a, b = a[clear], b[clear]
    if not a.size:
        raise ValueError("token stream has no bigrams")

    x_col, p1 = _role_columns(a, len(index), skip, spec.x_drop_top, spec.x_vocab_limit)
    y_col, p2 = _role_columns(b, len(index), skip, spec.y_drop_top, spec.y_vocab_limit)
    if not p1 or not p2:
        raise ValueError("empty vocabulary after drops and limits")
    xa, yb = x_col[a], y_col[b]
    kept = (xa >= 0) & (yb >= 0)
    n = int(np.count_nonzero(kept))
    if not n:
        raise ValueError("no bigrams survive the vocabulary trimming")
    rows = np.arange(n, dtype=np.int64)
    ones = np.ones(n)
    x = as_sparse((ones, (rows, xa[kept])), shape=(n, p1))
    y = as_sparse((ones, (rows, yb[kept])), shape=(n, p2))
    return x, y


def _is_number(value):
    """True for a real number that is not a bool (numpy scalars included)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a paired synthetic instance with known correlations.

    k_shared latent factors are copied into both sides with per-factor
    correlation planted_corrs[i]; every other column is independent
    noise.  Column j of each side is scaled by (j+1)**(-spectrum_decay),
    so placement decides whether the correlated directions sit at the
    top, the bottom, both edges, or spread across the singular spectrum.  density < 1
    masks entries Bernoulli-style (shared pairs share their mask, which
    preserves the planted correlation); rotate mixes each side's columns
    by a random orthogonal matrix, which leaves canonical correlations
    unchanged but requires density = 1.
    """

    n: int
    p1: int
    p2: int
    k_shared: int
    planted_corrs: tuple = ()
    spectrum_decay: float = 0.0
    density: float = 1.0
    seed: int = 0
    placement: str = "top"
    rotate: bool = False

    def __post_init__(self):
        for name, low in (("n", 1), ("p1", 1), ("p2", 1), ("k_shared", 0), ("seed", 0)):
            check_count(name, getattr(self, name), low)
        if self.k_shared > min(self.p1, self.p2):
            raise ValueError(f"k_shared={self.k_shared} outside [0, {min(self.p1, self.p2)}]")
        corrs = self.planted_corrs
        if not isinstance(corrs, (list, tuple)) or not all(map(_is_number, corrs)):
            raise ValueError(f"planted_corrs must be a list or tuple of numbers, got {corrs!r}")
        corrs = tuple(float(c) for c in corrs)
        object.__setattr__(self, "planted_corrs", corrs)
        if len(corrs) != self.k_shared:
            raise ValueError("planted_corrs length must equal k_shared")
        if any(not 0.0 < c < 1.0 for c in corrs):
            raise ValueError("planted correlations must lie in (0, 1)")
        if any(a < b for a, b in zip(corrs, corrs[1:])):
            raise ValueError("planted_corrs must be sorted non-increasing")
        if not _is_number(self.spectrum_decay) or not 0 <= self.spectrum_decay < np.inf:
            raise ValueError("spectrum_decay must be a finite number >= 0")
        if not _is_number(self.density) or not 0.0 < self.density <= 1.0:
            raise ValueError(f"density must be a number in (0, 1], got {self.density!r}")
        if not isinstance(self.rotate, bool):
            raise ValueError(f"rotate must be a bool, got {self.rotate!r}")
        if self.placement not in ("top", "bottom", "spread", "edges"):
            raise ValueError(f"unknown placement {self.placement!r}")
        if self.rotate and self.density < 1.0:
            raise ValueError("rotate requires density = 1 (rotation destroys sparsity)")


def _shared_positions(p, k, placement):
    if placement == "top":
        return np.arange(k)
    if placement == "bottom":
        return np.arange(p - k, p)
    if placement == "edges":
        # half at the strongest columns, the rest at the weakest
        head = k // 2
        return np.concatenate([np.arange(head), np.arange(p - (k - head), p)])
    return np.unique(np.linspace(0, p - 1, num=k, dtype=np.int64)) if k else np.arange(0)


def synth_correlated(spec):
    """Generate (x, y, planted_corrs) for a SynthSpec.

    The population canonical correlations of the model equal
    planted_corrs exactly; the sample correlations recovered from the
    generated matrices approach them as n grows past p1 + p2.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n, p1, p2, k = spec.n, spec.p1, spec.p2, spec.k_shared

    z = rng.standard_normal((n, k))
    ex = rng.standard_normal((n, k))
    ey = rng.standard_normal((n, k))
    gx = rng.standard_normal((n, p1 - k))
    gy = rng.standard_normal((n, p2 - k))

    corrs = np.array(spec.planted_corrs)
    shared_x = z * np.sqrt(corrs) + ex * np.sqrt(1.0 - corrs)
    shared_y = z * np.sqrt(corrs) + ey * np.sqrt(1.0 - corrs)

    pos_x = _shared_positions(p1, k, spec.placement)
    pos_y = _shared_positions(p2, k, spec.placement)
    x = np.empty((n, p1))
    y = np.empty((n, p2))
    x[:, pos_x] = shared_x
    x[:, np.setdiff1d(np.arange(p1), pos_x)] = gx
    y[:, pos_y] = shared_y
    y[:, np.setdiff1d(np.arange(p2), pos_y)] = gy

    if spec.density < 1.0:
        # one mask per shared pair, applied to both sides, so masking
        # does not dilute the planted correlation
        mask_shared = rng.random((n, k)) < spec.density
        mask_x = rng.random((n, p1)) < spec.density
        mask_y = rng.random((n, p2)) < spec.density
        mask_x[:, pos_x] = mask_shared
        mask_y[:, pos_y] = mask_shared
        x = x * mask_x
        y = y * mask_y

    scale_x = np.power(np.arange(1, p1 + 1, dtype=np.float64), -spec.spectrum_decay)
    scale_y = np.power(np.arange(1, p2 + 1, dtype=np.float64), -spec.spectrum_decay)
    x = x * scale_x
    y = y * scale_y

    if spec.rotate:
        x = x @ thin_qr(rng.standard_normal((p1, p1))).q
        y = y @ thin_qr(rng.standard_normal((p2, p2))).q

    return as_sparse(x), as_sparse(y), corrs
