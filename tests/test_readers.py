"""The readers' vectorized fast paths against the retained line scanners.

Each reader parses a clean file in one numpy pass and hands anything
else to the line-by-line scanner.  The differential tests generate
Matrix Market and libsvm text, clean and malformed, and require the
public reader (fast path first) and the scanner alone to agree bit for
bit, or to raise the same exception with the same message.  The guard
tests make the scanner unusable, so a reader that always falls back
fails them.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import itercca as ic
from itercca import datasets

HEADER = "%%MatrixMarket matrix coordinate real general"

# Values a clean file may hold, exponent forms and overflow included.
PLAIN_VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-9, 9).map(str),
    st.sampled_from(["1e5", "1E+05", ".5", "5.", "+.5e-3", "-0.0", "5e-324", "1e999"]),
)
# Single faults the fast path must hand to the scanner: odd indices
# (signs, floats, underscores, non-ASCII digits, zero, out of range),
# odd values (non-finite, unparseable), odd fields and lines.
ODD_INDEX = ["0", "-1", "7", "+3", "1.0", "1e0", "01", "1_0", "٣", "", "x",
             "99999999999999999999"]
ODD_VALUE = ["nan", "-inf", "inf", "1_0.5", "1e", "-", "x", "0x1p3", "٣", "1.5%"]
LINE_FAULTS = ["blank", "comment", "indent", "tab", "crlf", "cr", "tail"]
MM_FAULTS = LINE_FAULTS + ["index", "value", "drop", "extra", "percent", "count", "header",
                           "size"]
LIBSVM_FAULTS = LINE_FAULTS + ["index", "value", "colon", "label", "empty"]


@st.composite
def faulty_lines(draw, lines, faults, comment):
    """Join rendered lines with LF, after applying the line-level faults."""
    end, tail = "\n", draw(st.sampled_from(["\n", ""]))
    for fault in faults:
        k = draw(st.integers(0, len(lines)))
        if fault in ("blank", "comment"):
            lines.insert(k, comment if fault == "comment" else draw(st.sampled_from(["", "  "])))
        elif fault == "indent" and lines:
            lines[k % len(lines)] = draw(st.sampled_from(["  ", "\t"])) + lines[k % len(lines)]
        elif fault == "tab" and lines:
            lines[k % len(lines)] = lines[k % len(lines)].replace(" ", "\t", 1)
        elif fault in ("crlf", "cr"):
            end = "\r\n" if fault == "crlf" else "\r"
        elif fault == "tail":
            tail = draw(st.sampled_from(["\n\n", "\n  ", " "]))
    return end.join(lines) + tail.replace("\n", end)


@st.composite
def matrix_market_text(draw):
    n, p = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = draw(st.lists(
        st.tuples(st.integers(1, n).map(str), st.integers(1, p).map(str), PLAIN_VALUE).map(list),
        min_size=1, max_size=12,
    ))
    faults = draw(st.lists(st.sampled_from(MM_FAULTS), max_size=3))
    nnz, header, size = len(entries), HEADER, None
    for fault in faults:
        e = entries[draw(st.integers(0, len(entries) - 1))]
        if fault == "index":
            e[draw(st.integers(0, 1)) % len(e)] = draw(st.sampled_from(ODD_INDEX))
        elif fault == "value":
            e[-1] = draw(st.sampled_from(ODD_VALUE))
        elif fault == "drop":
            e.pop()
        elif fault == "extra":
            e.append("1")
        elif fault == "percent":
            e.append("% note")
        elif fault == "count":
            nnz += draw(st.sampled_from([1, -1]))
        elif fault == "header":
            header = draw(st.sampled_from([HEADER.upper(), HEADER.replace("coordinate", "array")]))
        elif fault == "size":
            size = draw(st.sampled_from([f"+{n} {p} {nnz}", f"{n} {p}", f"{n} {p} {nnz} 1"]))
    preamble = [header] + draw(st.lists(st.sampled_from(["% comment", "%", ""]), max_size=2))
    preamble.append(size or f"{n} {p} {nnz}")
    body = draw(faulty_lines([" ".join(e) for e in entries], faults, "% comment"))
    return "\n".join(preamble) + "\n" + body


@st.composite
def libsvm_text(draw):
    """(text, n_cols) for read_libsvm; n_cols None asks it to infer the width."""
    n_cols = draw(st.sampled_from([None, None, 3, 6]))
    item = st.tuples(st.integers(1, n_cols or 6).map(str), PLAIN_VALUE).map(list)
    label = st.sampled_from(["0", "1", "+1", "-1", "2.5", "3:1"])
    lines = draw(st.lists(
        st.one_of(st.tuples(label, st.lists(item, max_size=4)), st.just(None)),
        min_size=1, max_size=12,
    ))
    faults = draw(st.lists(st.sampled_from(LIBSVM_FAULTS), max_size=3))
    items = [i for line in lines if line for i in line[1]]
    for fault in faults:
        if fault == "empty":
            lines = []
        elif fault == "label" and lines and lines[0]:
            lines[0] = (draw(st.sampled_from(["a", "#", "%"])), lines[0][1])
        elif fault in ("index", "value", "colon") and items:
            i = items[draw(st.integers(0, len(items) - 1))]
            if fault == "index":
                i[0] = draw(st.sampled_from(ODD_INDEX))
            elif fault == "value":
                i[-1] = draw(st.sampled_from(ODD_VALUE))
            else:
                i[:] = [draw(st.sampled_from(["3", ":1", "2:", "1:2:3"]))]
    rendered = [" ".join([line[0], *(":".join(i) for i in line[1])]) if line else ""
                for line in lines]
    return draw(faulty_lines(rendered, faults, "# comment")), n_cols


def csr_bits(m):
    return (m.shape, str(m.indices.dtype), m.data.tobytes(), m.indices.tobytes(),
            m.indptr.tobytes())


def outcome(read):
    """The canonical CSR (or pair of them) a read gives, or what it raises."""
    try:
        got = read()
    except Exception as exc:  # noqa: BLE001  (both sides must raise alike)
        return type(exc), str(exc)
    return [csr_bits(m) for m in got] if isinstance(got, tuple) else csr_bits(got)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


# Derandomized, so every run of the suite checks the same examples.
FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(text=matrix_market_text())
def test_matrix_market_fast_path_matches_scanner(workdir, text):
    path = workdir / "fuzz.mtx"
    path.write_bytes(text.encode())
    event("fast path" if datasets._fast_matrix_market(path.read_bytes()) else "scanner")
    fast_first = outcome(lambda: ic.read_matrix_market(path))
    with mock.patch.object(datasets, "_fast_matrix_market", return_value=None):
        scanner = outcome(lambda: ic.read_matrix_market(path))
    assert fast_first == scanner


@FUZZ
@given(case=libsvm_text())
def test_libsvm_fast_path_matches_scanner(workdir, case):
    text, n_cols = case
    path = workdir / "fuzz.svm"
    path.write_bytes(text.encode())
    event("fast path" if datasets._fast_libsvm(path.read_bytes(), n_cols) else "scanner")
    fast_first = outcome(lambda: ic.read_libsvm(path, n_cols))
    with mock.patch.object(datasets, "_fast_libsvm", return_value=None):
        scanner = outcome(lambda: ic.read_libsvm(path, n_cols))
    assert fast_first == scanner


# The clean-byte classes as datasets' comment documents them, written
# here without the module's constants.
def is_numeric(b):
    return chr(b) in "0123456789+-.eE \n"


BYTE_CLASSES = [
    ("_NUMERIC", is_numeric),
    ("_LIBSVM", lambda b: is_numeric(b) or b == ord(":")),
    ("_PREAMBLE", lambda b: 0x20 <= b < 0x7F or b in (ord("\t"), ord("\n"))),
]


@pytest.mark.parametrize("name, member", BYTE_CLASSES)
def test_every_byte_is_clean_exactly_when_its_class_documents_it(name, member):
    allowed = getattr(datasets, name)
    assert datasets._only(allowed, b"") is True
    for b in range(256):
        assert datasets._only(allowed, bytes([b])) is member(b), f"byte 0x{b:02x}"


def refuse_scanners(monkeypatch):
    def refuse(*args):
        raise AssertionError("a clean file reached the line scanner")

    for name in ("_scan_matrix_market", "_scan_libsvm", "_scan_libsvm_width"):
        monkeypatch.setattr(datasets, name, refuse)


def count_opens(monkeypatch):
    """The paths itercca.datasets opens, by shadowing the builtin open there."""
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(datasets, "open", counting_open, raising=False)
    return opened


@pytest.mark.parametrize("read, text, nnz", [
    (ic.read_matrix_market, HEADER + "\n% note\n2 2 1\n  1 2 0.5\r\n", 1),
    (ic.read_libsvm, "1 1:1\r\n\n0 2:1_0\n", 2),
])
def test_a_read_that_reaches_the_scanner_opens_its_file_once(tmp_path, monkeypatch, read, text,
                                                             nnz):
    path = tmp_path / "odd.txt"
    path.write_bytes(text.encode())
    opened = count_opens(monkeypatch)
    assert read(path).nnz == nnz
    assert opened == [path]


@pytest.mark.parametrize("sep", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                 "\u2029"])
def test_libsvm_width_and_rows_come_from_the_same_lines(tmp_path, sep):
    # str.splitlines() ends a line at sep, so "4:5" is the label of row 2
    path = tmp_path / "sep.svm"
    path.write_bytes(f"1 2:3{sep}4:5\n".encode())
    m = ic.read_libsvm(path)
    assert m.shape == (2, 2)
    assert csr_bits(m) == csr_bits(ic.read_libsvm(path, 2))


@pytest.mark.parametrize("read, raw, message", [
    (ic.read_libsvm, b"1 1:1\n0 2:1\n1 \xff:1\n",
     "{f}:3: byte 0xff is not UTF-8 (invalid start byte)"),
    (ic.read_libsvm, b"1 1:1\r\n\r\xff\n",
     "{f}:3: byte 0xff is not UTF-8 (invalid start byte)"),
    (ic.read_libsvm, b"1 1:1 \xe2\x82",
     "{f}:1: byte 0xe2 is not UTF-8 (unexpected end of data)"),
    (ic.read_matrix_market, (HEADER + "\n% caf").encode() + b"\xe9\n1 1 1\n1 1 2\n",
     "{f}:2: byte 0xe9 is not UTF-8 (invalid continuation byte)"),
    (ic.read_matrix_market, (HEADER + "\n1 1 1\n1 1 ").encode() + b"\xff\n",
     "{f}:3: byte 0xff is not UTF-8 (invalid start byte)"),
])
def test_bytes_that_are_not_utf8_name_the_file_and_line(tmp_path, read, raw, message):
    path = tmp_path / "bad.txt"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as exc:
        read(path)
    assert str(exc.value) == message.format(f=path)


def random_entries(n_entries, n, p, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = rng.integers(0, n, size=n_entries)
    cols = rng.integers(0, p, size=n_entries)
    vals = rng.standard_normal(n_entries) * 10.0 ** rng.integers(-5, 6, size=n_entries)
    return rows, cols, vals


def test_clean_matrix_market_file_reads_without_the_scanner(tmp_path, monkeypatch):
    n, p, nnz = 3000, 400, 10_000
    rows, cols, vals = random_entries(nnz, n, p, seed=1)
    lines = [HEADER, "% written by the test", f"{n} {p} {nnz}"]
    lines += [f"{i + 1} {j + 1} {float(v)!r}" for i, j, v in zip(rows, cols, vals)]
    path = tmp_path / "clean.mtx"
    path.write_text("\n".join(lines) + "\n")
    refuse_scanners(monkeypatch)
    m = ic.read_matrix_market(path)
    expected = np.zeros((n, p))
    np.add.at(expected, (rows, cols), vals)
    assert m.shape == (n, p)
    np.testing.assert_array_equal(m.toarray(), expected)


@pytest.mark.parametrize("n_cols", [None, 500])
def test_clean_libsvm_file_reads_without_the_scanner(tmp_path, monkeypatch, n_cols):
    n, p, nnz = 2500, 450, 10_000
    rng = np.random.Generator(np.random.PCG64(2))
    _, _, vals = random_entries(nnz, n, p, seed=2)
    rows = np.repeat(np.arange(n), 4)
    cols = np.concatenate([np.sort(rng.choice(p, 4, replace=False)) for _ in range(n)])
    cols[-1] = p - 1  # the widest index sits on the last line
    lines = [[rng.choice(["+1", "-1", "0"])] for _ in range(n)]
    for i, j, v in zip(rows, cols, vals):
        lines[i].append(f"{j + 1}:{float(v)!r}")
    path = tmp_path / "clean.svm"
    path.write_text("\n".join(" ".join(line) for line in lines) + "\n")
    refuse_scanners(monkeypatch)
    m = ic.read_libsvm(path, n_cols)
    expected = np.zeros((n, n_cols or p))
    expected[rows, cols] = vals
    assert m.shape == expected.shape
    np.testing.assert_array_equal(m.toarray(), expected)


def test_malformed_matrix_market_line_5001_is_named(tmp_path):
    lines = [HEADER, "10000 10 9998"] + [f"{k + 1} {k % 10 + 1} 0.5" for k in range(9998)]
    lines[5000] = "4999 3 zz"
    path = tmp_path / "late.mtx"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        ic.read_matrix_market(path)
    assert str(exc.value) == f"{path}:5001: non-numeric entry in '4999 3 zz'"


def test_malformed_libsvm_line_5001_is_named(tmp_path):
    lines = [f"1 {k % 10 + 1}:0.5 11:1" for k in range(10_000)]
    lines[5000] = "0 3:zz"
    path = tmp_path / "late.svm"
    path.write_text("\n".join(lines) + "\n")
    for n_cols in (None, 11):
        with pytest.raises(ValueError) as exc:
            ic.read_libsvm(path, n_cols)
        assert str(exc.value) == f"{path}:5001: non-numeric field '3:zz'"


def test_matrix_market_round_trip_is_bit_exact(tmp_path):
    rng = np.random.Generator(np.random.PCG64(4))
    # random bit patterns cover subnormals up to the largest finite doubles
    bits = rng.integers(0, 2 ** 63, size=4000, dtype=np.uint64) | (
        rng.integers(0, 2, size=4000, dtype=np.uint64) << np.uint64(63))
    vals = bits.view(np.float64)
    vals = vals[np.isfinite(vals) & (vals != 0)][:3000]
    edges = [5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308, 1e-308,
             0.1, 1 / 3, 1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]
    vals = np.concatenate([edges, vals])
    n, p = 200, 40
    flat = p + rng.choice((n - 1) * p, size=vals.size, replace=False)  # row 0 stays empty
    cases = {
        "mixed": ic.as_sparse((vals, (flat // p, flat % p)), shape=(n, p)),
        # a symmetric matrix still gets the general header, the only one the reader takes
        "symmetric": ic.as_sparse(np.array([[2.0, 1.0], [1.0, 0.0]])),
        "zeros": ic.as_sparse(np.zeros((4, 3))),
        "no-rows": ic.as_sparse(np.zeros((0, 3))),
    }
    for name, original in cases.items():
        path = tmp_path / f"{name}.mtx"
        ic.write_matrix_market(path, original)
        raw = path.read_bytes()
        fast = datasets._fast_matrix_market(raw)
        assert (fast is None) == (original.nnz == 0)  # an empty body is the scanner's alone
        scanned = datasets._scan_matrix_market(path, raw.decode().splitlines())
        for shape, rows, cols, got in filter(None, (fast, scanned)):
            back = ic.as_sparse((got, (rows, cols)), shape=shape)
            assert back.shape == original.shape
            assert back.data.tobytes() == original.data.tobytes()
            assert np.array_equal(back.indices, original.indices)
            assert np.array_equal(back.indptr, original.indptr)


def reference_indicators(spec):
    """The dict-and-sort construction of tokens_to_indicators, kept as the oracle."""
    tokens = list(spec.tokens)
    if not tokens:
        raise ValueError("token stream is empty")
    pairs = list(zip(tokens, tokens[1:]))
    if spec.boundary_token is not None:
        pairs = [(a, b) for a, b in pairs if spec.boundary_token not in (a, b)]
        tokens = [t for t in tokens if t != spec.boundary_token]
        if not tokens:
            raise ValueError("token stream is empty after boundary removal")
    if not pairs:
        raise ValueError("token stream has no bigrams")

    def vocab(role_tokens, drop_top, limit):
        counts, first_seen = {}, {}
        for t in role_tokens:
            counts[t] = counts.get(t, 0) + 1
        for i, t in enumerate(tokens):
            first_seen.setdefault(t, i)
        ranked = sorted(first_seen, key=lambda t: (-counts.get(t, 0), first_seen[t]))
        kept = ranked[drop_top:]
        return kept[:limit] if limit else kept

    x_vocab = vocab([a for a, _ in pairs], spec.x_drop_top, spec.x_vocab_limit)
    y_vocab = vocab([b for _, b in pairs], spec.y_drop_top, spec.y_vocab_limit)
    if not x_vocab or not y_vocab:
        raise ValueError("empty vocabulary after drops and limits")
    x_col = {t: j for j, t in enumerate(x_vocab)}
    y_col = {t: j for j, t in enumerate(y_vocab)}
    kept = [(a, b) for a, b in pairs if a in x_col and b in y_col]
    if not kept:
        raise ValueError("no bigrams survive the vocabulary trimming")
    rows = np.arange(len(kept))
    ones = np.ones(len(kept))
    x = ic.as_sparse((ones, (rows, [x_col[a] for a, _ in kept])), shape=(len(kept), len(x_vocab)))
    y = ic.as_sparse((ones, (rows, [y_col[b] for _, b in kept])), shape=(len(kept), len(y_vocab)))
    return x, y


@FUZZ
@given(
    tokens=st.lists(st.sampled_from(["a", "b", "c", "d", "e", "."]), max_size=25),
    boundary=st.sampled_from([None, None, ".", "a", "z"]),
    limits=st.tuples(*[st.integers(0, 4)] * 4),
)
def test_tokens_to_indicators_matches_dict_reference(tokens, boundary, limits):
    spec = ic.TokenDatasetSpec(
        tokens=tuple(tokens), boundary_token=boundary,
        x_drop_top=limits[0], y_drop_top=limits[1],
        x_vocab_limit=limits[2], y_vocab_limit=limits[3],
    )

    got = outcome(lambda: ic.tokens_to_indicators(spec))
    assert got == outcome(lambda: reference_indicators(spec))


def test_tokens_ties_break_by_first_appearance():
    # b and c both start two bigrams; c appears first, so it takes column 0
    spec = ic.TokenDatasetSpec(tokens=("c", "b", "c", "b", "a"))
    assert outcome(lambda: ic.tokens_to_indicators(spec)) == outcome(
        lambda: reference_indicators(spec))
    x, _ = ic.tokens_to_indicators(spec)
    np.testing.assert_array_equal(x.toarray()[:, 0], [1, 0, 1, 0])
