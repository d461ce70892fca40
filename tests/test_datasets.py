"""Reader, token-indicator, and synthetic-generator tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import itercca as ic
from itercca.linalg import gram_diagonal


MM_IDENTITY = """%%MatrixMarket matrix coordinate real general
% hand-written identity
3 3 3
1 1 1.0
2 2 1.0
3 3 1.0
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_matrix_market_reads_identity(tmp_path):
    path = write(tmp_path, "eye.mtx", MM_IDENTITY)
    m = ic.read_matrix_market(path)
    np.testing.assert_allclose(m.toarray(), np.eye(3), atol=0.0)


def test_matrix_market_sums_duplicate_entries(tmp_path):
    text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 2.0\n1 2 3.0\n"
    m = ic.read_matrix_market(write(tmp_path, "dup.mtx", text))
    assert m[0, 1] == 5.0
    assert m.nnz == 1


def test_matrix_market_round_trip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(0))
    dense = rng.standard_normal((7, 5)) * (rng.random((7, 5)) < 0.4)
    original = ic.as_sparse(dense)
    path = tmp_path / "rt.mtx"
    ic.write_matrix_market(path, original)
    back = ic.read_matrix_market(path)
    assert back.shape == original.shape
    np.testing.assert_allclose(back.toarray(), original.toarray(), atol=0.0)


def test_matrix_market_writer_keeps_a_path_without_the_mtx_suffix(tmp_path):
    path = tmp_path / "x.txt"
    ic.write_matrix_market(path, np.eye(3))
    assert sorted(tmp_path.iterdir()) == [path]
    assert ic.read_matrix_market(path).toarray().tolist() == np.eye(3).tolist()


def test_import_leaves_scipy_io_unloaded():
    # the writer imports scipy.io when called, so loading the package skips its cost
    src = str(Path(ic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, itercca, itercca.cli; print('scipy.io' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.split() == ["False"]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("%%MatrixMarket matrix array real general\n2 2 1\n1 1 1.0\n", "header"),
        ("not a header\n2 2 1\n1 1 1.0\n", "header"),
        ("%%MatrixMarket matrix coordinate real general\n2 2\n", "size"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n", "entries"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", "outside"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n", ":3:"),
    ],
)
def test_matrix_market_rejects_malformed_input(tmp_path, text, fragment):
    path = write(tmp_path, "bad.mtx", text)
    with pytest.raises(ValueError) as exc:
        ic.read_matrix_market(path)
    message = str(exc.value)
    assert str(path) in message
    assert fragment in message


HEAD = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize("text, message", [
    ("", "{f}:1: empty file"),
    (HEAD + "% a comment\n\n", "{f}:3: missing size line"),
    (HEAD + "% a comment\n2 2 x\n", "{f}:3: non-integer size entry in '2 2 x'"),
    (HEAD + "2 -2 0\n", "{f}:2: negative size entry"),
])
def test_matrix_market_scanner_names_the_line_of_a_bad_preamble(tmp_path, text, message):
    path = write(tmp_path, "bad.mtx", text)
    with pytest.raises(ValueError) as exc:
        ic.read_matrix_market(path)
    assert str(exc.value) == message.format(f=path)


def test_libsvm_basic_line_and_empty_rows(tmp_path):
    path = write(tmp_path, "a.svm", "1 3:1\n\n0 1:2.5 5:-1\n")
    m = ic.read_libsvm(path, n_cols=5)
    expected = np.zeros((3, 5))
    expected[0, 2] = 1.0
    expected[2, 0] = 2.5
    expected[2, 4] = -1.0
    np.testing.assert_allclose(m.toarray(), expected, atol=0.0)


def test_libsvm_hand_file_matches_enumeration(tmp_path):
    lines = []
    expected = np.zeros((10, 6))
    for i in range(10):
        cols = [(i % 6) + 1, ((i * 3 + 1) % 6) + 1]
        cols = sorted(set(cols))
        vals = [float(i + 1), -0.5 * (i + 1)][: len(cols)]
        for c, v in zip(cols, vals):
            expected[i, c - 1] = v
        lines.append("1 " + " ".join(f"{c}:{v}" for c, v in zip(cols, vals)))
    path = write(tmp_path, "hand.svm", "\n".join(lines) + "\n")
    m = ic.read_libsvm(path, n_cols=6)
    np.testing.assert_allclose(m.toarray(), expected, atol=0.0)


@pytest.mark.parametrize(
    "text",
    ["1 9:1.0\n", "1 0:1.0\n", "1 a:1.0\n", "1 2:zz\n", "1 2\n"],
)
def test_libsvm_rejects_malformed_input(tmp_path, text):
    path = write(tmp_path, "bad.svm", text)
    with pytest.raises(ValueError) as exc:
        ic.read_libsvm(path, n_cols=5)
    assert str(path) in str(exc.value)
    for n_cols in (0, True, 2.5):
        with pytest.raises(ValueError, match="n_cols must be an integer >= 1"):
            ic.read_libsvm(path, n_cols=n_cols)


def test_tokens_to_indicators_bigram_counts():
    x, y = ic.tokens_to_indicators(ic.TokenDatasetSpec(tokens=("a", "b", "a", "c")))
    assert x.shape == (3, 3)
    assert y.shape == (3, 3)
    # first-position counts over the three bigrams: a twice, b once, c never
    np.testing.assert_allclose(gram_diagonal(x), [2.0, 1.0, 0.0], atol=0.0)
    # each row is a single indicator
    np.testing.assert_allclose(x.sum(axis=1), np.ones(3), atol=0.0)
    np.testing.assert_allclose(y.sum(axis=1), np.ones(3), atol=0.0)


def test_tokens_from_a_list_or_a_one_shot_iterator_read_as_their_tuple():
    tokens = ("a", "b", "a", "c", "b")
    want = ic.tokens_to_indicators(ic.TokenDatasetSpec(tokens=tokens))
    for given in (list(tokens), iter(tokens)):
        got = ic.tokens_to_indicators(ic.TokenDatasetSpec(tokens=given))
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.toarray(), w.toarray())


def test_tokens_vocab_limit_keeps_most_frequent_successor():
    spec = ic.TokenDatasetSpec(tokens=("a", "b", "a", "b", "c"), y_vocab_limit=1)
    x, y = ic.tokens_to_indicators(spec)
    # only bigrams whose successor is b survive
    assert y.shape[1] == 1
    assert x.shape[0] == y.shape[0] == 2
    np.testing.assert_allclose(y.toarray(), np.ones((2, 1)), atol=0.0)


def test_tokens_repeated_token_gives_perfect_correlation():
    x, y = ic.tokens_to_indicators(ic.TokenDatasetSpec(tokens=("a", "a", "a")))
    d = ic.exact_cca(x, y, 1).d
    np.testing.assert_allclose(d, [1.0], atol=1e-12)


def test_tokens_boundary_pairs_dropped():
    spec = ic.TokenDatasetSpec(
        tokens=("a", "b", ".", "a", "c"), boundary_token="."
    )
    x, y = ic.tokens_to_indicators(spec)
    # bigrams crossing the boundary vanish: (a,b) and (a,c) remain
    assert x.shape[0] == 2
    assert gram_diagonal(x)[0] == 2.0


def test_tokens_drop_top_removes_most_frequent():
    spec = ic.TokenDatasetSpec(tokens=("a", "b", "a", "c", "a", "b"), x_drop_top=1)
    x, y = ic.tokens_to_indicators(spec)
    # a dominates first positions and is dropped from the x vocabulary
    assert all(gram_diagonal(x) <= 2.0)


def test_tokens_reject_degenerate_streams():
    with pytest.raises(ValueError):
        ic.tokens_to_indicators(ic.TokenDatasetSpec(tokens=()))
    with pytest.raises(ValueError):
        ic.tokens_to_indicators(ic.TokenDatasetSpec(tokens=("a",)))
    with pytest.raises(ValueError):
        ic.tokens_to_indicators(
            ic.TokenDatasetSpec(tokens=("a", "b", "a"), boundary_token="a")
        )
    for field, value in (("x_vocab_limit", -1), ("y_vocab_limit", 2.5), ("x_drop_top", 1.5),
                         ("y_drop_top", True)):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 0"):
            ic.TokenDatasetSpec(tokens=("a", "b"), **{field: value})


def test_synth_recovers_strong_planted_correlation():
    spec = ic.SynthSpec(
        n=2000, p1=20, p2=20, k_shared=1, planted_corrs=(0.999,),
        spectrum_decay=0.0, density=1.0, seed=5,
    )
    x, y, corrs = ic.synth_correlated(spec)
    assert corrs == (0.999,)
    assert ic.exact_cca(x, y, 1).d[0] >= 0.99


def test_synth_null_instance_stays_at_sampling_noise_level():
    # independent sides: the leading sample correlation sits at the
    # random-matrix level (sqrt(p1) + sqrt(p2)) / sqrt(n)
    spec = ic.SynthSpec(
        n=5000, p1=20, p2=30, k_shared=0, spectrum_decay=0.0, density=1.0, seed=0
    )
    x, y, _ = ic.synth_correlated(spec)
    envelope = 3.0 * (np.sqrt(20) + np.sqrt(30)) / np.sqrt(5000)
    assert ic.exact_cca(x, y, 1).d[0] <= envelope


def test_synth_flat_decay_gives_near_flat_spectrum():
    spec = ic.SynthSpec(
        n=2000, p1=20, p2=20, k_shared=0, spectrum_decay=0.0, density=1.0, seed=6
    )
    x, _, _ = ic.synth_correlated(spec)
    s = np.linalg.svd(x.toarray(), compute_uv=False)
    assert s[0] / s[-1] <= 3.0


def test_synth_masked_planting_preserves_correlation():
    spec = ic.SynthSpec(
        n=4000, p1=15, p2=15, k_shared=1, planted_corrs=(0.9,),
        spectrum_decay=0.0, density=0.4, seed=7,
    )
    x, y, _ = ic.synth_correlated(spec)
    assert abs(ic.exact_cca(x, y, 1).d[0] - 0.9) <= 0.05


def test_synth_placement_controls_planted_positions():
    base = dict(n=1500, p1=12, p2=12, k_shared=2, planted_corrs=(0.95, 0.9),
                spectrum_decay=1.0, density=1.0, seed=8)
    top = ic.synth_correlated(ic.SynthSpec(placement="top", **base))
    bottom = ic.synth_correlated(ic.SynthSpec(placement="bottom", **base))
    # bottom placement hides the correlation in the weakest columns, so
    # a narrow randomized sketch finds much less of it
    top_sum = ic.captured_correlation_sum(ic.rp_cca(top[0], top[1], 2, k_rpcca=3, seed=0))
    bottom_sum = ic.captured_correlation_sum(ic.rp_cca(bottom[0], bottom[1], 2, k_rpcca=3, seed=0))
    assert bottom_sum < 0.5 * top_sum
    # exact recovery unaffected by placement
    assert ic.exact_cca(bottom[0], bottom[1], 2).d[0] >= 0.9


def test_synth_deterministic_and_validates():
    spec = ic.SynthSpec(n=100, p1=6, p2=5, k_shared=1, planted_corrs=(0.5,),
                        spectrum_decay=0.3, density=0.5, seed=9)
    x1, y1, _ = ic.synth_correlated(spec)
    x2, y2, _ = ic.synth_correlated(spec)
    assert np.array_equal(x1.toarray(), x2.toarray())
    assert np.array_equal(y1.toarray(), y2.toarray())
    for bad in (
        dict(n=0, p1=5, p2=5, k_shared=0),
        dict(n=10, p1=5, p2=5, k_shared=6),
        dict(n=10, p1=5, p2=5, k_shared=1, planted_corrs=(1.5,)),
        dict(n=10, p1=5, p2=5, k_shared=2, planted_corrs=(0.5, 0.9)),
        dict(n=10, p1=5, p2=5, k_shared=1, planted_corrs=(0.5,), density=0.0),
        dict(n=10, p1=5, p2=5, k_shared=0, placement="sideways"),
        dict(n=10, p1=5, p2=5, k_shared=0, density=0.5, rotate=True),
    ):
        with pytest.raises(ValueError):
            ic.SynthSpec(**bad)
    for bad, message in (
        (dict(k_shared=2, planted_corrs=(0.5,)), "planted_corrs length must equal k_shared"),
        (dict(k_shared=0, spectrum_decay=-0.5), "spectrum_decay must be a finite number >= 0"),
        (dict(k_shared=0, spectrum_decay=float("nan")), "spectrum_decay must be a finite number"),
        (dict(k_shared=0, spectrum_decay=float("inf")), "spectrum_decay must be a finite number"),
        (dict(k_shared=0, spectrum_decay="x"), "spectrum_decay must be a finite number >= 0"),
        (dict(k_shared=0, spectrum_decay=True), "spectrum_decay must be a finite number >= 0"),
        (dict(k_shared=0, density=None), r"density must be a number in \(0, 1\], got None"),
        (dict(k_shared=0, density=True), r"density must be a number in \(0, 1\], got True"),
        (dict(k_shared=0, density=0.0), r"density must be a number in \(0, 1\], got 0.0"),
        (dict(k_shared=1, planted_corrs=0.5),
         "planted_corrs must be a list or tuple of numbers, got 0.5"),
        (dict(k_shared=1, planted_corrs=["0.5"]),
         r"planted_corrs must be a list or tuple of numbers, got \['0.5'\]"),
        (dict(k_shared=1, planted_corrs=(True,)),
         r"planted_corrs must be a list or tuple of numbers, got \(True,\)"),
        (dict(k_shared=0, rotate="no"), "rotate must be a bool, got 'no'"),
        (dict(k_shared=0, rotate=1), "rotate must be a bool, got 1"),
    ):
        with pytest.raises(ValueError, match=message):
            ic.SynthSpec(n=10, p1=5, p2=5, **bad)
    good = dict(n=10, p1=5, p2=5, k_shared=0)
    for field, value in (("n", 50.5), ("p1", 0), ("p2", True), ("k_shared", -1),
                         ("seed", 1.5), ("seed", -1)):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= "):
            ic.SynthSpec(**{**good, field: value})
