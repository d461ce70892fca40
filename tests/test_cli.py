"""End-to-end command-line tests driving `itercca.cli.main`."""

import json

import numpy as np
import pytest

import itercca as ic
from itercca import cli

from conftest import markov_tokens, random_sparse, rng_for


def planted_mm_pair(tmp_path, seed=11):
    spec = ic.SynthSpec(
        n=200, p1=20, p2=15, k_shared=5,
        planted_corrs=(0.97, 0.94, 0.91, 0.88, 0.85),
        spectrum_decay=0.5, density=0.6, seed=seed,
    )
    x, y, _ = ic.synth_correlated(spec)
    xp, yp = tmp_path / "x.mtx", tmp_path / "y.mtx"
    ic.write_matrix_market(xp, x)
    ic.write_matrix_market(yp, y)
    return xp, yp


def read_corr_csv(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,correlation"
    return np.array([float(l.split(",")[1]) for l in lines[1:]])


def test_run_exact_same_file_both_sides(tmp_path):
    xp, _ = planted_mm_pair(tmp_path)
    out = tmp_path / "out"
    code = cli.main([
        "run", "--algo", "exact", "--x", str(xp), "--y", str(xp),
        "--format", "mm", "--kcca", "4", "--out", str(out),
    ])
    assert code == 0
    np.testing.assert_allclose(read_corr_csv(out / "correlations.csv"), np.ones(4), atol=1e-10)
    payload = json.loads((out / "run.json").read_text())
    assert payload["captured_correlation_sum"] == pytest.approx(4.0, abs=1e-8)
    assert payload["data"]["n"] == 200
    assert payload["sparse_multiplies"] > 0


def test_run_outputs_are_byte_identical_across_reruns(tmp_path):
    xp, yp = planted_mm_pair(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main([
            "run", "--algo", "lcca", "--x", str(xp), "--y", str(yp),
            "--format", "mm", "--kcca", "5", "--t1", "6", "--t2", "15",
            "--kpc", "5", "--seed", "7", "--trace", "--out", str(out),
        ])
        assert code == 0
        outs.append(out)
    for name in ("correlations.csv", "trace.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_run_lcca_on_table_shaped_synthetic_instance(tmp_path):
    spec = dict(
        n=2000, p1=150, p2=150, k_shared=20,
        planted_corrs=tuple(np.round(np.linspace(0.95, 0.6, 20), 3)),
        spectrum_decay=0.7, density=0.1, seed=1,
    )
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    code = cli.main([
        "run", "--algo", "lcca", "--synth-spec", str(spec_path),
        "--kcca", "20", "--t1", "5", "--t2", "7", "--kpc", "100",
        "--out", str(out),
    ])
    assert code == 0
    corrs = read_corr_csv(out / "correlations.csv")
    assert corrs.shape == (20,)
    assert np.all((corrs >= 0.0) & (corrs <= 1.0))


def test_run_trace_with_oracle_compare(tmp_path):
    xp, yp = planted_mm_pair(tmp_path)
    out = tmp_path / "out"
    code = cli.main([
        "run", "--algo", "gcca", "--x", str(xp), "--y", str(yp),
        "--format", "mm", "--kcca", "5", "--t1", "8", "--t2", "60",
        "--trace", "--oracle-compare", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,corr_sum,dist_x,dist_y"
    assert len(lines) == 9
    payload = json.loads((out / "run.json").read_text())
    oracle = payload["oracle"]
    assert 0.0 <= oracle["dist_x"] <= 1.0
    assert 0.0 <= oracle["dist_y"] <= 1.0
    assert payload["restarts"] == []
    assert len(payload["trace_seconds"]) == 8


def test_oracle_compare_without_trace_writes_no_trace(tmp_path, monkeypatch):
    references = []
    solve = cli.g_cca

    def spy(*args, **kwargs):
        references.append(kwargs["reference"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "g_cca", spy)
    xp, yp = planted_mm_pair(tmp_path)
    out = tmp_path / "out"
    code = cli.main([
        "run", "--algo", "gcca", "--x", str(xp), "--y", str(yp),
        "--format", "mm", "--kcca", "5", "--t1", "8", "--t2", "60",
        "--oracle-compare", "--out", str(out),
    ])
    assert code == 0
    assert references == [None]
    assert not (out / "trace.csv").exists()
    payload = json.loads((out / "run.json").read_text())
    assert "trace_seconds" not in payload and "restarts" not in payload
    assert 0.0 <= payload["oracle"]["dist_x"] <= 1.0
    assert 0.0 <= payload["oracle"]["dist_y"] <= 1.0


# Each case: the algorithm flags after a valid file-pair data source, and
# the error message it must print.
INCONSISTENT_CONFIGS = [
    (["--algo", "dcca", "--t1", "5", "--t2", "3"], "--t2 does not apply"),
    (["--algo", "lcca", "--t1", "5", "--t2", "3"], "--kpc is required"),
    (["--algo", "lcca", "--t1", "0", "--t2", "3", "--kpc", "2"],
     "--t1 must be an integer >= 1, got 0"),
    (["--algo", "exact", "--trace"], "--trace does not apply"),
    (["--algo", "exact", "--oracle-compare"], "--oracle-compare is redundant"),
    (["--algo", "rpcca", "--krpcca", "2"], "--krpcca must be >= --kcca"),
    (["--algo", "exact", "--t1", "4"], "--t1 does not apply"),
    (["--algo", "exact", "--kcca", "0"], "--kcca must be an integer >= 1, got 0"),
    (["--algo", "gcca", "--t1", "2", "--t2", "-1"], "--t2 must be an integer >= 0, got -1"),
    (["--algo", "lcca", "--t1", "2", "--t2", "1", "--kpc", "-1"],
     "--kpc must be an integer >= 0, got -1"),
    (["--algo", "dcca", "--t1", "2", "--seed", "-1"], "--seed must be an integer >= 0, got -1"),
    (["--algo", "exact", "--x-vocab-limit", "5"], "--x-vocab-limit applies only with --tokens"),
    (["--algo", "exact", "--boundary-token", "."],
     "--boundary-token applies only with --tokens"),
    (["--algo", "lcca", "--t1", "2", "--t2", "0", "--kpc", "4", "--trace"],
     "--trace does not apply to algorithm 'lcca' at --t2 0"),
    (["--algo", "gcca", "--t1", "2", "--t2", "0"], "--t2 must be >= 1 for algorithm 'gcca'"),
    (["--algo", "lcca", "--t1", "2", "--t2", "0", "--kpc", "0"],
     "--t2 must be >= 1 for algorithm 'lcca' at --kpc 0"),
]


@pytest.mark.parametrize(
    "argv_tail, message", INCONSISTENT_CONFIGS,
    ids=[f"argv_tail{i}" for i in range(len(INCONSISTENT_CONFIGS))],
)
def test_run_rejects_inconsistent_configs(tmp_path, capsys, argv_tail, message):
    xp, yp = planted_mm_pair(tmp_path)
    argv = [
        "run", "--x", str(xp), "--y", str(yp), "--format", "mm",
        "--kcca", "4", "--out", str(tmp_path / "out"),
    ] + argv_tail
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_rejects_bad_data_wiring(tmp_path):
    xp, yp = planted_mm_pair(tmp_path)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n": 50, "p1": 5, "p2": 5, "k_shared": 0}))
    cases = [
        # two data sources at once
        ["--x", str(xp), "--y", str(yp), "--format", "mm", "--synth-spec", str(spec_path)],
        # file pair without a format
        ["--x", str(xp), "--y", str(yp)],
        # x without y
        ["--x", str(xp), "--format", "mm"],
        # no data source at all
        [],
        # a file-only option with a synthetic source
        ["--synth-spec", str(spec_path), "--y", str(yp)],
        ["--synth-spec", str(spec_path), "--format", "mm"],
    ]
    for tail in cases:
        argv = ["run", "--algo", "exact", "--kcca", "2",
                "--out", str(tmp_path / "out")] + tail
        assert cli.main(argv) == 2


@pytest.mark.parametrize(
    "field, value", [("seed", 1.5), ("seed", -1), ("n", 50.5), ("p2", True), ("k_shared", -1)]
)
def test_run_rejects_synthetic_spec_with_bad_integers(tmp_path, capsys, field, value):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n": 50, "p1": 5, "p2": 5, "k_shared": 0, field: value}))
    code = cli.main([
        "run", "--algo", "exact", "--kcca", "2", "--synth-spec", str(spec_path),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"bad synthetic spec {spec_path}: {field} must be an integer >= " in err
    assert "Traceback" not in err


def test_run_reports_malformed_input_file(tmp_path, capsys):
    bad = tmp_path / "bad.mtx"
    for entry, message in (("9 9 1.0", "bad.mtx:3"),
                           ("1 x 1", "bad.mtx:3: non-numeric entry in '1 x 1'")):
        bad.write_text(f"%%MatrixMarket matrix coordinate real general\n2 2 1\n{entry}\n")
        code = cli.main([
            "run", "--algo", "exact", "--x", str(bad), "--y", str(bad),
            "--format", "mm", "--kcca", "1", "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    code = cli.main([
        "run", "--algo", "exact", "--x", str(tmp_path / "missing.mtx"), "--y", str(bad),
        "--format", "mm", "--kcca", "1", "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_reports_non_finite_input_file(tmp_path, capsys):
    xp, yp = planted_mm_pair(tmp_path)
    bad = tmp_path / "nan.mtx"
    lines = xp.read_text().splitlines()
    # the first entry follows the size line, the first line after the header not a '%' comment
    first = [i for i, line in enumerate(lines) if i and not line.startswith("%")][1]
    row, col, _ = lines[first].split()
    lines[first] = f"{row} {col} nan"
    bad.write_text("\n".join(lines) + "\n")
    for algo in (["--algo", "lcca", "--t1", "2", "--t2", "2", "--kpc", "3"],
                 ["--algo", "dcca", "--t1", "2"]):
        code = cli.main([
            "run", *algo, "--x", str(bad), "--y", str(yp),
            "--format", "mm", "--kcca", "2", "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "nan.mtx holds 1 non-finite values" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


def test_run_missing_out_directory_is_config_error(tmp_path):
    xp, yp = planted_mm_pair(tmp_path)
    code = cli.main([
        "run", "--algo", "exact", "--x", str(xp), "--y", str(yp),
        "--format", "mm", "--kcca", "2",
    ])
    assert code == 2


def test_out_directory_that_cannot_be_made_is_config_error(tmp_path, capsys):
    xp, yp = planted_mm_pair(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    data = ["--x", str(xp), "--y", str(yp), "--format", "mm", "--kcca", "2",
            "--out", str(blocker / "out")]
    assert cli.main(["run", "--algo", "exact", *data]) == 2
    assert "blocker" in capsys.readouterr().err
    assert cli.main(["compare", *data, "--run", "algo=exact"]) == 2
    assert "blocker" in capsys.readouterr().err


def test_run_rank_starved_instance_exits_one(tmp_path, capsys):
    thin = np.random.Generator(np.random.PCG64(3)).standard_normal((40, 3))
    wide = np.random.Generator(np.random.PCG64(4)).standard_normal((3, 8))
    xp = tmp_path / "lowrank.mtx"
    ic.write_matrix_market(xp, ic.as_sparse(thin @ wide))
    yp = tmp_path / "y.mtx"
    ic.write_matrix_market(yp, random_sparse(40, 6, 0.5, seed=5))
    code = cli.main([
        "run", "--algo", "dcca", "--x", str(xp), "--y", str(yp),
        "--format", "mm", "--kcca", "5", "--t1", "4",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_run_libsvm_pair_with_inferred_widths(tmp_path):
    xp = tmp_path / "x.svm"
    yp = tmp_path / "y.svm"
    xp.write_text("1 1:1.0 3:0.5\n0 2:1.0\n1 1:-1.0 2:2.0\n")
    yp.write_text("1 2:2.0\n0 1:1.5\n1 1:0.5 2:-0.5\n")
    out = tmp_path / "out"
    code = cli.main([
        "run", "--algo", "exact", "--x", str(xp), "--y", str(yp),
        "--format", "libsvm", "--kcca", "2", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads((out / "run.json").read_text())
    assert payload["data"]["libsvm_inferred_cols"] == {"x": 3, "y": 2}


def test_run_token_stream_with_trim_flags(tmp_path):
    toks = markov_tokens(800, 2, 6, (0.85, 0.55), seed=9)
    tok_path = tmp_path / "stream.txt"
    tok_path.write_text(" ".join(toks) + "\n")
    out = tmp_path / "out"
    code = cli.main([
        "run", "--algo", "exact", "--tokens", str(tok_path),
        "--kcca", "3", "--x-vocab-limit", "10", "--y-vocab-limit", "10",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads((out / "run.json").read_text())
    assert payload["data"]["p1"] == 10
    assert payload["data"]["p2"] == 10


def test_run_calls_the_solver_bound_in_cli_at_call_time(tmp_path, monkeypatch):
    # Benchmarks and tracers capture results by rebinding the solver names.
    xp, yp = planted_mm_pair(tmp_path)
    seen = []

    def capture(*args, **kwargs):
        seen.append(ic.d_cca(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, "d_cca", capture)
    assert cli.main([
        "run", "--algo", "dcca", "--t1", "2", "--x", str(xp), "--y", str(yp),
        "--format", "mm", "--kcca", "2", "--out", str(tmp_path / "out"),
    ]) == 0
    assert len(seen) == 1
    np.testing.assert_array_equal(read_corr_csv(tmp_path / "out" / "correlations.csv"),
                                  np.array([float(f"{c:.12g}") for c in seen[0].correlations]))


def test_compare_single_config_is_valid(tmp_path, capsys):
    xp, yp = planted_mm_pair(tmp_path)
    code = cli.main([
        "compare", "--x", str(xp), "--y", str(yp), "--format", "mm",
        "--kcca", "3", "--run", "algo=exact",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("exact")


def test_compare_exact_and_dcca_agree_on_indicator_data(tmp_path):
    toks = markov_tokens(3000, 2, 10, (0.9, 0.6), seed=41)
    tok_path = tmp_path / "stream.txt"
    tok_path.write_text(" ".join(toks) + "\n")
    out = tmp_path / "cmp"
    code = cli.main([
        "compare", "--tokens", str(tok_path), "--kcca", "2",
        "--run", "algo=exact", "--run", "algo=dcca,t1=30",
        "--out", str(out),
    ])
    assert code == 0
    rows = (out / "comparison.csv").read_text().strip().splitlines()
    assert rows[0].startswith("algo,params,sparse_multiplies,corr_sum")
    sums = [float(r.split(",")[3]) for r in rows[1:]]
    assert abs(sums[0] - sums[1]) <= 1e-6


def test_compare_steep_spectrum_favors_deflation(tmp_path):
    spec = dict(
        n=500, p1=60, p2=60, k_shared=8,
        planted_corrs=(0.95, 0.93, 0.91, 0.89, 0.87, 0.85, 0.83, 0.81),
        spectrum_decay=1.0, density=0.3, seed=61, placement="spread",
    )
    spec_path = tmp_path / "steep.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "cmp"
    code = cli.main([
        "compare", "--synth-spec", str(spec_path), "--kcca", "8", "--seed", "3",
        "--run", "algo=lcca,t1=4,t2=8,kpc=10", "--run", "algo=gcca,t1=4,t2=10",
        "--out", str(out),
    ])
    assert code == 0
    rows = (out / "comparison.csv").read_text().strip().splitlines()[1:]
    by_algo = {r.split(",")[0]: float(r.split(",")[3]) for r in rows}
    assert by_algo["lcca"] >= by_algo["gcca"]


def test_compare_rejects_malformed_run_spec(tmp_path, capsys):
    xp, yp = planted_mm_pair(tmp_path)
    base = ["compare", "--x", str(xp), "--y", str(yp), "--format", "mm", "--kcca", "2"]
    assert cli.main(base + ["--run", "t1=5"]) == 2
    assert cli.main(base + ["--run", "algo=lcca,bogus=3"]) == 2
    assert cli.main(base + ["--run", "algo=nosuch"]) == 2
    capsys.readouterr()
    assert cli.main(base + ["--run", "algo=dcca,t1=2,t1=0"]) == 2
    assert "sets t1 twice" in capsys.readouterr().err
    assert cli.main(base + ["--run", "algo=gcca,t1=2,t2=1.5"]) == 2
    assert "--run field t2 needs an integer, got '1.5'" in capsys.readouterr().err
    for spec in ("algo=dcca,t1=2,seed=-1", "algo=exact,seed=-1"):
        assert cli.main(base + ["--run", spec]) == 2
        assert "--seed must be an integer >= 0, got -1" in capsys.readouterr().err
    for spec, where in (("algo=gcca,t1=2,t2=0", "'gcca'"),
                        ("algo=lcca,t1=2,t2=0,kpc=0", "'lcca' at --kpc 0")):
        assert cli.main(base + ["--out", str(tmp_path / "out"), "--run", spec]) == 2
        assert f"--t2 must be >= 1 for algorithm {where}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_compare_solver_failures_exit_one_like_run(tmp_path, capsys):
    base = rng_for(4).standard_normal((30, 2))
    rank_two = tmp_path / "rank_two.mtx"
    ic.write_matrix_market(rank_two, ic.as_sparse(np.hstack([base, base])))
    y30, y40 = tmp_path / "y30.mtx", tmp_path / "y40.mtx"
    ic.write_matrix_market(y30, random_sparse(30, 4, 0.6, seed=5))
    ic.write_matrix_market(y40, random_sparse(40, 4, 0.6, seed=5))
    for x, y, message in ((rank_two, y30, "data rank below k_cca"), (y30, y40, "row mismatch")):
        data = ["--x", str(x), "--y", str(y), "--format", "mm", "--kcca", "3"]
        run = cli.main(["run", "--algo", "exact", *data, "--out", str(tmp_path / "out")])
        assert message in capsys.readouterr().err
        assert cli.main(["compare", *data, "--run", "algo=exact"]) == run == 1
        assert message in capsys.readouterr().err


def test_run_writes_the_partial_trace_of_a_failed_iteration(tmp_path, monkeypatch, capsys):
    partial = ic.ConvergenceTrace(
        corr_sums=np.array([1.5, 1.75]), seconds=np.array([0.1, 0.2]),
        dists_x=np.empty(0), dists_y=np.empty(0), restarts=(),
    )

    def failing_d_cca(*args, **kwargs):
        raise ic.IterationFailure("outer iteration 3 failed: boom", partial)

    monkeypatch.setattr(cli, "d_cca", failing_d_cca)
    xp, yp = planted_mm_pair(tmp_path)
    out = tmp_path / "out"
    code = cli.main([
        "run", "--algo", "dcca", "--x", str(xp), "--y", str(yp), "--format", "mm",
        "--kcca", "2", "--t1", "5", "--trace", "--out", str(out),
    ])
    assert code == 1
    assert "outer iteration 3 failed: boom" in capsys.readouterr().err
    assert (out / "trace.csv").read_text() == "iteration,corr_sum\n1,1.5\n2,1.75\n"
    assert not (out / "run.json").exists()


# Malformed libsvm files and what `itercca run --format libsvm` printed
# for them when the column count came from a separate pass over the file
# ({f} is the file's path).  The single-pass reader must keep each exit
# status and message, including which of two faults on a line wins and
# the inferred bound in "outside 1-based bound N".
LIBSVM_ERRORS = [
    ("1 0:1.0\n", 2, "{f}: no feature indices found to infer the column count"),
    ("1 0:1.0 2:1.0\n0 1:1\n", 2, "{f}:1: index 0 outside 1-based bound 2"),
    ("1 2:1.0\n0 0:1\n", 2, "{f}:2: index 0 outside 1-based bound 2"),
    ("1 -3:1 2:1\n", 2, "{f}:1: index -3 outside 1-based bound 2"),
    ("1 a:1.0\n", 2, "{f}: no feature indices found to infer the column count"),
    ("1 2:zz\n", 2, "{f}:1: non-numeric field '2:zz'"),
    ("1 3:1\n0 2:x\n", 2, "{f}:2: non-numeric field '2:x'"),
    ("1\n0\n", 2, "{f}: no feature indices found to infer the column count"),
    ("", 2, "{f}: no feature indices found to infer the column count"),
    ("\n\n", 2, "{f}: no feature indices found to infer the column count"),
    ("1 x:1 3:2\n", 2, "{f}:1: non-numeric field 'x:1'"),
    ("1 2 3:1.0\n", 2, "{f}:1: expected 'idx:val', got '2'"),
    ("1 3:1:2 1:1\n", 2, "{f}:1: non-numeric field '3:1:2'"),
    ("1 :1 2:1\n", 2, "{f}:1: non-numeric field ':1'"),
    ("1 1.0:1 2:1\n", 2, "{f}:1: non-numeric field '1.0:1'"),
    ("1 1:nan 2:1\n", 1, "{f} holds 1 non-finite values"),
    (b"1 1:1 \xff\n", 2, "{f}:1: byte 0xff is not UTF-8 (invalid start byte)"),
]


def run_libsvm_pair(tmp_path, capsys, x, y):
    code = cli.main([
        "run", "--algo", "exact", "--x", str(x), "--y", str(y), "--format", "libsvm",
        "--kcca", "1", "--out", str(tmp_path / "out"),
    ])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("text,status,message", LIBSVM_ERRORS)
def test_run_libsvm_error_contract(tmp_path, capsys, text, status, message):
    good = tmp_path / "good.svm"
    good.write_text("1 1:1.0 3:0.5\n0 2:1.0\n1 1:-1.0 2:2.0\n")
    bad = tmp_path / "bad.svm"
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    expected = (status, "error: " + message.format(f=bad) + "\n")
    assert run_libsvm_pair(tmp_path, capsys, bad, good) == expected
    assert run_libsvm_pair(tmp_path, capsys, good, bad) == expected


@pytest.mark.parametrize("data, extra, message", [
    (b"a b \xff c\n", [], "{f}:1: byte 0xff is not UTF-8 (invalid start byte)"),
    (b"", [], "{f}: token stream is empty"),
    (b"a a\na\n", ["--boundary-token", "a"], "{f}: token stream is empty after boundary removal"),
    (b"a b a b\n", ["--x-vocab-limit", "-1"], "--x-vocab-limit must be an integer >= 0, got -1"),
    (b"a\n", [], "{f}: token stream has no bigrams"),
])
def test_run_token_file_errors_name_the_file(tmp_path, capsys, data, extra, message):
    path = tmp_path / "tokens.txt"
    path.write_bytes(data)
    code = cli.main(["run", "--algo", "dcca", "--kcca", "1", "--t1", "2", "--tokens", str(path),
                     *extra, "--out", str(tmp_path / "out")])
    assert (code, capsys.readouterr().err) == (2, "error: " + message.format(f=path) + "\n")
    assert not (tmp_path / "out").exists()  # --out is made only after the data is read


@pytest.mark.parametrize("data, message", [
    (b'{"n": 50, "p1": 5,\n "p2": 5, "k_shared": 0, "seed": "\xff"}',
     "{f}:2: byte 0xff is not UTF-8 (invalid start byte)"),
    (b'{"n": 50, "p1": 5,\n "p2": 5 "k_shared": 0}',
     "bad synthetic spec {f}: Expecting ',' delimiter: line 2 column 10 (char 28)"),
    (b'{"n": 50, "p1": 5, "p2": 5, "k_shared": 0, "spectrum_decay": NaN}',
     "bad synthetic spec {f}: spectrum_decay must be a finite number >= 0"),
    (b'{"n": 50, "p1": 5, "p2": 5, "k_shared": 0, "density": null}',
     "bad synthetic spec {f}: density must be a number in (0, 1], got None"),
])
def test_run_synth_spec_errors_name_the_file(tmp_path, capsys, data, message):
    path = tmp_path / "spec.json"
    path.write_bytes(data)
    code = cli.main(["run", "--algo", "dcca", "--kcca", "1", "--t1", "2",
                     "--synth-spec", str(path), "--out", str(tmp_path / "out")])
    assert (code, capsys.readouterr().err) == (2, "error: " + message.format(f=path) + "\n")
    assert not (tmp_path / "out").exists()


def test_run_on_zero_row_files_names_k_cca(tmp_path, capsys):
    for name, p in (("x.mtx", 6), ("y.mtx", 5)):
        ic.write_matrix_market(tmp_path / name, ic.as_sparse(np.zeros((0, p))))
    code = cli.main(["run", "--algo", "dcca", "--kcca", "1", "--t1", "2", "--format", "mm",
                     "--x", str(tmp_path / "x.mtx"), "--y", str(tmp_path / "y.mtx"),
                     "--out", str(tmp_path / "out")])
    assert (code, capsys.readouterr().err) == (1, "error: k_cca=1 outside [1, 0]\n")


@pytest.mark.parametrize("text,shape", [
    ("1 +2:1 3:1\n", (1, 3)),
    ("1 1_0:1\n", (1, 10)),
    ("1 1:1\r\n0 2:2\r\n", (2, 2)),
])
def test_run_libsvm_reads_signed_underscored_and_crlf_files(tmp_path, capsys, text, shape):
    good = tmp_path / "good.svm"
    good.write_text("1 1:1.0 3:0.5\n0 2:1.0\n1 1:-1.0 2:2.0\n")
    odd = tmp_path / "odd.svm"
    odd.write_bytes(text.encode())
    # the row mismatch surfaces only after both files were read
    assert run_libsvm_pair(tmp_path, capsys, odd, good) == (
        1, f"error: row mismatch: x {shape} vs y (3, 3)\n")
    assert run_libsvm_pair(tmp_path, capsys, good, odd) == (
        1, f"error: row mismatch: x (3, 3) vs y {shape}\n")
