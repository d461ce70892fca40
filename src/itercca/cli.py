"""Experiment runner.

Two subcommands: `run` executes one algorithm on one dataset and writes a
correlations CSV, a run JSON (config echo, timings, work counts, optional
oracle comparison), and an optional per-iteration trace CSV; `compare`
executes several algorithm configurations on one shared dataset and emits
a comparison table.

A run's config is its parsed `argparse.Namespace`; a `compare` spec
replaces fields of that namespace.  `_validate` checks every option by
its flag name before the out directory is made or any file is read.

Every number in the emitted CSVs is reproducible from config plus seed;
timing lives only in the JSON and the stdout table, which are the only
outputs allowed to differ between identical runs.
"""

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .cca import (
    d_cca,
    exact_cca_result,
    g_cca,
    l_cca,
    rp_cca,
)
from .datasets import (
    SynthSpec,
    TokenDatasetSpec,
    read_libsvm,
    read_matrix_market,
    read_text,
    synth_correlated,
    tokens_to_indicators,
)
from .evaluation import captured_correlation_sum, subspace_dist
from .linalg import NonFiniteError, check_count
from .ling import LingConfig


class _Algo(NamedTuple):
    params: tuple  # the tuning parameters it requires; giving any other is a config error
    run: Callable  # (config, x, y, reference bases or None) -> CcaResult


# The one table of algorithms.  Those taking t1 iterate, so they take
# --trace and trace distances to --oracle-compare's bases.  Each runner
# looks its solver up in this module when it is called, so a solver
# rebound here (to capture or trace its results) is the one that runs.
_ALGOS = {
    "exact": _Algo((), lambda c, x, y, ref: exact_cca_result(x, y, c.kcca)),
    "lcca": _Algo(("t1", "t2", "kpc"), lambda c, x, y, ref: l_cca(
        x, y, c.kcca, c.t1, LingConfig(k_pc=c.kpc, t2=c.t2, seed=c.seed),
        trace=c.trace, reference=ref)),
    "gcca": _Algo(("t1", "t2"), lambda c, x, y, ref: g_cca(
        x, y, c.kcca, c.t1, c.t2, c.seed, trace=c.trace, reference=ref)),
    "dcca": _Algo(("t1",), lambda c, x, y, ref: d_cca(
        x, y, c.kcca, c.t1, c.seed, trace=c.trace, reference=ref)),
    "rpcca": _Algo(("krpcca",), lambda c, x, y, ref: rp_cca(
        x, y, c.kcca, c.krpcca, seed=c.seed)),
}
_PARAMS = tuple(dict.fromkeys(p for algo in _ALGOS.values() for p in algo.params))
_RUN_KEYS = ("algo", *_PARAMS, "seed")
# The --tokens options and their defaults, those of the spec they fill.
_TOKEN_DEFAULTS = {f.name: f.default for f in fields(TokenDatasetSpec) if f.name != "tokens"}
# The least value of each integer option.
_LOWS = {"kcca": 1, "t1": 1, "t2": 0, "kpc": 0, "krpcca": 1, "seed": 0,
         "x_vocab_limit": 0, "y_vocab_limit": 0, "x_drop_top": 0, "y_drop_top": 0}


def _flag(name):
    return "--" + name.replace("_", "-")


def _validate(config):
    """Check one run's parsed options; raise a ValueError naming the flag at fault.

    Exactly one data source must be set: --x/--y with --format, --synth-spec,
    or --tokens; the options of another source must keep their defaults.
    """
    algo = _ALGOS.get(config.algo)
    if algo is None:
        raise ValueError(f"unknown algorithm {config.algo!r}; choose from {tuple(_ALGOS)}")
    sources = [config.x is not None, config.synth_spec is not None, config.tokens is not None]
    if sum(sources) != 1:
        raise ValueError("exactly one data source required: --x/--y, --synth-spec, or --tokens")
    if config.x is not None:
        if config.y is None:
            raise ValueError("--x requires --y (pass the same path for a self-comparison)")
        if config.fmt not in ("mm", "libsvm"):
            raise ValueError("--format must be 'mm' or 'libsvm' when loading files")
    elif config.y is not None or config.fmt is not None:
        raise ValueError("--y and --format apply only with --x")
    for name, default in _TOKEN_DEFAULTS.items():
        if config.tokens is None and getattr(config, name) != default:
            raise ValueError(f"{_flag(name)} applies only with --tokens")

    for name in _PARAMS:
        value = getattr(config, name)
        if name in algo.params:
            if value is None:
                raise ValueError(f"--{name} is required for algorithm {config.algo!r}")
        elif value is not None:
            raise ValueError(f"--{name} does not apply to algorithm {config.algo!r}")
    for name, low in _LOWS.items():
        if getattr(config, name) is not None:
            check_count(_flag(name), getattr(config, name), low)
    if config.krpcca is not None and config.krpcca < config.kcca:
        raise ValueError("--krpcca must be >= --kcca")

    if config.t2 == 0 and not config.kpc:  # every least-squares solve would be zero
        where = " at --kpc 0" if config.kpc == 0 else ""
        raise ValueError(f"--t2 must be >= 1 for algorithm {config.algo!r}{where}")
    zero_step = config.algo == "lcca" and config.t2 == 0  # l_cca runs no loop there
    if config.trace and ("t1" not in algo.params or zero_step):
        where = " at --t2 0" if zero_step else ""
        raise ValueError(f"--trace does not apply to algorithm {config.algo!r}{where}")
    if config.oracle_compare and config.algo == "exact":
        raise ValueError("--oracle-compare is redundant for the exact algorithm")


def _load_dataset(config):
    meta = {}
    if config.x is not None:
        if config.fmt == "mm":
            x = read_matrix_market(config.x)
            y = read_matrix_market(config.y)
        else:
            x = read_libsvm(config.x)
            y = read_libsvm(config.y)
            meta["libsvm_inferred_cols"] = {"x": x.shape[1], "y": y.shape[1]}
        meta["source"] = "files"
    elif config.synth_spec is not None:
        text = read_text(config.synth_spec)
        try:
            spec = SynthSpec(**json.loads(text))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad synthetic spec {config.synth_spec}: {exc}") from exc
        x, y, planted = synth_correlated(spec)
        meta["source"] = "synthetic"
        meta["planted_correlations"] = [float(c) for c in planted]
    else:
        spec = TokenDatasetSpec(tuple(read_text(config.tokens).split()),
                                **{n: getattr(config, n) for n in _TOKEN_DEFAULTS})
        try:
            x, y = tokens_to_indicators(spec)
        except ValueError as exc:
            raise ValueError(f"{config.tokens}: {exc}") from exc
        meta["source"] = "tokens"
    meta.update(
        n=int(x.shape[0]), p1=int(x.shape[1]), p2=int(y.shape[1]),
        nnz_x=int(x.nnz), nnz_y=int(y.nnz),
    )
    return x, y, meta


def _fail(exc, status):
    print(f"error: {exc}", file=sys.stderr)
    return status


def _load(configs):
    """Check `configs`, read their shared dataset, and create their out directory.

    Returns ((x, y, meta), 0), or (None, exit status) after printing the
    error: 2 for a bad configuration, a file that cannot be read or
    parsed, or an out directory that cannot be made; 1 for non-finite
    values in the data.  A refused input leaves no out directory behind.
    """
    # main builds every compare config from one namespace, so they share their data.
    try:
        for config in configs:
            _validate(config)
        data = _load_dataset(configs[0])
        if configs[0].out:
            Path(configs[0].out).mkdir(parents=True, exist_ok=True)
        return data, 0
    except NonFiniteError as exc:
        return None, _fail(exc, 1)
    except (ValueError, OSError) as exc:
        return None, _fail(exc, 2)


def _solve(config, x, y, out=None):
    """(result, oracle) of one config, or None after printing why it failed.

    oracle is the exact solution under --oracle-compare, else None; its
    bases are traced against only under --trace.  Every failure here exits
    1; an iteration failure first writes its partial trace into `out`.
    """
    try:
        oracle = reference = None
        if config.oracle_compare:
            oracle = exact_cca_result(x, y, config.kcca)
            if config.trace:
                reference = (oracle.x_basis, oracle.y_basis)
        return _ALGOS[config.algo].run(config, x, y, reference), oracle
    except (np.linalg.LinAlgError, ValueError) as exc:
        partial = getattr(exc, "partial_trace", None)
        if out is not None and partial is not None and partial.corr_sums.size:
            _write_trace(out / "trace.csv", partial)
        _fail(exc, 1)
        return None


def _write_csv(path, header, rows):
    """The header and each row as one comma-separated line; floats to 12 significant digits."""
    path.write_text("".join(
        ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in line) + "\n"
        for line in [header, *rows]
    ), encoding="utf-8")


def _write_trace(path, trace):
    header, columns = ["iteration", "corr_sum"], [trace.corr_sums]
    if trace.dists_x.size:
        header, columns = header + ["dist_x", "dist_y"], columns + [trace.dists_x, trace.dists_y]
    _write_csv(path, header, [(i, *v) for i, v in enumerate(zip(*columns), start=1)])


def run(config):
    """Execute one configuration, write its result files, return exit status.

    run.json echoes every attribute of config, the parsed `run` flags.
    """
    if config.out is None:
        return _fail("--out directory is required", 2)
    data, status = _load([config])
    if status:
        return status
    x, y, meta = data
    out = Path(config.out)
    solved = _solve(config, x, y, out)
    if solved is None:
        return 1
    result, oracle = solved

    _write_csv(out / "correlations.csv", ["index", "correlation"],
               enumerate(result.correlations, start=1))
    if result.trace is not None:
        _write_trace(out / "trace.csv", result.trace)

    payload = {
        "config": vars(config),
        "data": meta,
        "wall_time_seconds": result.wall_time,
        "sparse_multiplies": result.work,
        "captured_correlation_sum": captured_correlation_sum(result),
        "correlations": [float(c) for c in result.correlations],
    }
    if result.trace is not None:
        payload["trace_seconds"] = [float(s) for s in result.trace.seconds]
        payload["restarts"] = list(result.trace.restarts)
    if oracle is not None:
        payload["oracle"] = {
            "captured_correlation_sum": captured_correlation_sum(oracle),
            "correlations": [float(c) for c in oracle.correlations],
            "dist_x": subspace_dist(result.x_basis, oracle.x_basis),
            "dist_y": subspace_dist(result.y_basis, oracle.y_basis),
        }
    (out / "run.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


def _params_string(config):
    parts = [f"{name}={getattr(config, name)}" for name in _ALGOS[config.algo].params]
    parts.append(f"seed={config.seed}")
    return ";".join(parts)


def compare(configs):
    """Run several configurations on one shared dataset; return exit status.

    The data source and out are those of configs[0].  Prints one
    table row per config: the algorithm, its parameters, work and wall
    time, the captured correlation sum, and the per-index correlations.
    With out set, also writes the rows to comparison.csv there.
    """
    data, status = _load(configs)
    if status:
        return status
    x, y, _ = data
    rows = []
    for config in configs:
        solved = _solve(config, x, y)
        if solved is None:
            return 1
        result = solved[0]
        rows.append({
            "algo": config.algo,
            "params": _params_string(config),
            "sparse_multiplies": result.work,
            "wall_time_seconds": result.wall_time,
            "corr_sum": captured_correlation_sum(result),
            "correlations": [float(c) for c in result.correlations],
        })
    _print_comparison(rows, sys.stdout)
    if configs[0].out:
        k = len(rows[0]["correlations"])
        _write_csv(
            Path(configs[0].out) / "comparison.csv",
            ["algo", "params", "sparse_multiplies", "corr_sum",
             *(f"corr_{i}" for i in range(1, k + 1))],
            [(r["algo"], r["params"], r["sparse_multiplies"], r["corr_sum"], *r["correlations"])
             for r in rows],
        )
    return 0


def _print_comparison(rows, stream):
    widths = {
        "algo": max(5, *(len(r["algo"]) for r in rows)),
        "params": max(6, *(len(r["params"]) for r in rows)),
    }
    print(
        f"{'algo':<{widths['algo']}}  {'params':<{widths['params']}}  "
        f"{'multiplies':>12}  {'wall_s':>9}  {'corr_sum':>12}  correlations",
        file=stream,
    )
    for r in rows:
        corrs = " ".join(f"{c:.6g}" for c in r["correlations"])
        print(
            f"{r['algo']:<{widths['algo']}}  {r['params']:<{widths['params']}}  "
            f"{r['sparse_multiplies']:>12}  {r['wall_time_seconds']:>9.3f}  "
            f"{r['corr_sum']:>12.6g}  {corrs}",
            file=stream,
        )


def _add_data_flags(p):
    p.add_argument("--x", help="path to the x-side matrix file")
    p.add_argument("--y", help="path to the y-side matrix file")
    p.add_argument("--format", dest="fmt", choices=("mm", "libsvm"),
                   help="file format for --x/--y (mm = Matrix Market)")
    p.add_argument("--synth-spec", help="path to a JSON synthetic-instance recipe")
    p.add_argument("--tokens", help="path to whitespace-separated token text")
    p.add_argument("--kcca", type=int, default=20,
                   help="number of canonical pairs (default %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default %(default)s)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--x-vocab-limit", type=int)
    p.add_argument("--y-vocab-limit", type=int)
    p.add_argument("--x-drop-top", type=int,
                   help="drop the f most frequent current-position tokens")
    p.add_argument("--y-drop-top", type=int,
                   help="drop the f most frequent next-position tokens")
    p.add_argument("--boundary-token", help="token that bigrams must not span")
    p.set_defaults(**_TOKEN_DEFAULTS)


def _parse_run_spec(text):
    """The config fields one --run spec sets, e.g. algo=lcca,t1=6,t2=8,kpc=100."""
    spec = {}
    for item in text.split(","):
        key, sep, value = (part.strip() for part in item.partition("="))
        if not sep or key not in _RUN_KEYS:
            raise ValueError(f"bad --run field {item!r}; keys: {','.join(_RUN_KEYS)}")
        if key in spec:
            raise ValueError(f"--run spec {text!r} sets {key} twice")
        if key != "algo":
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"--run field {key} needs an integer, got {value!r}") from None
        spec[key] = value
    if "algo" not in spec:
        raise ValueError(f"--run spec {text!r} needs algo=...")
    return spec


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="itercca",
        description="Canonical correlation subspaces of large sparse matrix pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one algorithm and write result files")
    p_run.add_argument("--algo", required=True, choices=tuple(_ALGOS))
    _add_data_flags(p_run)
    p_run.add_argument("--t1", type=int, help="outer orthogonal iterations")
    p_run.add_argument("--t2", type=int, help="inner gradient iterations")
    p_run.add_argument("--kpc", type=int, help="deflation rank for lcca")
    p_run.add_argument("--krpcca", type=int, help="per-side basis rank for rpcca")
    p_run.add_argument("--trace", action="store_true",
                       help="write a per-iteration trace CSV")
    p_run.add_argument("--oracle-compare", action="store_true",
                       help="also run the exact solver and report subspace distances")

    p_cmp = sub.add_parser("compare", help="run several algorithms on one dataset")
    _add_data_flags(p_cmp)
    p_cmp.add_argument("--run", dest="runs", action="append", required=True, metavar="SPEC",
                       help="algo=NAME" + "".join(f"[,{k}=..]" for k in _RUN_KEYS[1:])
                       + "; repeatable")
    # compare's specs set the run-only options they need; the rest stay unset
    p_cmp.set_defaults(**dict.fromkeys(_PARAMS), trace=False, oracle_compare=False)

    args = parser.parse_args(argv)
    if args.command == "run":
        del args.command  # what is left is the run's config
        return run(args)
    try:
        configs = [argparse.Namespace(**{**vars(args), **_parse_run_spec(spec)})
                   for spec in args.runs]
    except ValueError as exc:
        return _fail(exc, 2)
    return compare(configs)


if __name__ == "__main__":
    sys.exit(main())
