"""Experiment runner.

Two subcommands: `run` executes one algorithm on one dataset and writes a
correlations CSV, a run JSON (config echo, timings, work counts, optional
oracle comparison), and an optional per-iteration trace CSV; `compare`
executes several algorithm configurations on one shared dataset and emits
a comparison table.

Every number in the emitted CSVs is reproducible from config plus seed;
timing lives only in the JSON and the stdout table, which are the only
outputs allowed to differ between identical runs.
"""

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .cca import (
    IterationFailure,
    SingularGramError,
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
    synth_correlated,
    tokens_to_indicators,
)
from .evaluation import captured_correlation_sum, subspace_dist
from .linalg import NonFiniteError
from .ling import LingConfig

ALGORITHMS = ("exact", "lcca", "dcca", "gcca", "rpcca")

# which tuning parameters each algorithm consumes; anything else given
# explicitly is a config error
_ALGO_PARAMS = {
    "exact": (),
    "lcca": ("t1", "t2", "kpc"),
    "gcca": ("t1", "t2"),
    "dcca": ("t1",),
    "rpcca": ("krpcca",),
}
_ITERATIVE = ("lcca", "gcca", "dcca")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """One experiment: an algorithm, a data source, and its parameters.

    Exactly one data source must be set: x/y paths with a format, a
    synthetic recipe (path to a JSON file or a SynthSpec), or a token
    stream (path to whitespace-separated text or a TokenDatasetSpec).
    """

    algo: str
    x: Optional[str] = None
    y: Optional[str] = None
    fmt: Optional[str] = None
    synth_spec: Optional[object] = None
    tokens: Optional[object] = None
    kcca: int = 20
    t1: Optional[int] = None
    t2: Optional[int] = None
    kpc: Optional[int] = None
    krpcca: Optional[int] = None
    seed: int = 0
    out: Optional[str] = None
    trace: bool = False
    oracle_compare: bool = False
    ridge: bool = False
    x_vocab_limit: int = 0
    y_vocab_limit: int = 0
    x_drop_top: int = 0
    y_drop_top: int = 0
    boundary_token: Optional[str] = None


def _validate(config):
    if config.algo not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {config.algo!r}; choose from {ALGORITHMS}")
    sources = [config.x is not None, config.synth_spec is not None, config.tokens is not None]
    if sum(sources) != 1:
        raise ConfigError("exactly one data source required: --x/--y, --synth-spec, or --tokens")
    if config.x is not None:
        if config.y is None:
            raise ConfigError("--x requires --y (pass the same path for a self-comparison)")
        if config.fmt not in ("mm", "libsvm"):
            raise ConfigError("--format must be 'mm' or 'libsvm' when loading files")
    if config.kcca < 1:
        raise ConfigError("--kcca must be >= 1")

    allowed = _ALGO_PARAMS[config.algo]
    for name in ("t1", "t2", "kpc", "krpcca"):
        value = getattr(config, name)
        if name in allowed:
            if value is None:
                raise ConfigError(f"--{name} is required for algorithm {config.algo!r}")
        elif value is not None:
            raise ConfigError(f"--{name} does not apply to algorithm {config.algo!r}")
    if config.t1 is not None and config.t1 < 1:
        raise ConfigError("--t1 must be >= 1")
    if config.t2 is not None and config.t2 < 0:
        raise ConfigError("--t2 must be >= 0")
    if config.kpc is not None and config.kpc < 0:
        raise ConfigError("--kpc must be >= 0")
    if config.krpcca is not None and config.krpcca < config.kcca:
        raise ConfigError("--krpcca must be >= --kcca")

    if config.trace and config.algo not in _ITERATIVE:
        raise ConfigError(f"--trace applies only to iterative algorithms {_ITERATIVE}")
    if config.oracle_compare and config.algo == "exact":
        raise ConfigError("--oracle-compare is redundant for the exact algorithm")
    if config.ridge and config.algo != "exact" and not config.oracle_compare:
        raise ConfigError("--ridge applies to the exact solver (directly or via --oracle-compare)")


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
        spec = config.synth_spec
        if not isinstance(spec, SynthSpec):
            with open(spec, encoding="utf-8") as fh:
                try:
                    spec = SynthSpec(**json.load(fh))
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"bad synthetic spec {config.synth_spec}: {exc}") from exc
        x, y, planted = synth_correlated(spec)
        meta["source"] = "synthetic"
        meta["planted_correlations"] = [float(c) for c in planted]
    else:
        spec = config.tokens
        if not isinstance(spec, TokenDatasetSpec):
            with open(spec, encoding="utf-8") as fh:
                stream = tuple(fh.read().split())
            spec = TokenDatasetSpec(
                tokens=stream,
                x_vocab_limit=config.x_vocab_limit,
                y_vocab_limit=config.y_vocab_limit,
                x_drop_top=config.x_drop_top,
                y_drop_top=config.y_drop_top,
                boundary_token=config.boundary_token,
            )
        x, y = tokens_to_indicators(spec)
        meta["source"] = "tokens"
    meta.update(
        n=int(x.shape[0]), p1=int(x.shape[1]), p2=int(y.shape[1]),
        nnz_x=int(x.nnz), nnz_y=int(y.nnz),
    )
    return x, y, meta


def _dispatch(config, x, y, oracle):
    reference = None
    if oracle is not None and config.algo in _ITERATIVE:
        reference = (oracle.x_basis, oracle.y_basis)
    trace = config.trace
    if config.algo == "exact":
        return exact_cca_result(x, y, config.kcca, ridge=config.ridge)
    if config.algo == "lcca":
        cfg = LingConfig(k_pc=config.kpc, t2=config.t2, seed=config.seed)
        return l_cca(x, y, config.kcca, config.t1, cfg, trace=trace, reference=reference)
    if config.algo == "gcca":
        return g_cca(x, y, config.kcca, config.t1, config.t2, config.seed,
                     trace=trace, reference=reference)
    if config.algo == "dcca":
        return d_cca(x, y, config.kcca, config.t1, config.seed,
                     trace=trace, reference=reference)
    return rp_cca(x, y, config.kcca, config.krpcca, seed=config.seed)


def _config_echo(config):
    d = asdict(config)
    tokens = d.get("tokens")
    if isinstance(tokens, dict) and isinstance(tokens.get("tokens"), (list, tuple)):
        tokens["tokens"] = f"<{len(tokens['tokens'])} tokens>"
    return d


def _fmt(v):
    return f"{v:.12g}"


def _write_correlations(path, corrs):
    lines = ["index,correlation"]
    lines += [f"{i},{_fmt(c)}" for i, c in enumerate(corrs, start=1)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_trace(path, trace):
    with_dists = trace.dists_x.size > 0
    header = "iteration,corr_sum" + (",dist_x,dist_y" if with_dists else "")
    lines = [header]
    for i, s in enumerate(trace.corr_sums, start=1):
        row = f"{i},{_fmt(s)}"
        if with_dists:
            row += f",{_fmt(trace.dists_x[i - 1])},{_fmt(trace.dists_y[i - 1])}"
        lines.append(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run(config):
    """Execute one configuration, write its result files, return exit status."""
    try:
        _validate(config)
        if config.out is None:
            raise ConfigError("--out directory is required")
        x, y, meta = _load_dataset(config)
    except NonFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        oracle = None
        if config.oracle_compare:
            oracle = exact_cca_result(x, y, config.kcca, ridge=config.ridge)
        result = _dispatch(config, x, y, oracle)
    except IterationFailure as exc:
        if exc.partial_trace is not None and exc.partial_trace.corr_sums.size:
            _write_trace(out / "trace.csv", exc.partial_trace)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SingularGramError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    _write_correlations(out / "correlations.csv", result.correlations)
    if result.trace is not None:
        _write_trace(out / "trace.csv", result.trace)

    payload = {
        "config": _config_echo(config),
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
    parts = [f"{name}={getattr(config, name)}" for name in _ALGO_PARAMS[config.algo]]
    parts.append(f"seed={config.seed}")
    return ";".join(parts)


def compare(configs):
    """Run several configurations on one shared dataset; return table rows.

    All configs must agree on the data source and kcca.  Each row carries
    the algorithm, its parameters, work and wall time, the captured
    correlation sum, and the per-index correlations.
    """
    if not configs:
        raise ConfigError("compare needs at least one configuration")
    data_fields = (
        "x", "y", "fmt", "synth_spec", "tokens", "kcca",
        "x_vocab_limit", "y_vocab_limit", "x_drop_top", "y_drop_top", "boundary_token",
    )
    head = configs[0]
    for other in configs[1:]:
        for name in data_fields:
            if getattr(head, name) != getattr(other, name):
                raise ConfigError(f"compare configs disagree on {name}")
    for config in configs:
        _validate(config)

    x, y, _ = _load_dataset(head)
    rows = []
    for config in configs:
        result = _dispatch(config, x, y, None)
        rows.append({
            "algo": config.algo,
            "params": _params_string(config),
            "sparse_multiplies": result.work,
            "wall_time_seconds": result.wall_time,
            "corr_sum": captured_correlation_sum(result),
            "correlations": [float(c) for c in result.correlations],
        })
    return rows


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


def _write_comparison(path, rows):
    k = len(rows[0]["correlations"])
    header = "algo,params,sparse_multiplies,corr_sum," + ",".join(
        f"corr_{i}" for i in range(1, k + 1)
    )
    lines = [header]
    for r in rows:
        corrs = ",".join(_fmt(c) for c in r["correlations"])
        lines.append(
            f"{r['algo']},{r['params']},{r['sparse_multiplies']},{_fmt(r['corr_sum'])},{corrs}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _add_data_flags(p):
    p.add_argument("--x", help="path to the x-side matrix file")
    p.add_argument("--y", help="path to the y-side matrix file")
    p.add_argument("--format", dest="fmt", choices=("mm", "libsvm"),
                   help="file format for --x/--y (mm = Matrix Market)")
    p.add_argument("--synth-spec", help="path to a JSON synthetic-instance recipe")
    p.add_argument("--tokens", help="path to whitespace-separated token text")
    p.add_argument("--kcca", type=int, default=20, help="number of canonical pairs (default 20)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--ridge", action="store_true",
                   help="repair singular Grams in the exact solver by a ridge shift")
    p.add_argument("--x-vocab-limit", type=int, default=0)
    p.add_argument("--y-vocab-limit", type=int, default=0)
    p.add_argument("--x-drop-top", type=int, default=0,
                   help="drop the f most frequent current-position tokens")
    p.add_argument("--y-drop-top", type=int, default=0,
                   help="drop the f most frequent next-position tokens")
    p.add_argument("--boundary-token", help="token that bigrams must not span")


def _parse_run_spec(text):
    fields = {}
    for item in text.split(","):
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in ("algo", "t1", "t2", "kpc", "krpcca", "seed"):
            raise ConfigError(f"bad --run field {item!r}; keys: algo,t1,t2,kpc,krpcca,seed")
        fields[key] = value.strip() if key == "algo" else int(value)
    if "algo" not in fields:
        raise ConfigError(f"--run spec {text!r} needs algo=...")
    return fields


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="itercca",
        description="Canonical correlation subspaces of large sparse matrix pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one algorithm and write result files")
    p_run.add_argument("--algo", required=True, choices=ALGORITHMS)
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
                       help="algo=NAME[,t1=..][,t2=..][,kpc=..][,krpcca=..][,seed=..]; repeatable")

    args = parser.parse_args(argv)
    if args.command == "run":
        config = RunConfig(
            algo=args.algo, x=args.x, y=args.y, fmt=args.fmt,
            synth_spec=args.synth_spec, tokens=args.tokens,
            kcca=args.kcca, t1=args.t1, t2=args.t2, kpc=args.kpc, krpcca=args.krpcca,
            seed=args.seed, out=args.out, trace=args.trace,
            oracle_compare=args.oracle_compare, ridge=args.ridge,
            x_vocab_limit=args.x_vocab_limit, y_vocab_limit=args.y_vocab_limit,
            x_drop_top=args.x_drop_top, y_drop_top=args.y_drop_top,
            boundary_token=args.boundary_token,
        )
        return run(config)

    base = dict(
        x=args.x, y=args.y, fmt=args.fmt, synth_spec=args.synth_spec, tokens=args.tokens,
        kcca=args.kcca, seed=args.seed, ridge=args.ridge,
        x_vocab_limit=args.x_vocab_limit, y_vocab_limit=args.y_vocab_limit,
        x_drop_top=args.x_drop_top, y_drop_top=args.y_drop_top,
        boundary_token=args.boundary_token,
    )
    try:
        configs = []
        for spec in args.runs:
            fields = _parse_run_spec(spec)
            seed = fields.pop("seed", args.seed)
            configs.append(RunConfig(**{**base, **fields, "seed": seed}))
        rows = compare(configs)
    except NonFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IterationFailure, SingularGramError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_comparison(rows, sys.stdout)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_comparison(out / "comparison.csv", rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
