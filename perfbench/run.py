"""itercca benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload zipf-lcca --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones (setup_s, run_s, multiplies, corr_gap, peak_rss_mb);
with --trace 1 they are the per-layer ones, and the spans are written to
.perfbench/trace-<workload>-seed<seed>.jsonl.  --workload all runs every
workload in its own process and prints a table.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from statistics import median

WORKLOAD_NAMES = ("zipf-lcca", "flat-gcca", "ingest-cli", "paired-threads")
SETUP_REPS = 5
WORKDIR = ".perfbench"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("multiplies", "count"),
    ("corr_gap", "1"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def thread_budget(workload):
    """BLAS threads per solve, so that all threads fit in the usable cores."""
    nproc = len(os.sched_getaffinity(0))
    return nproc, max(1, nproc // 2) if workload == "paired-threads" else nproc


def import_seconds(module, env):
    """Time `import module` in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def output_hash(solves):
    """One digest of a round's outputs, for the byte-identical rerun check."""
    h = hashlib.sha256()
    for s in solves:
        h.update(s.label.encode() + b"\0" + s.failure.encode() + b"\0" + s.extra)
        for a in (s.x_basis, s.y_basis, s.correlations):
            if a is not None:
                h.update(a.tobytes())
    return h.digest()


def machine_info(np, scipy, threads, nproc):
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {"threads_per_solve": threads, "nproc": nproc, "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas}


def run_one(args):
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "itercca", "__init__.py")):
        print(f"error: no itercca sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    nproc, threads = thread_budget(args.workload)
    os.environ["ITERCCA_THREADS"] = str(threads)
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    os.environ["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    sys.path.insert(0, src)

    import itercca as ic  # noqa: E402  (after the thread settings)
    import itercca.cli  # noqa: F401,E402  (traced, and driven by ingest-cli)

    if not os.path.realpath(ic.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"error: imported itercca from {ic.__file__}, not {src}", file=sys.stderr)
        return 2

    import resource

    import numpy as np
    import scipy

    import oracles
    import workloads
    from tracing import PER_LAYER_UNITS, Tracer

    workdir = os.path.join(root, WORKDIR)
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.make(args.workload, ic, args.seed, workdir)
    try:
        # Set-up: what the program does before the timed run, repeated.
        module = "itercca.cli" if args.workload == "ingest-cli" else "itercca"
        setups = []
        for _ in range(SETUP_REPS):
            imp = import_seconds(module, dict(os.environ))
            t0 = time.perf_counter()
            wl.canonicalize()
            setups.append(imp + time.perf_counter() - t0)

        tracer = Tracer() if args.trace else None
        plain_s, traced_s, problems = [], [], []
        first, first_hash = None, None
        attempted = failed = 0
        multiplies = []
        t_start = time.perf_counter()
        rnd = 0
        while True:
            # Traced and untraced rounds alternate as T U U T T U U T ..., so a
            # steady drift in machine speed does not bias the overhead.
            traced = tracer is not None and rnd > 0 and (rnd - 1) % 4 in (0, 3)
            undo = None
            if traced:
                tracer.round = rnd
                undo = tracer.install()
            t0 = time.perf_counter()
            solves = wl.round()
            elapsed = time.perf_counter() - t0
            if undo is not None:
                tracer.uninstall(undo)
            if rnd > 0:  # round 0 warms caches and lazy set-up; it is checked, not timed
                (traced_s if traced else plain_s).append((rnd, elapsed))

            attempted += len(solves)
            failed += sum(s.failed for s in solves)
            multiplies.append(sum(s.multiplies for s in solves))
            digest = output_hash(solves)
            if first is None:
                first, first_hash = solves, digest
            elif digest != first_hash:
                problems.append(f"round {rnd}: rerun output is not byte-identical to round 0")
            for s in solves:
                problems.extend(s.errors)
            rnd += 1
            if time.perf_counter() - t_start >= args.seconds and rnd >= (3 if tracer else 2):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # Checks against the independent oracle, outside all timing.  A solve
        # that failed outright captured nothing: its gap is the oracle's sum.
        oracle = wl.oracle()
        corr_gap = 0.0
        dists = []
        for s in first:
            corr_gap += float(np.sum(oracle.correlations[:wl.k]))
            if s.failure:
                continue
            oracles.check_solve(s.label, s.x_basis, s.y_basis, s.correlations, oracle, problems)
            corr_gap -= float(np.sum(s.correlations))
            dists.append(oracles.oracle_dist(s.x_basis, s.y_basis, oracle, wl.oracle_dims))
        mismatched = [f"{s.label}: {s.failure}" if s.failure else
                      f"{s.label}: reported {s.multiplies} multiplies, expected {s.expected}"
                      for s in first if s.failed]

        if tracer is None:
            metrics = {
                "setup_s": median(setups),
                "run_s": median([t for _, t in plain_s]),
                "multiplies": int(median(multiplies)),
                "corr_gap": corr_gap,
                "peak_rss_mb": peak_rss_mb,
            }
            units = dict(END_TO_END)
        else:
            per_round = [tracer.round_totals(r) for r, _ in traced_s]
            metrics = {name: median([pr[name] for pr in per_round])
                       for name in per_round[0] if name != "layer_self_s"}
            metrics["cca.oracle_dist"] = max(dists, default=1.0)
            metrics["datasets.input_mb"] = wl.input_mb
            traced_run = median([t for _, t in traced_s])
            metrics["bench.traced_run_s"] = traced_run
            metrics["bench.trace_overhead_s"] = traced_run - median([t for _, t in plain_s])
            metrics["bench.layer_share"] = median(
                [pr["layer_self_s"] / t for pr, (_, t) in zip(per_round, traced_s)])
            units = PER_LAYER_UNITS
            tracer.write(os.path.join(workdir, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    finally:
        wl.close()

    info = machine_info(np, scipy, threads, nproc)
    info.update(workload=args.workload, seed=args.seed, solves_per_round=len(first),
                timed_round_s=[round(t, 4) for _, t in sorted(plain_s + traced_s)],
                traced_rounds=[r for r, _ in traced_s], setup_s=[round(t, 4) for t in setups])
    print("info " + json.dumps(info, sort_keys=True))
    for m in mismatched:
        print("failed " + m)
    for p in problems:
        print("problem " + p)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": as_number(v, units[k]), "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def as_number(value, unit):
    """Counts print as integers; a median of two equal counts is one."""
    if unit in ("count", "flop", "B") and float(value).is_integer():
        return int(value)
    return value


def run_all(args):
    """Every workload in its own process; a table, then a combined JSON line.

    A workload that prints no result makes the whole run incorrect, and
    the remaining workloads still run.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if not lines or not lines[-1].startswith("{"):
            print(f"error: workload {name} printed no result (exit {done.returncode})",
                  file=sys.stderr)
            combined["correct"] = False
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
        rows.append((name, res))
    if not rows:
        return 1
    labels = {m: f"{m} [{v['unit']}]" for m, v in rows[0][1]["metrics"].items()}
    width = max(len(label) for label in labels.values())
    print(f"{'metric':<{width}}" + "".join(f"{n:>17}" for n, _ in rows))
    for m, label in labels.items():
        print(f"{label:<{width}}" + "".join(f"{r['metrics'][m]['value']:>17.6g}" for _, r in rows))
    print(f"{'attempted/failed':<{width}}" + "".join(
        f"{str(r['attempted']) + '/' + str(r['failed']):>17}" for _, r in rows))
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
