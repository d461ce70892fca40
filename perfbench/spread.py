"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload zipf-lcca --seeds 1-10

For every end-to-end metric prints the median, the quartiles
(statistics.quantiles, n=4) and the spread: the distance between the
quartiles as a share of the median, the figure BENCHMARK.json's bounds
are set against.  Also prints the failed share of each run, which must
be identical across seeds.  Each run lasts BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = ap.parse_args(argv)
    here = os.path.dirname(os.path.abspath(__file__))
    run = os.path.join(here, "run.py")
    with open(os.path.join(here, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    values, shares = {}, []
    for seed in args.seeds:
        cmd = [sys.executable, run, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - t0
        last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
        if done.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}")
            return 1
        res = json.loads(last)
        shares.append(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} wall={wall:.1f}s", flush=True)
    print(f"failed shares: {sorted(set(shares))}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:45s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
