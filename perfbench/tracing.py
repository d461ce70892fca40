"""Span tracing of itercca's layers from outside the package.

The package binds kernel names at import (`from .linalg import thin_qr`),
so a wrapper is installed under every name, in every loaded `itercca`
module, that refers to a traced function; removing the tracer puts the
originals back.  Spans (name, start, end, parent, thread, counters) are
kept in memory and written out as JSON lines when the run ends.

Counters that are computed from shapes rather than measured (`flops`,
`bytes`) are labelled as computed in the README.  Work done by the
benchmark inside a hook (the residual ratio) is timed and charged to the
hook, not to the layer or its parent, so self times hold program work
only.
"""

import functools
import itertools
import json
import statistics
import sys
import threading
import time

import numpy as np


def _spmm_counters(args, out):
    a, b = args[0], np.asarray(args[1])
    return {
        "multiplies": a.nnz * b.shape[1],
        "bytes": a.data.nbytes + a.indices.nbytes + a.indptr.nbytes + b.nbytes + out.nbytes,
    }


def _qr_counters(args, out):
    n, k = np.shape(args[0])
    # Householder factorization plus forming the thin q explicitly.
    return {"flops": 4 * n * k * k - 4 * k ** 3 // 3}


def _as_sparse_counters(args, out):
    return {"bytes": out.data.nbytes + out.indices.nbytes + out.indptr.nbytes}


def _residual_ratio(args, out):
    rhs = np.asarray(args[1], dtype=np.float64)
    norm = np.linalg.norm(rhs)
    return {"residual_ratio": float(np.linalg.norm(rhs - out) / norm) if norm else 0.0}


# (module, function, span name, counter hook)
TRACED = (
    ("linalg", "thin_qr", "linalg.thin_qr", _qr_counters),
    ("linalg", "sparse_dense_mul", "linalg.spmm", _spmm_counters),
    ("linalg", "sparse_transpose_dense_mul", "linalg.spmm", _spmm_counters),
    ("linalg", "as_sparse", "linalg.as_sparse", _as_sparse_counters),
    ("rsvd", "randomized_top_singulars", "rsvd.randomized_top_singulars", None),
    ("ling", "build_solver", "ling.build_solver", None),
    ("ling", "ling_solve", "ling.ling_solve", None),
    ("ling", "gd_least_squares", "ling.gd_least_squares", _residual_ratio),
    ("cca", "iterative_ls_cca", "cca.iterative_ls_cca", None),
    ("cca", "final_correlations", "cca.final_correlations", None),
    ("datasets", "read_matrix_market", "datasets.read_matrix_market", None),
    ("datasets", "read_libsvm", "datasets.read_libsvm", None),
    ("datasets", "tokens_to_indicators", "datasets.tokens_to_indicators", None),
    ("cli", "run", "cli.run", None),
)

# Per-layer metrics: (name, unit, span name, field).  Field "self_s" sums
# self times, "s" sums whole durations, "calls" counts spans, anything
# else sums that counter (inclusive of child spans for "multiplies").
LAYER_METRICS = (
    ("linalg.thin_qr.self_s", "s", "linalg.thin_qr", "self_s"),
    ("linalg.thin_qr.calls", "count", "linalg.thin_qr", "calls"),
    ("linalg.thin_qr.flops", "flop", "linalg.thin_qr", "flops"),
    ("linalg.spmm.self_s", "s", "linalg.spmm", "self_s"),
    ("linalg.spmm.calls", "count", "linalg.spmm", "calls"),
    ("linalg.spmm.multiplies", "count", "linalg.spmm", "multiplies"),
    ("linalg.spmm.bytes", "B", "linalg.spmm", "bytes"),
    ("linalg.as_sparse.self_s", "s", "linalg.as_sparse", "self_s"),
    ("linalg.as_sparse.calls", "count", "linalg.as_sparse", "calls"),
    ("linalg.as_sparse.bytes", "B", "linalg.as_sparse", "bytes"),
    ("rsvd.randomized_top_singulars.self_s", "s", "rsvd.randomized_top_singulars", "self_s"),
    ("rsvd.randomized_top_singulars.calls", "count", "rsvd.randomized_top_singulars", "calls"),
    ("rsvd.randomized_top_singulars.multiplies", "count", "rsvd.randomized_top_singulars",
     "multiplies"),
    ("ling.build_solver.s", "s", "ling.build_solver", "s"),
    ("ling.ling_solve.self_s", "s", "ling.ling_solve", "self_s"),
    ("ling.ling_solve.calls", "count", "ling.ling_solve", "calls"),
    ("ling.gd_least_squares.self_s", "s", "ling.gd_least_squares", "self_s"),
    ("ling.gd_least_squares.multiplies", "count", "ling.gd_least_squares", "multiplies"),
    ("cca.iterative_ls_cca.self_s", "s", "cca.iterative_ls_cca", "self_s"),
    ("cca.final_correlations.s", "s", "cca.final_correlations", "s"),
    ("datasets.read_matrix_market.s", "s", "datasets.read_matrix_market", "s"),
    ("datasets.read_libsvm.s", "s", "datasets.read_libsvm", "s"),
    ("datasets.tokens_to_indicators.s", "s", "datasets.tokens_to_indicators", "s"),
    ("cli.run.self_s", "s", "cli.run", "self_s"),
    ("cli.run.calls", "count", "cli.run", "calls"),
)

# Every per-layer metric the traced run prints, with its unit: the span
# figures above plus those the runner adds from the tracer and the oracle.
PER_LAYER_UNITS = {
    **{name: unit for name, unit, *_ in LAYER_METRICS},
    "ling.gd_least_squares.residual_ratio": "1",
    "cca.restarts": "count",
    "cca.oracle_dist": "1",
    "datasets.input_mb": "MB",
    "bench.traced_run_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.layer_share": "1",
}


class Tracer:
    """Collects spans from the wrapped functions of every thread."""

    def __init__(self):
        self.spans = []
        self.round = 0
        self.restarts = {}  # round -> iterates with rank-deficient columns
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = {
                "id": next(tracer._ids),
                "name": name,
                "parent": parent["id"] if parent else None,
                "thread": threading.get_ident(),
                "round": tracer.round,
                "child_s": 0.0,
                "counters": {},
            }
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if hook is not None:
                h0 = time.perf_counter()
                span["counters"].update(hook(args, out))
                if parent is not None:
                    parent["child_s"] += time.perf_counter() - h0
            duration = span["end"] - span["start"]
            span["self_s"] = duration - span["child_s"]
            if parent is not None:
                parent["child_s"] += duration
                mult = span["counters"].get("multiplies", 0)
                mult += span["counters"].get("inner_multiplies", 0)
                if mult:
                    parent["counters"]["inner_multiplies"] = (
                        parent["counters"].get("inner_multiplies", 0) + mult
                    )
            del span["child_s"]
            tracer.spans.append(span)
            return out

        return traced

    def count_restarts(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out.size:
                with tracer._lock:
                    tracer.restarts[tracer.round] = tracer.restarts.get(tracer.round, 0) + 1
            return out

        return counted

    def install(self):
        """Swap wrappers in under every name bound to a traced function."""
        replace = {}
        for mod, func, name, hook in TRACED:
            original = getattr(sys.modules[f"itercca.{mod}"], func)
            replace[id(original)] = self.wrap(name, original, hook)
        undo = []
        for modname, module in list(sys.modules.items()):
            if modname != "itercca" and not modname.startswith("itercca."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, value))
        cca = sys.modules["itercca.cca"]
        undo.append((cca, "rank_deficient_columns", cca.rank_deficient_columns))
        cca.rank_deficient_columns = self.count_restarts(cca.rank_deficient_columns)
        return undo

    @staticmethod
    def uninstall(undo):
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)

    def round_totals(self, rnd):
        """Per-layer figures of one traced round, keyed like LAYER_METRICS."""
        spans = [s for s in self.spans if s["round"] == rnd]
        out = {}
        for metric, _, span_name, field in LAYER_METRICS:
            sel = [s for s in spans if s["name"] == span_name]
            if field == "calls":
                out[metric] = len(sel)
            elif field == "self_s":
                out[metric] = sum(s["self_s"] for s in sel)
            elif field == "s":
                out[metric] = sum(s["end"] - s["start"] for s in sel)
            elif field == "multiplies":
                out[metric] = sum(
                    s["counters"].get("multiplies", 0) + s["counters"].get("inner_multiplies", 0)
                    for s in sel
                )
            else:
                out[metric] = sum(s["counters"].get(field, 0) for s in sel)
        ratios = [s["counters"]["residual_ratio"] for s in spans
                  if s["name"] == "ling.gd_least_squares"]
        out["ling.gd_least_squares.residual_ratio"] = statistics.median(ratios) if ratios else 0.0
        out["cca.restarts"] = self.restarts.get(rnd, 0)
        out["layer_self_s"] = sum(s["self_s"] for s in spans)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
