"""The benchmark's workloads: seeded inputs, the timed round, expected counts.

Every workload builds its input from the run seed alone, with no
downloads, then repeats one round of identical operations.  A round
returns one Solve per operation; the runner times rounds, compares each
Solve's reported multiplies with the analytic count, and checks the
first round's outputs against the oracle.  An operation that raises or
exits non-zero becomes a failed Solve, so the round still finishes.
"""

import json
import os
import shutil
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles


@dataclass
class Solve:
    label: str
    x_basis: np.ndarray | None
    y_basis: np.ndarray | None
    correlations: np.ndarray | None
    multiplies: int  # what the program reported
    expected: int  # analytic count
    extra: bytes = b""  # further output that reruns must reproduce
    errors: list = field(default_factory=list)  # broken property checks
    failure: str = ""  # why the operation itself failed, if it did

    @property
    def failed(self):
        return bool(self.failure) or self.multiplies != self.expected


def failed_solve(label, expected, why):
    return Solve(label, None, None, None, 0, int(expected), failure=why)


class RestartCost:
    """Multiplies that iterate restarts add to a solve, tallied per thread.

    A restart replaces the deficient columns of an iterate with
    side @ random(p, columns), which costs nnz(side) * columns multiplies
    on top of the analytic count.  The tally wraps cca._replace_deficient,
    which the package looks up at call time.
    """

    def __init__(self, cca):
        self.cca = cca
        self.original = original = cca._replace_deficient
        self.local = threading.local()

        def replace(m, bad, side, rng):
            self.local.total = self.take() + side.nnz * bad.size
            return original(m, bad, side, rng)

        cca._replace_deficient = replace

    def take(self):
        """This thread's tally since the last take, which resets it."""
        total = getattr(self.local, "total", 0)
        self.local.total = 0
        return total

    def close(self):
        self.cca._replace_deficient = self.original


def planted_pair(rng, n, p, per_row, zipf, planted_cols, planted_corrs):
    """Paired sparse matrices with a planted block of correlated columns.

    Every row holds exactly per_row distinct columns (sorted draws shifted
    by their rank), Zipf-weighted when zipf is set and uniform otherwise,
    so nnz = n * per_row on every seed.  y shares x's pattern; its value
    in column j is rho_j times x's plus independent noise, with rho_j set
    on the planted columns and 0 elsewhere.
    """
    span = p - per_row + 1
    if zipf:
        w = np.arange(1, span + 1, dtype=np.float64) ** -zipf
        cols = rng.choice(span, size=(n, per_row), p=w / w.sum())
    else:
        cols = rng.integers(0, span, size=(n, per_row))
    cols.sort(axis=1)
    cols += np.arange(per_row)
    rho = np.zeros(p)
    rho[planted_cols] = planted_corrs
    r = rho[cols]
    vx = rng.standard_normal((n, per_row))
    vy = r * vx + np.sqrt(1.0 - r * r) * rng.standard_normal((n, per_row))
    rows = np.repeat(np.arange(n, dtype=np.int64), per_row)
    cols = cols.ravel().astype(np.int64)
    return (vx.ravel(), rows, cols), (vy.ravel(), rows, cols)


def lcca_multiplies(x, y, k, t1, cfg):
    """Analytic multiply count of l_cca (g_cca when cfg.k_pc == 0) before restarts."""
    n = x.shape[0]
    total = k * x.nnz + 2 * k * t1 * cfg.t2 * (x.nnz + y.nnz)
    if cfg.k_pc:
        for a in (x, y):
            m = min(min(cfg.k_pc, n, a.shape[1]) + cfg.rsvd_oversample, n, a.shape[1])
            total += 2 * (cfg.rsvd_power_iters + 1) * m * a.nnz
    return total


def dcca_multiplies(nnz_x, nnz_y, k, t1):
    return k * nnz_x + 2 * k * t1 * (nnz_x + nnz_y)


def run_solve(label, fn, expected, restarts):
    """Call one solver; a raised error becomes a failed Solve."""
    restarts.take()
    try:
        result = fn()
    except Exception as exc:  # noqa: BLE001  (any error fails this operation only)
        return failed_solve(label, expected, f"{type(exc).__name__}: {exc}")
    return Solve(label, result.x_basis, result.y_basis, result.correlations,
                 int(result.work), int(expected) + restarts.take())


class PairWorkload:
    """A real-valued planted pair solved by library calls."""

    n = p = per_row = k = 0
    zipf = None
    planted_span = 1.0  # planted columns spread over this leading share of columns
    planted_corrs = ()

    @property
    def oracle_dims(self):
        """Leading canonical directions that stand clear of the noise."""
        return min(self.k, len(self.planted_corrs))

    def __init__(self, ic, seed):
        self.ic = ic
        self.seed = seed
        self.restarts = RestartCost(ic.cca)
        rng = np.random.Generator(np.random.PCG64(seed))
        planted = np.linspace(0, int(self.planted_span * (self.p - 1)),
                              len(self.planted_corrs)).astype(np.int64)
        self.raw_x, self.raw_y = planted_pair(rng, self.n, self.p, self.per_row, self.zipf,
                                              planted, self.planted_corrs)
        self.input_mb = 0.0

    def canonicalize(self):
        """The program's set-up step: canonical CSR from the raw triplets."""
        shape = (self.n, self.p)
        self.x = self.ic.as_sparse((self.raw_x[0], (self.raw_x[1], self.raw_x[2])), shape=shape)
        self.y = self.ic.as_sparse((self.raw_y[0], (self.raw_y[1], self.raw_y[2])), shape=shape)

    def oracle(self):
        shape = (self.n, self.p)
        return oracles.dense_cca(self.raw_x, self.raw_y, shape, shape, self.k)

    def close(self):
        self.restarts.close()


class ZipfLcca(PairWorkload):
    name = "zipf-lcca"
    n, p, per_row, k = 50_000, 500, 5, 20
    zipf = 1.0
    # Planted among the heavier columns, well above the noise correlations
    # (about 0.3 here), so one budget leaves a steady gap on every seed.
    planted_span = 0.25
    planted_corrs = tuple(np.linspace(0.95, 0.7, 20))
    t1, kpc, t2 = 4, 50, 2

    def round(self):
        cfg = self.ic.LingConfig(k_pc=self.kpc, t2=self.t2, seed=self.seed)
        return [run_solve("lcca", lambda: self.ic.l_cca(self.x, self.y, self.k, self.t1, cfg),
                          lcca_multiplies(self.x, self.y, self.k, self.t1, cfg), self.restarts)]


class FlatGcca(PairWorkload):
    name = "flat-gcca"
    n, p, per_row, k = 20_000, 1000, 40, 10
    # Fewer planted directions than k: the spare columns make capturing all
    # six reliable, while the rest of the block sits in the noise bulk
    # (about 0.43 at this shape), so the gap does not hinge on the start.
    planted_corrs = tuple(np.linspace(0.95, 0.8, 6))
    t1, t2 = 4, 8

    def round(self):
        cfg = self.ic.LingConfig(k_pc=0, t2=self.t2, seed=self.seed)
        return [run_solve("gcca",
                          lambda: self.ic.g_cca(self.x, self.y, self.k, self.t1, self.t2, self.seed),
                          lcca_multiplies(self.x, self.y, self.k, self.t1, cfg), self.restarts)]


class PairedThreads(FlatGcca):
    """l_cca and g_cca at once in two threads of one process."""

    name = "paired-threads"
    kpc = 50

    def round(self):
        ic = self.ic
        cfg_l = ic.LingConfig(k_pc=self.kpc, t2=self.t2, seed=self.seed)
        cfg_g = ic.LingConfig(k_pc=0, t2=self.t2, seed=self.seed)
        jobs = (
            ("lcca", lambda: ic.l_cca(self.x, self.y, self.k, self.t1, cfg_l), cfg_l),
            ("gcca", lambda: ic.g_cca(self.x, self.y, self.k, self.t1, self.t2, self.seed),
             cfg_g),
        )
        barrier = threading.Barrier(len(jobs))
        solves = [None] * len(jobs)

        def work(i, label, fn, cfg):
            barrier.wait()
            expected = lcca_multiplies(self.x, self.y, self.k, self.t1, cfg)
            solves[i] = run_solve(label, fn, expected, self.restarts)

        threads = [threading.Thread(target=work, args=(i, *job), daemon=True)
                   for i, job in enumerate(jobs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=150)
            if t.is_alive():
                raise RuntimeError("paired-threads solve did not finish within 150 s")
        return solves


def zipf_tokens(rng, vocab, length, zipf, groups, stay):
    """A Zipfian token-id stream with planted bigram structure.

    Ids fall into `groups` classes by id modulo groups.  Each next token
    is drawn from the current token's class with probability `stay`,
    otherwise from the whole vocabulary, both Zipf-weighted; that plants
    groups - 1 canonical correlations well above the noise besides the
    trivial one.  A prefix holding every id twice in a row makes every id
    occur in both bigram roles, so no indicator column is empty.
    """
    w = np.arange(1, vocab + 1, dtype=np.float64) ** -zipf
    ids = np.arange(vocab)
    anywhere = rng.choice(vocab, size=length, p=w / w.sum())
    within = [rng.choice(ids[g::groups], size=length, p=w[g::groups] / w[g::groups].sum())
              for g in range(groups)]
    stays = rng.random(length) < stay
    out = np.empty(length, dtype=np.int64)
    cur = out[0] = anywhere[0]
    for i in range(1, length):
        cur = out[i] = within[cur % groups][i] if stays[i] else anywhere[i]
    return np.concatenate([np.repeat(ids, 2), out])


def role_columns(stream, role):
    """Column index of each role token, by itercca's documented vocabulary rule.

    Columns rank tokens by their count in the role, ties broken by first
    appearance anywhere in the stream.
    """
    ids, first = np.unique(stream, return_index=True)
    counts = np.bincount(role, minlength=ids.max() + 1)[ids]
    order = np.lexsort((first, -counts))
    col = np.empty(ids.max() + 1, dtype=np.int64)
    col[ids[order]] = np.arange(ids.size)
    return col[role], ids.size


class IngestCli:
    """One indicator pair stored three ways, each run through `itercca run`."""

    name = "ingest-cli"
    # A mild Zipf exponent keeps every token frequent enough that the noise
    # correlations pack tightly, so the gap is steady across seeds.
    vocab, length, zipf, groups, stay = 1000, 100_000, 0.5, 3, 0.6
    k, t1 = 5, 3

    def __init__(self, ic, seed, workdir):
        self.ic = ic
        self.seed = seed
        rng = np.random.Generator(np.random.PCG64(seed))
        stream = zipf_tokens(rng, self.vocab, self.length, self.zipf, self.groups, self.stay)
        self.x_cols, self.p1 = role_columns(stream, stream[:-1])
        self.y_cols, self.p2 = role_columns(stream, stream[1:])
        self.n = stream.size - 1
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        words = np.char.add("w", stream.astype(str))
        lines = [" ".join(words[i:i + 20]) for i in range(0, words.size, 20)]
        (self.dir / "tokens.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        for side, cols, p in (("x", self.x_cols, self.p1), ("y", self.y_cols, self.p2)):
            one_based = (cols + 1).astype(str)
            rows = np.arange(1, self.n + 1).astype(str)
            mm = np.char.add(np.char.add(np.char.add(rows, " "), one_based), " 1")
            (self.dir / f"{side}.mtx").write_text(
                "%%MatrixMarket matrix coordinate real general\n"
                f"{self.n} {p} {self.n}\n" + "\n".join(mm) + "\n", encoding="utf-8")
            svm = np.char.add(np.char.add("0 ", one_based), ":1")
            (self.dir / f"{side}.svm").write_text("\n".join(svm) + "\n", encoding="utf-8")
        self.inputs = ["tokens.txt", "x.mtx", "y.mtx", "x.svm", "y.svm"]
        self.input_mb = sum((self.dir / f).stat().st_size for f in self.inputs) / 2 ** 20
        self.oracle_dims = self.groups
        self.captured = []
        self.cli = None
        self.restarts = RestartCost(ic.cca)

    def canonicalize(self):
        """Nothing to do: the CLI reads and canonicalizes inside run_s."""

    def _capture(self):
        # Keep the CcaResult the CLI computes so its bases can be checked.
        cli = self.ic.cli
        original = cli.d_cca

        def capture(*args, **kwargs):
            res = original(*args, **kwargs)
            self.captured.append(res)
            return res

        cli.d_cca = capture
        self.cli = (cli, original)

    def round(self):
        if self.cli is None:
            self._capture()
        d = str(self.dir)
        common = ["--algo", "dcca", "--kcca", str(self.k), "--t1", str(self.t1),
                  "--seed", str(self.seed)]
        paths = (
            ("tokens", ["--tokens", f"{d}/tokens.txt"]),
            ("mm", ["--x", f"{d}/x.mtx", "--y", f"{d}/y.mtx", "--format", "mm"]),
            ("libsvm", ["--x", f"{d}/x.svm", "--y", f"{d}/y.svm", "--format", "libsvm"]),
        )
        expected = dcca_multiplies(self.n, self.n, self.k, self.t1)
        runs = []
        for label, data in paths:
            out = f"{d}/out-{label}"
            self.captured.clear()
            self.restarts.take()
            try:
                code = self.ic.cli.main(["run", *common, *data, "--out", out])
            except Exception as exc:  # noqa: BLE001  (any error fails this operation only)
                code = f"{type(exc).__name__}: {exc}"
            runs.append((label, out, code, self.captured[-1] if self.captured else None,
                         self.restarts.take()))
        solves = []
        for label, out, code, res, restart_cost in runs:
            if code != 0 or res is None:
                solves.append(failed_solve(label, expected, f"itercca run exited with {code}"))
                continue
            reported = json.loads(Path(out, "run.json").read_text(encoding="utf-8"))
            csv = Path(out, "correlations.csv").read_bytes()
            s = Solve(label, res.x_basis, res.y_basis, res.correlations,
                      int(reported["sparse_multiplies"]), expected + restart_cost, extra=csv)
            written = np.array([float(r.split(",")[1]) for r in csv.decode().split()[1:]])
            if written.shape != res.correlations.shape or np.max(
                    np.abs(written - res.correlations)) > 1e-11:
                s.errors.append(f"{label}: correlations.csv disagrees with the computed result")
            solves.append(s)
        if len({s.extra for s in solves if not s.failure}) > 1:
            solves[0].errors.append("the three ingest paths wrote different correlations.csv")
        return solves

    def oracle(self):
        return oracles.indicator_cca(self.x_cols, self.y_cols, self.p1, self.p2, self.k)

    def close(self):
        self.restarts.close()
        if self.cli is not None:
            self.cli[0].d_cca = self.cli[1]
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ZipfLcca, FlatGcca, IngestCli, PairedThreads)}


def make(name, ic, seed, workdir):
    cls = WORKLOADS[name]
    if cls is IngestCli:
        return cls(ic, seed, os.path.join(workdir, f"ingest-{os.getpid()}"))
    return cls(ic, seed)

