"""Workload inputs and the passes that run them through bregrelax.

Every input is generated from the workload seed: stream ``j`` of pass
``k`` in a run with seed ``s`` draws from ``SeedSequence(s, (j, k))``.
Cluster geometry (means, class profiles) is fixed, so the seed varies the
samples and not the difficulty of the instance.

A relaxation cell is one ``bregrelax.bench.run_experiment`` call on a CSV
file written from the seed: load -> preprocess -> solve -> spectral
embedding -> rounding (10 derived seeds) -> hard re-optimization ->
scoring.  The pipeline workload drives ``bregrelax.cli.main`` over CSV
files instead.  Both keep each relaxation solution by wrapping
``bench.solve_relaxation`` for the duration of the call, so the
certificate and the checks on M and Z read the solution the program
computed.

Each workload offers ``inputs`` (untimed), ``run_pass`` (the timed pass)
and ``finish`` (untimed: certificates, references, checks, results CSV).
"""

import contextlib
import csv
import hashlib
import io
import math
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bregrelax import bench, cli, models
from bregrelax.bench import Dataset
from bregrelax.geometry import check_membership

CELL_CAP_S = 60.0


class CellTimeout(BaseException):
    """Raised by the interval timer when a cell runs past its cap.

    A BaseException, so ``run_grid``'s per-cell ``except Exception`` does
    not absorb it and the whole capped call stops.
    """


def _on_alarm(signum, frame):
    raise CellTimeout


@contextlib.contextmanager
def wall_cap(seconds):
    """Stop the body with CellTimeout after ``seconds`` of wall-clock time."""
    if seconds <= 0:
        raise CellTimeout
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def stream_rng(seed, stream, k):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, k)))


def planted(rng, t, n, d=3, sep=4.0):
    """Unit-variance gaussian blobs around the means sep * e_1 .. sep * e_d."""
    labels = np.arange(t) % d
    X = sep * np.eye(d, n)[labels] + rng.normal(size=(t, n))
    perm = rng.permutation(t)
    return Dataset("planted", X[perm], labels[perm], tuple(range(d)))


def spam_like(rng, t, n):
    """Sparse, heavy-tailed nonnegative features in two classes (40% positive).

    Shaped like the spam e-mail set: each class has its own per-feature
    scale and share of nonzero entries, drawn once from a fixed stream.
    """
    profile = np.random.default_rng(20130923)
    scale = profile.gamma(1.0, 1.0, size=(2, n))
    density = 0.2 + 0.5 * profile.random((2, n))
    labels = (rng.random(t) < 0.4).astype(int)
    X = rng.exponential(1.0, size=(t, n)) * scale[labels]
    X *= rng.random((t, n)) < density[labels]
    return Dataset("spamlike", X, labels, (0, 1))


def breast_like(rng, t, n):
    """Integer features in 1..10 in two classes (35% positive).

    Shaped like the breast cancer set: negatives sit near 1, positives
    spread over the whole range.
    """
    labels = (rng.random(t) < 0.35).astype(int)
    lam = np.where(labels[:, None] == 1, 5.5, 0.6)
    X = np.clip(1 + rng.poisson(lam, size=(t, n)), 1, 10).astype(float)
    return Dataset("breastlike", X, labels, (0, 1))


def write_csv(ds, path):
    """Features then label, one row per point; floats round-trip exactly."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        for row, label in zip(ds.X, ds.labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{label}\n")
    return path


@dataclass
class CellOutcome:
    """One cell of a pass; ``status`` is ok, timeout or error."""

    name: str
    model: str
    status: str
    error: str = ""
    obj_mean: float = math.nan
    acc_mean: float = math.nan
    reference: float = math.nan  # best alt-hard objective on the same data
    cert: float = math.nan
    tol: float = math.nan
    m_sha256: str = ""
    stop: str = ""


@dataclass
class PassResult:
    """A timed pass; ``finish`` turns ``raw`` into outcomes, checks and a CSV."""

    wall: float
    raw: list  # capped() results: (status, value, error, seconds)
    cell_s: dict  # cell or CLI call -> seconds
    outcomes: list = field(default_factory=list)  # CellOutcome
    csv: bytes = b""
    checks: list = field(default_factory=list)  # (name, passed, detail)


def certificate(solution, X, config):
    """(certificate, tolerance) read from public result fields.

    GCG: the duality gap against ``tol``.  ADMM: max(primal, dual) of the
    last iteration against ``admm_tol * sqrt(t)``, the solver's own rule.
    """
    if solution.model == "cond-jc":
        last = solution.trace[-1]
        return max(last["primal"], last["dual"]), config.admm_tol * math.sqrt(X.shape[0])
    return float(solution.auxiliaries["gap"]), config.tol


def stop_reason(solution, X, config):
    cert, tol = certificate(solution, X, config)
    if cert < tol:
        return "certified"
    if solution.iterations >= config.max_iter:
        return "max_iter"
    return "stall"


def m_digest(M):
    return hashlib.sha256(np.ascontiguousarray(M, dtype=float).tobytes()).hexdigest()


@dataclass
class Solved:
    """A relaxation solution with the prepared data and config it was solved on."""

    solution: models.RelaxationSolution
    X: np.ndarray
    config: models.ModelConfig


def keeping_solutions(fn, *args):
    """(fn(*args), [Solved]) with every ``bench.solve_relaxation`` call inside kept.

    The program's own call goes through; the wrapper only holds on to the
    solution that ``run_experiment`` would otherwise drop.
    """
    solved = []
    original = bench.solve_relaxation

    def keep(model, X, config):
        solution = original(model, X, config)
        solved.append(Solved(solution, X, config))
        return solution

    bench.solve_relaxation = keep
    try:
        return fn(*args), solved
    finally:
        bench.solve_relaxation = original


def capped(deadline, fn, *args):
    """fn(*args) under min(CELL_CAP_S, time to deadline).

    Returns (status, value, error, seconds).
    """
    start = time.perf_counter()
    try:
        with wall_cap(min(CELL_CAP_S, deadline - time.monotonic())):
            value = fn(*args)
    except CellTimeout:
        return "timeout", None, "wall-clock cap", time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001  (a failing cell is counted, not fatal)
        return "error", None, f"{type(exc).__name__}: {exc}", time.perf_counter() - start
    return "ok", value, "", time.perf_counter() - start


def alt_hard_best(X, config):
    cfg = models.ModelConfig(d=config.d, family=config.family)
    return models.alternating_hard(X, cfg).objective


def reference(result, name, deadline, X, config):
    """Best alt-hard objective on X, capped; a timeout or error fails a check."""
    status, value, error, _ = capped(deadline, alt_hard_best, X, config)
    result.checks.append((f"{name}: alt-hard reference ran", status == "ok",
                          f"{status}: {error}"))
    return value if status == "ok" else math.nan


def relaxation_checks(name, solved, m_sha256):
    """Invariants of one solved cell as (name, passed, detail) triples.

    ``m_sha256`` is the digest the program reported for the cell's M.
    """
    solution = solved.solution
    M = np.asarray(solution.M, dtype=float)
    finite = bool(np.all(np.isfinite(M)))
    checks = [(f"{name}: M finite", finite, "")]
    if finite:
        # ADMM's M and its symmetric twin Z differ by the primal residual,
        # so M may be asymmetric by twice that; GCG's recovered M is exact
        slack = 2.0 * solution.trace[-1]["primal"] if solution.model == "cond-jc" else 0.0
        asym = float(np.linalg.norm(M - M.T))
        bound = slack + 1e-8 * max(1.0, float(np.linalg.norm(M)))
        checks.append((f"{name}: M symmetric", asym <= bound,
                       f"asymmetry {asym:.3e} over {bound:.3e}"))
    if solution.model == "cond-jc":
        row_err = float(np.max(np.abs(M.sum(axis=1) - 1.0)))
        checks.append((f"{name}: M rows on the simplex",
                       row_err <= 1e-9 and float(M.min()) >= -1e-12,
                       f"row-sum error {row_err:.3e}, min {float(M.min()):.3e}"))
        report = check_membership(solution.auxiliaries["Z"], solved.config.d, "rowsum")
        checks.append((f"{name}: Z in the rowsum set", report.ok, str(report.violations)))
    checks.append((f"{name}: results.csv m_sha256 is the digest of the solved M",
                   m_sha256 == m_digest(M), ""))
    return checks


def certify(outcome, solved):
    outcome.cert, outcome.tol = certificate(solved.solution, solved.X, solved.config)
    outcome.stop = stop_reason(solved.solution, solved.X, solved.config)


def label_check(name, assignments, d, t):
    bad = [i for i, labels in enumerate(assignments)
           if labels.shape != (t,) or labels.min() < 0 or labels.max() >= d]
    return (f"{name}: labels in range", bool(assignments) and not bad, f"bad rows {bad}")


@dataclass
class CellSpec:
    """A relaxation cell: the dataset it reads and the model it runs."""

    dataset: str  # name of a dataset the workload writes
    model: str
    transfer: str
    max_iter: int


class RelaxationWorkload:
    """Relaxation cells over CSV files regenerated from the seed for every pass.

    ``make_data(seed, k, smoke)`` gives the datasets of pass ``k``;
    ``cells(smoke)`` the cells run on them.
    """

    def __init__(self, make_data, cells):
        self.make_data = make_data
        self.cells = cells

    def caps(self, specs):
        return {spec.cell_name(): spec.max_iter for spec in specs}

    def inputs(self, seed, k, smoke, out_dir):
        data_dir = out_dir / ("smoke" if smoke else "data")
        paths = {ds.name: write_csv(ds, data_dir / f"{ds.name}.csv")
                 for ds in self.make_data(seed, k, smoke)}
        return [bench.ExperimentSpec(dataset=str(paths[c.dataset]), model=c.model,
                                     transfer=c.transfer, max_iter=c.max_iter, seed=k)
                for c in self.cells(smoke)]

    def run_pass(self, specs, k, deadline):
        start = time.perf_counter()
        results = [capped(deadline, keeping_solutions, bench.run_experiment, spec)
                   for spec in specs]
        return PassResult(time.perf_counter() - start, results,
                          {s.cell_name(): r[3] for s, r in zip(specs, results)})

    def finish(self, specs, result, k, deadline):
        records = []
        for spec, (status, value, error, _) in zip(specs, result.raw):
            name = spec.cell_name()
            outcome = CellOutcome(name, spec.model, status, error)
            result.outcomes.append(outcome)
            if value is None:
                continue
            record, kept = value
            records.append(record)
            outcome.obj_mean, outcome.acc_mean = record.obj_mean, record.acc_mean
            outcome.m_sha256 = record.m_sha256
            result.checks.append(label_check(name, record.assignments, record.clusters,
                                             record.t))
            result.checks.append((f"{name}: one solution kept", len(kept) == 1,
                                  f"{len(kept)} solutions"))
            if len(kept) != 1:
                continue
            solved = kept[0]
            certify(outcome, solved)
            outcome.reference = reference(result, name, deadline, solved.X, solved.config)
            result.checks.extend(relaxation_checks(name, solved, record.m_sha256))
        result.csv = bench.emit_table(records, "csv").encode()
        result.raw = None  # frees the solutions, so peak RSS does not grow with the passes


def admm_data(seed, k, smoke):
    t, n = (12, 4) if smoke else (60, 8)
    return [planted(stream_rng(seed, 0, k), t, n)]


def admm_cells(smoke):
    cap = 20 if smoke else 1000
    return [CellSpec("planted", "cond-jc", "linear", cap),
            CellSpec("planted", "cond-jc", "sigmoid", cap)]


def gcg_data(seed, k, smoke):
    t, n, shape = (12, 4, (40, 6)) if smoke else (60, 8, (1000, 57))
    return [planted(stream_rng(seed, 2, k), t, n), spam_like(stream_rng(seed, 1, k), *shape)]


def gcg_cells(smoke):
    # joint and disc never certify at these sizes; their caps belong to the
    # workload, are the same on every commit, and a capped cell is uncertified
    caps = (5, 5, 0) if smoke else (1000, 100, 2)
    return [CellSpec("spamlike", "cond", "linear", caps[0]),
            CellSpec("planted", "joint", "linear", caps[1]),
            CellSpec("planted", "disc", "sigmoid", caps[2])]


@dataclass
class PipelineInputs:
    paths: dict  # dataset name -> CSV path
    config: Path
    out: Path


class PipelineWorkload:
    """``bregrelax bench`` over CSV stand-ins shaped like breast and spam.

    Pass ``k`` writes fresh CSV files from the seed and runs the CLI with
    master seed ``k``.
    """

    GRID_ROWS = 8  # 2 datasets x (alt-hard, soft-em) x (linear, sigmoid)

    def caps(self, inputs):
        return {"breastlike_cond_linear": bench.ExperimentSpec.max_iter}

    def inputs(self, seed, k, smoke, out_dir):
        shapes = ((30, 9), (40, 6)) if smoke else ((683, 9), (1000, 57))
        data_dir = out_dir / ("smoke" if smoke else "data")
        paths = {}
        for stream, make, shape in ((3, breast_like, shapes[0]), (4, spam_like, shapes[1])):
            ds = make(stream_rng(seed, stream, k), *shape)
            paths[ds.name] = write_csv(ds, data_dir / f"{ds.name}.csv")
        config = data_dir / "grid.cfg"
        config.write_text(
            f"dataset = {paths['breastlike']}, {paths['spamlike']}\n"
            "model = alt-hard, soft-em\ntransfer = linear, sigmoid\n"
        )
        return PipelineInputs(paths, config, data_dir / "runs")

    def runs(self, inputs, k):
        """The CLI calls of one pass: (argv, output directory, expected rows)."""
        grid = ["bench", "--config", str(inputs.config),
                "--out", str(inputs.out / "grid"), "--seed", str(k)]
        cond = ["bench", "--data", str(inputs.paths["breastlike"]), "--model", "cond",
                "--transfer", "linear", "--out", str(inputs.out / "cond"), "--seed", str(k)]
        return ((grid, inputs.out / "grid", self.GRID_ROWS),
                (cond, inputs.out / "cond", 1))

    def run_pass(self, inputs, k, deadline):
        start = time.perf_counter()
        runs = self.runs(inputs, k)
        results = [capped(deadline, keeping_solutions, quiet_cli, argv) for argv, _, _ in runs]
        return PassResult(time.perf_counter() - start, results,
                          {" ".join(argv[:2]): r[3] for (argv, _, _), r in zip(runs, results)})

    def finish(self, inputs, result, k, deadline):
        """Read back the CLI's outputs and check them against the solutions it computed."""
        texts, keyed, best = [], [], {}
        for (argv, out, rows), (status, value, error, _) in zip(self.runs(inputs, k),
                                                                result.raw):
            name = " ".join(argv[:2])
            if status == "ok" and value[0] != 0:
                status, error = "error", f"exit code {value[0]}"
            if status != "ok":
                result.outcomes.append(CellOutcome(name, "cli", status, error))
                continue
            solved = value[1]
            text = (out / "results.csv").read_bytes()
            texts.append(text)
            table = list(csv.DictReader(io.StringIO(text.decode())))
            failed = "FAILED" in (out / "run.log").read_text()
            result.checks.append((f"{name}: every cell ran", len(table) == rows and not failed,
                                  f"{len(table)} of {rows} rows"))
            # each call holds at most one relaxation cell, so rows and kept
            # solutions pair up in order
            relaxed = [row for row in table if row["model"] in models.RELAXATION_MODELS]
            result.checks.append((f"{name}: one solution kept per relaxation row",
                                  len(solved) == len(relaxed) <= 1, f"{len(solved)} solutions"))
            by_name = {}
            for row in table:
                key = row["dataset"], row["transfer"]
                outcome = CellOutcome(
                    f"{key[0]}_{row['model']}_{key[1]}", row["model"], "ok",
                    obj_mean=float(row["obj_mean"]), acc_mean=float(row["acc_mean"]),
                    m_sha256=row["m_sha256"],
                )
                result.outcomes.append(outcome)
                keyed.append((outcome, key))
                by_name[outcome.name] = outcome
                labels = read_assignments(out / "cells" / row["assignment_file"])
                result.checks.append(label_check(outcome.name, labels,
                                                 int(row["clusters"]), int(row["t"])))
                if row["model"] == "alt-hard":
                    # the best of the CLI's own alt-hard restarts is the reference
                    X = bench.preprocess(bench.load_dataset(inputs.paths[key[0]]), key[1]).X
                    best[key] = min(bench.cond_objective(X, y, bench.transfer_family(key[1]))
                                    for y in labels)
            for row, one in zip(relaxed, solved):
                outcome = by_name[f"{row['dataset']}_{row['model']}_{row['transfer']}"]
                certify(outcome, one)
                result.checks.extend(relaxation_checks(outcome.name, one, outcome.m_sha256))
        for outcome, key in keyed:
            outcome.reference = best.get(key, math.nan)
        result.raw = None
        result.csv = b"".join(texts)


def quiet_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def read_assignments(path):
    with open(path) as fh:
        return [np.array([int(v) for v in line.split(",")]) for line in fh if line.strip()]


WORKLOADS = {
    "admm-planted": RelaxationWorkload(admm_data, admm_cells),
    "gcg-mixed": RelaxationWorkload(gcg_data, gcg_cells),
    "pipeline-paper": PipelineWorkload(),
}
