"""Dataset ingestion, experiment grids, and result tables.

The benchmark protocol mirrors the evaluation recipe the models were built
for: preprocess features per transfer function, solve the chosen model,
round the relaxation with spectral clustering several times, polish each
rounding with the matching hard reoptimizer, and report mean +/- std of
the hard objective and matched accuracy.  Baselines skip the solve/round
stages and aggregate across their own restarts.

Everything is deterministic under a master seed: component seeds are
derived with spawn keys, assignments are persisted as integer CSV rows,
and result CSVs exclude volatile fields (wall-clock goes to the run log)
so repeated runs are byte-identical.
"""

import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .divergences import family, pairwise_divergence, softmax_rows
from .models import (
    MODELS,
    RELAXATION_MODELS,
    ModelConfig,
    alternating_restarts,
    cond_objective,
    derived_rng,
    soft_em_restarts,
    solve_relaxation,
)
from .rounding import (
    hard_reopt,
    joint_hard_reopt,
    matched_accuracy,
    soft_accuracy,
    spectral_embedding,
    spectral_round,
)

TRANSFERS = ("linear", "sigmoid")
SQUASH_LO = 0.01
SQUASH_HI = 0.99


def transfer_family(transfer):
    """Map a transfer-function name to its divergence family."""
    table = {"linear": "euclidean", "sigmoid": "bernoulli"}
    if transfer not in table:
        raise ValueError(f"unknown transfer {transfer!r}; pick from {TRANSFERS}")
    return table[transfer]


@dataclass
class Dataset:
    name: str
    X: np.ndarray
    labels: np.ndarray
    classes: tuple

    @property
    def t(self):
        return self.X.shape[0]

    @property
    def n(self):
        return self.X.shape[1]

    @property
    def n_classes(self):
        return len(self.classes)


class ParseError(ValueError):
    pass


def load_dataset(path, label_column=-1, delimiter=None, name=None):
    """Parse a delimited numeric file with one label column.

    The delimiter defaults to comma when the first line contains one,
    otherwise whitespace.  A first row whose cells are all non-numeric is
    taken as a header, enabling label selection by column name.  Ragged
    rows and non-numeric feature cells raise ParseError with the 1-based
    line number.
    """
    path = Path(path)
    raw = [
        (i + 1, line.strip())
        for i, line in enumerate(path.read_text().splitlines())
        if line.strip()
    ]
    if not raw:
        raise ParseError(f"{path}: empty file")
    if delimiter is None and "," in raw[0][1]:
        delimiter = ","
    rows = [(ln, text.split(delimiter) if delimiter else text.split()) for ln, text in raw]

    def numeric(cell):
        try:
            float(cell)
            return True
        except ValueError:
            return False

    header = None
    if not any(numeric(c) for c in rows[0][1]):
        header = [c.strip() for c in rows[0][1]]
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: header but no data rows")
    width = len(rows[0][1])
    if isinstance(label_column, str):
        if header is None:
            raise ParseError(f"{path}: label column {label_column!r} needs a header")
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise ParseError(f"{path}: no column named {label_column!r}") from None
    else:
        label_idx = int(label_column)
        if not -width <= label_idx < width:
            raise ParseError(f"{path}: label column {label_idx} is outside a {width}-column file")
        label_idx %= width

    try:  # numpy converts each cell with float(); a failure rescans to name the first bad line
        if any(len(cells) != width for _, cells in rows):
            raise ValueError("ragged rows")
        X = np.array([cells[:label_idx] + cells[label_idx + 1:] for _, cells in rows], dtype=float)
    except ValueError:
        for ln, cells in rows:
            where = f"{path}: line {ln}"
            bad = [j for j, cell in enumerate(cells) if j != label_idx and not numeric(cell)]
            if len(cells) != width:
                raise ParseError(f"{where}: expected {width} fields, got {len(cells)}") from None
            if bad:
                raise ParseError(f"{where}, column {bad[0] + 1}: non-numeric value "
                                 f"{cells[bad[0]].strip()!r}") from None
        raise
    labels = [cells[label_idx].strip() for _, cells in rows]
    classes, codes = np.unique(labels, return_inverse=True)
    return Dataset(
        name=name or path.stem,
        X=X,
        labels=codes.astype(int),
        classes=tuple(classes.tolist()),
    )


def preprocess(ds, transfer="linear"):
    """Shift features to min 0 and scale to unit variance.

    The sigmoid path additionally squashes each feature affinely into
    [0.01, 0.99] so the bernoulli domain is respected; constant features
    land on the interval midpoint.  The linear path is idempotent.
    """
    transfer_family(transfer)
    X = ds.X - ds.X.min(axis=0)
    std = X.std(axis=0)
    live = std > 0
    X[:, live] /= std[live]
    if transfer == "sigmoid":
        hi = X.max(axis=0)
        pos = hi > 0
        X[:, pos] = SQUASH_LO + (SQUASH_HI - SQUASH_LO) * X[:, pos] / hi[pos]
        X[:, ~pos] = 0.5 * (SQUASH_LO + SQUASH_HI)
    return replace(ds, X=X)


def stratified_subsample(ds, target, seed=0):
    """Deterministic per-class proportional subsample (largest remainder)."""
    t = ds.t
    if target > t:
        raise ValueError(f"target {target} exceeds dataset size {t}")
    if target == t:
        return ds
    if target < ds.n_classes:
        raise ValueError(f"target {target} is smaller than the class count {ds.n_classes}")
    counts = np.bincount(ds.labels, minlength=ds.n_classes)
    quota = target * counts / t
    base = np.floor(quota).astype(int)
    frac = quota - base
    # distribute the remainder by largest fraction, ties broken by class id
    order = np.lexsort((np.arange(len(frac)), -frac))
    for k in order[: target - base.sum()]:
        base[k] += 1
    rng = derived_rng(seed, 3)
    keep = []
    for k, m in enumerate(base):
        idx = np.flatnonzero(ds.labels == k)
        if m > 0:
            keep.append(rng.choice(idx, size=m, replace=False))
    keep = np.sort(np.concatenate(keep))
    return replace(ds, X=ds.X[keep].copy(), labels=ds.labels[keep].copy())


@dataclass
class ExperimentSpec:
    """One benchmark cell: dataset x model x transfer plus its knobs.

    The fields are the CLI's knobs (``cli.KNOBS``) under the same names.
    ``restarts`` counts the rounding repeats of a relaxation (default 10)
    or a baseline's own restarts (default 30 for alt-hard, 20 for soft-em).
    """

    dataset: str
    model: str
    transfer: str = "linear"
    label_column: object = -1
    delimiter: Optional[str] = None
    name: Optional[str] = None
    clusters: Optional[int] = None
    alpha: float = ModelConfig.alpha
    beta: float = ModelConfig.beta
    gamma: float = ModelConfig.gamma
    seed: int = ModelConfig.seed
    restarts: Optional[int] = None
    subsample: Optional[int] = None
    tol: float = ModelConfig.tol
    admm_tol: float = ModelConfig.admm_tol
    max_iter: int = ModelConfig.max_iter
    out: Optional[str] = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; pick from {MODELS}")
        transfer_family(self.transfer)
        if self.model == "disc" and self.transfer != "sigmoid":
            raise ValueError("disc model is defined for the sigmoid transfer only")
        if self.restarts is None:
            self.restarts = {"alt-hard": ModelConfig.restarts, "soft-em": 20}.get(self.model, 10)
        for name, least in (("restarts", 1), ("clusters", 2), ("subsample", 1)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")

    def cell_name(self):
        base = self.name or Path(self.dataset).stem
        return f"{base}_{self.model}_{self.transfer}"


@dataclass
class ResultRecord:
    dataset: str
    t: int
    n: int
    model: str
    transfer: str
    clusters: int
    alpha: float
    beta: float
    gamma: float
    seed: int
    obj_mean: float
    obj_std: float
    acc_mean: float
    acc_std: float
    soft_mean: Optional[float] = None
    soft_std: Optional[float] = None
    iterations: int = 0
    seconds: float = 0.0
    assignment_file: str = ""
    m_sha256: str = ""
    trace: list = field(default_factory=list)
    assignments: list = field(default_factory=list)

    def sort_key(self):
        return (self.dataset, MODELS.index(self.model), self.transfer)

    @classmethod
    def from_row(cls, row):
        """Rebuild a record from one parsed results.csv row (CSV_COLUMNS).

        Empty numeric cells (soft scores of models without them) read as
        None; fields outside the CSV keep their defaults.
        """
        types = {f.name: f.type for f in fields(cls)}

        def parse(column):
            text = row[column]
            if types[column] in (int, str):
                return types[column](text)
            return float(text) if text else None

        return cls(**{column: parse(column) for column in CSV_COLUMNS})


# results.csv holds every record field but the volatile wall-clock and the
# per-cell arrays, which go to run.log and the cell files
CSV_COLUMNS = tuple(
    f.name for f in fields(ResultRecord) if f.name not in ("seconds", "trace", "assignments")
)


def _joint_posteriors(X, result, fam):
    return softmax_rows(result.weights[None, :] - pairwise_divergence(fam, X, result.centers))[1]


def _prepared(ds, transfer, subsample, seed):
    """Subsample (when ``subsample`` is set) and preprocess copies of ``ds``."""
    if subsample is not None:
        if subsample < 1:
            raise ValueError(f"subsample must be at least 1, got {subsample}")
        ds = stratified_subsample(ds, subsample, seed)
    return preprocess(ds, transfer)


# the knobs an ExperimentSpec passes to ModelConfig under their own name
_SHARED_KNOBS = {f.name for f in fields(ModelConfig)} & {f.name for f in fields(ExperimentSpec)}


def _parse_key(spec):
    """The ``load_dataset`` arguments of a cell: cells sharing them share a parse."""
    return spec.dataset, spec.label_column, spec.delimiter, spec.name


def prepare(spec, parsed=None):
    """Load, subsample and preprocess a cell's dataset; build its ModelConfig.

    Returns (dataset, config).  ``parsed`` is the cell's parsed file, if
    the caller has it.  The cluster count defaults to the number of
    classes, and the divergence family follows the transfer.  More
    clusters than points raise ValueError.
    """
    if parsed is None:
        parsed = load_dataset(*_parse_key(spec))
    ds = _prepared(parsed, spec.transfer, spec.subsample, spec.seed)
    d = spec.clusters or ds.n_classes
    if d > ds.t:
        raise ValueError(f"clusters={d} exceeds the t={ds.t} points of {ds.name}")
    config = ModelConfig(
        d=d,
        family=transfer_family(spec.transfer),
        **{name: getattr(spec, name) for name in _SHARED_KNOBS},
    )
    return ds, config


def _summary(**samples):
    """ResultRecord's ``<name>_mean`` and ``<name>_std`` of each sample (None if empty)."""
    return {f"{name}_{stat}": float(reduce(values)) if values else None
            for name, values in samples.items()
            for stat, reduce in (("mean", np.mean), ("std", np.std))}


def run_cell(spec, parsed=None):
    """Execute one benchmark cell and aggregate its repeats.

    Relaxation models: solve, then round `restarts` times with
    derived seeds, re-optimize each rounding with the model's hard
    alternation, and score.  Baselines aggregate across their own restarts
    directly.  The cell's labelings are scored after the model branches in
    one ``cond_objective`` call, as ``score_assignments`` scores them, so
    ``score`` reproduces each statistic from the persisted assignments
    exactly.  For ``alt-hard`` that score is also Lloyd's own objective:
    ``cond_objective`` reads Lloyd's cost.  ``parsed`` goes to ``prepare``.
    Returns (record, solution); a baseline's solution is None.
    """
    ds, config = prepare(spec, parsed)
    fam = family(config.family)
    d = config.d
    X, truth = ds.X, ds.labels
    start = time.perf_counter()
    softs = []
    m_sha = ""
    trace = []
    solution = None

    if spec.model in RELAXATION_MODELS:
        solution = solve_relaxation(spec.model, X, config)
        iterations = solution.iterations
        trace = solution.trace
        m_sha = hashlib.sha256(np.ascontiguousarray(solution.M, dtype=float)).hexdigest()
        embedding = spectral_embedding(solution.M, d, solution.eigenpairs)
        assignments = []
        for r in range(spec.restarts):
            rounded = spectral_round(
                solution.M, d, restarts=1, rng=derived_rng(spec.seed, 2, r),
                embedding=embedding,
            )
            if spec.model == "joint":
                polished = joint_hard_reopt(X, rounded.labels, fam, d=d)
                softs.append(soft_accuracy(_joint_posteriors(X, polished, fam), truth))
            else:
                polished = hard_reopt(X, rounded.labels, fam, d=d)
            assignments.append(polished.labels)
    elif spec.model == "alt-hard":
        runs = alternating_restarts(X, config)
        assignments = [res.labels for res in runs]
        iterations = max(res.iterations for res in runs)
    else:  # soft-em
        runs = soft_em_restarts(X, config)
        assignments = [res.posteriors.argmax(axis=1) for res in runs]
        softs = [soft_accuracy(res.posteriors, truth) for res in runs]
        iterations = max(res.iterations for res in runs)

    objs = cond_objective(X, assignments, fam).tolist()
    accs = [matched_accuracy(labels, truth) for labels in assignments]
    seconds = time.perf_counter() - start
    record = ResultRecord(
        dataset=ds.name, t=ds.t, n=ds.n, model=spec.model, transfer=spec.transfer, clusters=d,
        alpha=spec.alpha, beta=spec.beta, gamma=spec.gamma, seed=spec.seed,
        **_summary(obj=objs, acc=accs, soft=softs),
        iterations=iterations,
        seconds=seconds,
        m_sha256=m_sha,
        trace=trace,
        assignments=[np.asarray(a, dtype=int) for a in assignments],
    )
    if spec.out:
        persist_cell(record, spec, Path(spec.out))
    return record, solution


def run_experiment(spec, parsed=None):
    """The record of ``run_cell``."""
    return run_cell(spec, parsed)[0]


def persist_cell(record, spec, out_dir):
    """Write a cell's assignment CSV and, if it has a trace, its trace JSONL.

    ``<cell>_assignments.csv`` holds one comma-separated label row per
    labeling; ``<cell>_trace.jsonl`` one sorted-key JSON object per trace
    entry.  Lines end in a bare newline on every platform.
    """
    cell = spec.cell_name()
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [np.asarray(labels, dtype=int) for labels in record.assignments]
    names = np.arange(max((row.max(initial=0) for row in rows), default=0) + 1).astype(str)
    with open(out_dir / f"{cell}_assignments.csv", "w", newline="\n") as fh:
        for row in rows:
            fh.write(",".join(names[row].tolist()) + "\n")
    if record.trace:
        with open(out_dir / f"{cell}_trace.jsonl", "w", newline="\n") as fh:
            for entry in record.trace:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
    record.assignment_file = f"{cell}_assignments.csv"


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_table(records, fmt="csv", path=None):
    """Render records as a deterministic CSV or an aligned text table.

    Wall-clock timings are deliberately left out: they vary between runs,
    and the CSV must be byte-identical under a fixed seed.
    """
    records = sorted(records, key=lambda r: r.sort_key())
    if fmt == "csv":
        text = _render_csv(records)
    elif fmt == "text":
        text = _render_text(records)
    else:
        raise ValueError(f"unknown table format {fmt!r}")
    if path is not None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    return text


def _render_csv(records):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([_fmt(getattr(r, c)) for c in CSV_COLUMNS])
    return buf.getvalue()


def _block_scale(value):
    if value == 0 or not np.isfinite(value):
        return 0
    return int(np.floor(np.log10(abs(value))))


def _render_text(records):
    lines = []
    width = 34
    for dataset in sorted({r.dataset for r in records}):
        block = [r for r in records if r.dataset == dataset]
        lines.append(dataset)
        lines.append("-" * max(len(dataset), 20))
        for r in block:
            k = _block_scale(r.obj_mean)
            scale = 10.0**k
            obj = f"{r.obj_mean / scale:.1f} +/- {r.obj_std / scale:.1f}"
            tag = f"(x10^{k})" if k else ""
            label = f"{r.model}/{r.transfer}"
            lines.append(f"  {label:<18} obj{tag:<8} {obj:>{width - 14}}")
            acc = f"{100 * r.acc_mean:.1f} +/- {100 * r.acc_std:.1f}"
            lines.append(f"  {'':<18} acc(%){'':<5} {acc:>{width - 14}}")
            if r.soft_mean is not None:
                soft = f"{100 * r.soft_mean:.1f} +/- {100 * r.soft_std:.1f}"
                lines.append(f"  {'':<18} soft(%){'':<4} {soft:>{width - 14}}")
        lines.append("")
    return "\n".join(lines) + ("\n" if lines else "")


def run_grid(specs):
    """Run every cell, collecting failures without stopping the grid.

    Each file is parsed once for all cells that read it alike.  Returns
    (records, failures) where failures are (spec, message) pairs.  Results
    are order-independent: records carry their own sort keys.
    """
    records, failures, parsed = [], [], {}
    for s in specs:
        key = _parse_key(s)
        try:
            if key not in parsed:
                parsed[key] = load_dataset(*key)
            records.append(run_experiment(s, parsed[key]))
        except Exception as exc:  # noqa: BLE001  (cell isolation)
            failures.append((s, f"{type(exc).__name__}: {exc}"))
    records.sort(key=lambda r: r.sort_key())
    return records, failures


def score_assignments(data_path, assignment_path, transfer="linear", label_column=-1,
                      delimiter=None, subsample=None, seed=0):
    """Recompute objective and accuracy statistics from persisted labels."""
    ds = _prepared(load_dataset(data_path, label_column, delimiter), transfer, subsample, seed)
    fam = transfer_family(transfer)
    rows = []
    with open(assignment_path) as fh:
        for ln, line in enumerate(fh, start=1):
            cells = line.strip().split(",")
            if cells == [""]:
                continue
            where = f"{assignment_path}: line {ln}"
            bad = [c.strip() for c in cells if not c.strip().isdecimal()]
            if bad:
                raise ParseError(f"{where}: label {bad[0]!r} is not a nonnegative integer")
            if len(cells) != ds.t:
                raise ValueError(f"{where}: row has {len(cells)} labels for {ds.t} points")
            rows.append(np.array([int(c) for c in cells], dtype=int))
    if not rows:
        raise ValueError(f"{assignment_path}: no assignment rows")
    return {
        "repeats": len(rows),
        **_summary(obj=cond_objective(ds.X, rows, fam).tolist(),
                   acc=[matched_accuracy(row, ds.labels) for row in rows]),
    }
