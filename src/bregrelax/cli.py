"""Command line front end: solve, bench, score, table.

Configuration may come from line-oriented key=value files (``--config``),
with comma-separated values expanding into grid axes for dataset, model,
and transfer; explicit flags override file values.  All randomness flows
from one master seed.
"""

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import bench
from .models import MODELS


def _label_column(value):
    try:
        return int(value)
    except ValueError:
        return value


class Knob(NamedTuple):
    flag: str
    type: Callable = str
    help: Optional[str] = None
    choices: Optional[tuple] = None


# Every cell knob by its config-file key, which is also the flag's dest and
# the ExperimentSpec field it sets.  In config files the grid keys take
# comma-separated lists.
KNOBS = {
    "dataset": Knob("--data", help="dataset file (delimited numeric text)"),
    "model": Knob("--model", choices=MODELS),
    "transfer": Knob("--transfer", choices=bench.TRANSFERS, help="default: linear"),
    "label_column": Knob("--label-col", _label_column, "label column index or name"),
    "delimiter": Knob("--delimiter", help="field delimiter (default: comma or whitespace)"),
    "name": Knob("--name", help="dataset display name"),
    "clusters": Knob("--clusters", int, "cluster count (default: the class count)"),
    "alpha": Knob("--alpha", float, "cluster-norm weight of cond and joint's T block"),
    "beta": Knob("--beta", float, "cluster-norm weight of joint's prior block"),
    "gamma": Knob("--gamma", float, "cluster-norm weight of disc"),
    "seed": Knob("--seed", int, "master seed"),
    "restarts": Knob("--restarts", int, "rounding repeats of a relaxation (default 10) or "
                     "restarts of alt-hard (30) and soft-em (20)"),
    "subsample": Knob("--subsample", int, "class-proportional subsample size"),
    "tol": Knob("--tol", float, "duality-gap tolerance of cond, disc and joint"),
    "admm_tol": Knob("--admm-tol", float, "ADMM residual tolerance (scaled by sqrt(t))"),
    "max_iter": Knob("--max-iter", int, "solver iteration cap"),
    "out": Knob("--out", help="output directory"),
}
GRID_KEYS = ("dataset", "model", "transfer")
# the knobs that change what score loads; it takes no others
SCORE_KNOBS = ("dataset", "label_column", "delimiter", "transfer", "subsample", "seed")


def read_config(path):
    """Parse a key=value config file; '#' starts a comment."""
    values = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {ln}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in KNOBS:
            raise ValueError(f"{path}: line {ln}: unknown key {key!r}")
        if key in GRID_KEYS:
            values[key] = [v.strip() for v in val.split(",") if v.strip()]
        else:
            values[key] = KNOBS[key].type(val)
    return values


def _add_knobs(p, keys=KNOBS):
    for key in keys:
        knob = KNOBS[key]
        p.add_argument(knob.flag, dest=key, type=knob.type, choices=knob.choices,
                       help=knob.help)


def _flags(args):
    """The knobs given as flags: {config key: value}."""
    return {key: v for key, v in vars(args).items() if key in KNOBS and v is not None}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bregrelax",
        description="Convex-relaxation clustering models and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one model on one dataset")
    _add_knobs(p_solve)

    p_bench = sub.add_parser("bench", help="run a model x transfer x dataset grid")
    p_bench.add_argument("--config", action="append", default=[],
                         help="key=value config file; repeatable")
    _add_knobs(p_bench)

    p_score = sub.add_parser("score", help="recompute stats from saved assignments")
    p_score.add_argument("--assignments", required=True)
    _add_knobs(p_score, SCORE_KNOBS)

    p_table = sub.add_parser("table", help="render a results CSV as aligned text")
    p_table.add_argument("--records", required=True, help="results CSV from bench")
    p_table.add_argument("--out", default=None, help="output text file")
    return parser


def _bench_grid(args):
    """(output directory, cell specs) of a bench run.

    Flags override config-file values knob by knob; the grid is every
    dataset x model x transfer, without disc off the sigmoid transfer.  A
    grid left with no cell is an error.
    """
    values = {}
    for path in args.config:
        values.update(read_config(path))
    values.update({key: [v] if key in GRID_KEYS else v for key, v in _flags(args).items()})
    out = Path(values.pop("out", None) or "bench_out")
    datasets = values.pop("dataset", [])
    if not datasets:
        raise SystemExit("bench requires --data or a config with dataset=")
    models = values.pop("model", MODELS)
    transfers = values.pop("transfer", ["linear"])
    specs = [
        bench.ExperimentSpec(**values, dataset=dataset, model=model, transfer=transfer,
                             out=str(out / "cells"))
        for dataset in datasets
        for model in models
        for transfer in transfers
        if model != "disc" or transfer == "sigmoid"
    ]
    if not specs:
        raise SystemExit("bench grid has no cells: disc runs on the sigmoid transfer only")
    return out, specs


def cmd_solve(args):
    values = _flags(args)
    if "dataset" not in values or "model" not in values:
        raise SystemExit("solve requires --data and --model")
    spec = bench.ExperimentSpec(**values)
    record, solution = bench.run_cell(spec)
    summary = {column: getattr(record, column) for column in bench.CSV_COLUMNS}
    if solution is not None:
        summary.update(objective=solution.objective, converged=solution.converged)
        if spec.out:
            arrays = {k: v for k, v in solution.auxiliaries.items() if isinstance(v, np.ndarray)}
            np.savez(Path(spec.out) / f"{spec.cell_name()}_solution.npz", M=solution.M, **arrays)
    if spec.out:
        summary["out"] = spec.out
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_bench(args):
    out_dir, specs = _bench_grid(args)
    records, failures = bench.run_grid(specs)
    out_dir.mkdir(parents=True, exist_ok=True)
    bench.emit_table(records, "csv", out_dir / "results.csv")
    bench.emit_table(records, "text", out_dir / "results.txt")
    with open(out_dir / "run.log", "w", newline="\n") as fh:
        for r in records:
            fh.write(f"{r.dataset} {r.model} {r.transfer} "
                     f"seconds={r.seconds:.3f} iterations={r.iterations}\n")
        for spec, message in failures:
            fh.write(f"FAILED {spec.cell_name()}: {message}\n")
    for spec, message in failures:
        print(f"FAILED {spec.cell_name()}: {message}", file=sys.stderr)
    print(f"{len(records)} cells -> {out_dir / 'results.csv'}"
          + (f" ({len(failures)} failed)" if failures else ""))
    return 1 if failures and not records else 0


def cmd_score(args):
    values = _flags(args)
    if "dataset" not in values:
        raise SystemExit("score requires --data")
    stats = bench.score_assignments(values.pop("dataset"), args.assignments, **values)
    print(json.dumps(stats, sort_keys=True))
    return 0


def cmd_table(args):
    with open(args.records, newline="") as fh:
        records = [bench.ResultRecord.from_row(row) for row in csv.DictReader(fh)]
    text = bench.emit_table(records, "text", args.out)
    if not args.out:
        print(text, end="")
    return 0


def main(argv=None):
    """Run one command.  Bad input (a ValueError, such as a ParseError or
    DomainError, or an OSError) exits with status 1 and a one-line message."""
    args = build_parser().parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "bench": cmd_bench,
        "score": cmd_score,
        "table": cmd_table,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"bregrelax {args.command}: {exc}") from exc


if __name__ == "__main__":
    raise SystemExit(main())
