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

import numpy as np

from . import bench
from .models import MODELS, RELAXATION_MODELS, alternating_hard, soft_em, solve_relaxation
from .rounding import matched_accuracy

GRID_KEYS = ("dataset", "model", "transfer")
SCALAR_KEYS = {
    "label_column": str,
    "delimiter": str,
    "name": str,
    "clusters": int,
    "alpha": float,
    "beta": float,
    "gamma": float,
    "seed": int,
    "restarts": int,
    "subsample": int,
    "tol": float,
    "admm_tol": float,
    "max_iter": int,
    "out": str,
}


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
        if key in GRID_KEYS:
            values[key] = [v.strip() for v in val.split(",") if v.strip()]
        elif key in SCALAR_KEYS:
            values[key] = SCALAR_KEYS[key](val)
        else:
            raise ValueError(f"{path}: line {ln}: unknown key {key!r}")
    return values


def _label_column(value):
    if value is None:
        return -1
    try:
        return int(value)
    except (TypeError, ValueError):
        return value


def _common_flags(p, with_model=True):
    p.add_argument("--data", help="dataset file (delimited numeric text)")
    p.add_argument("--label-col", default=None, help="label column index or name")
    p.add_argument("--delimiter", default=None)
    p.add_argument("--name", default=None, help="dataset display name")
    if with_model:
        p.add_argument("--model", choices=MODELS)
    p.add_argument("--transfer", choices=bench.TRANSFERS, default=None)
    p.add_argument("--clusters", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--restarts", type=int, default=None,
                   help="rounding repeats (relaxations) or baseline restarts")
    p.add_argument("--subsample", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--admm-tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bregrelax",
        description="Convex-relaxation clustering models and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one model on one dataset")
    _common_flags(p_solve)

    p_bench = sub.add_parser("bench", help="run a model x transfer x dataset grid")
    p_bench.add_argument("--config", action="append", default=[],
                         help="key=value config file; repeatable")
    _common_flags(p_bench)

    p_score = sub.add_parser("score", help="recompute stats from saved assignments")
    p_score.add_argument("--assignments", required=True)
    _common_flags(p_score, with_model=False)

    p_table = sub.add_parser("table", help="render a results CSV as aligned text")
    p_table.add_argument("--records", required=True, help="results CSV from bench")
    p_table.add_argument("--out", default=None, help="output text file")
    return parser


def _spec_kwargs(args, config):
    """Merge config-file values with flag overrides into spec kwargs."""
    def pick(flag, key, cast=None):
        v = getattr(args, flag, None)
        if v is None:
            v = config.get(key)
        if v is not None and cast is not None:
            v = cast(v)
        return v

    kw = {}
    for flag, key, cast in (
        ("label_col", "label_column", _label_column),
        ("delimiter", "delimiter", None),
        ("name", "name", None),
        ("clusters", "clusters", int),
        ("alpha", "alpha", float),
        ("beta", "beta", float),
        ("gamma", "gamma", float),
        ("seed", "seed", int),
        ("subsample", "subsample", int),
        ("tol", "tol", float),
        ("admm_tol", "admm_tol", float),
        ("max_iter", "max_iter", int),
        ("out", "out", None),
    ):
        v = pick(flag, key, cast)
        if v is not None:
            kw["d" if key == "clusters" else key] = v
    restarts = pick("restarts", "restarts", int)
    return kw, restarts


def _make_spec(dataset, model, transfer, kw, restarts):
    spec_kw = dict(kw)
    if restarts is not None:
        if model in RELAXATION_MODELS:
            spec_kw["rounding_restarts"] = restarts
        else:
            spec_kw["baseline_restarts"] = restarts
    return bench.ExperimentSpec(dataset=dataset, model=model,
                                transfer=transfer or "linear", **spec_kw)


def cmd_solve(args):
    kw, restarts = _spec_kwargs(args, {})
    if not args.data or not args.model:
        raise SystemExit("solve requires --data and --model")
    out = kw.pop("out", None)
    spec = _make_spec(args.data, args.model, args.transfer, kw, restarts)
    ds, cfg = bench.prepare(spec)
    summary = {"dataset": ds.name, "t": ds.t, "n": ds.n, "model": spec.model,
               "transfer": spec.transfer, "clusters": cfg.d}
    if spec.model in RELAXATION_MODELS:
        sol = solve_relaxation(spec.model, ds.X, cfg)
        summary.update(objective=sol.objective, converged=sol.converged,
                       iterations=sol.iterations)
        if out:
            out_dir = Path(out)
            out_dir.mkdir(parents=True, exist_ok=True)
            arrays = {"M": sol.M}
            arrays.update({k: v for k, v in sol.auxiliaries.items()
                           if isinstance(v, np.ndarray)})
            np.savez(out_dir / f"{spec.cell_name()}_solution.npz", **arrays)
            bench.write_cell_files(out_dir, spec.cell_name(), trace=sol.trace)
            summary["out"] = str(out_dir)
    else:
        if spec.model == "alt-hard":
            res = alternating_hard(ds.X, cfg)
            labels = res.labels
            objective = res.objective
        else:
            res = soft_em(ds.X, cfg)
            labels = res.posteriors.argmax(axis=1)
            objective = res.loglik
        acc, _ = matched_accuracy(labels, ds.labels)
        summary.update(objective=objective, accuracy=acc, restarts=cfg.restarts)
        if out:
            bench.write_cell_files(out, spec.cell_name(), assignments=[labels])
            summary["out"] = str(Path(out))
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_bench(args):
    config = {}
    for path in args.config:
        config.update(read_config(path))
    kw, restarts = _spec_kwargs(args, config)
    out = kw.pop("out", None) or "bench_out"
    datasets = [args.data] if args.data else config.get("dataset", [])
    models = [args.model] if args.model else config.get("model", list(MODELS))
    transfers = ([args.transfer] if args.transfer
                 else config.get("transfer", ["linear"]))
    if not datasets:
        raise SystemExit("bench requires --data or a config with dataset=")
    specs = []
    for dataset in datasets:
        for model in models:
            for transfer in transfers:
                if model == "disc" and transfer != "sigmoid":
                    continue
                spec = _make_spec(dataset, model, transfer, kw, restarts)
                spec.out = str(Path(out) / "cells")
                specs.append(spec)
    records, failures = bench.run_grid(specs)
    out_dir = Path(out)
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
    stats = bench.score_assignments(
        args.data,
        args.assignments,
        transfer=args.transfer or "linear",
        label_column=_label_column(args.label_col),
        delimiter=args.delimiter,
        subsample=args.subsample,
        seed=args.seed or 0,
    )
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
    args = build_parser().parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "bench": cmd_bench,
        "score": cmd_score,
        "table": cmd_table,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
