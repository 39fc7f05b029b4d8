"""Dataset handling, experiment execution, tables, and the CLI.

Every test synthesizes its own small delimited files under tmp_path; CLI
round-trips run in-process through main(argv).
"""

import csv
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from bregrelax import (
    cond_objective,
    matched_accuracy,
    ParseError,
    ExperimentSpec,
    emit_table,
    load_dataset,
    preprocess,
    ResultRecord,
    run_experiment,
    run_grid,
    score_assignments,
    stratified_subsample,
)
from bregrelax import bench
from bregrelax.bench import CSV_COLUMNS, TRANSFERS, persist_cell, prepare, transfer_family
from bregrelax.cli import KNOBS, _bench_grid, build_parser, main, read_config

from conftest import planted_euclidean


def write_blobs(path, t=16, d=2, seed=0, noise=0.4, header=True):
    rng = np.random.default_rng(seed)
    X, labels = planted_euclidean(t, d, rng, noise=noise)
    with open(path, "w") as fh:
        if header:
            fh.write("f0,f1,label\n")
        for row, lab in zip(X, labels):
            fh.write(f"{row[0]:.6f},{row[1]:.6f},c{lab}\n")
    return X, labels


# ------------------------------------------------------------------- loading


def test_load_dataset_toy_csv(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
    ds = load_dataset(p)
    assert ds.t == 3 and ds.n == 2
    assert ds.name == "toy"
    assert ds.classes == ("a", "b")
    assert ds.labels.tolist() == [0, 1, 0]
    assert np.allclose(ds.X, [[1, 2], [3, 4], [5, 6]])


def test_load_dataset_header_and_named_column(tmp_path):
    p = tmp_path / "named.csv"
    p.write_text("y,f0,f1\npos,1.0,2.0\nneg,3.0,4.0\n")
    ds = load_dataset(p, label_column="y")
    assert ds.classes == ("neg", "pos")
    assert np.allclose(ds.X, [[1, 2], [3, 4]])
    with pytest.raises(ParseError, match="no column named"):
        load_dataset(p, label_column="missing")


def test_load_dataset_named_column_requires_header(tmp_path):
    p = tmp_path / "plain.csv"
    p.write_text("1.0,2.0,a\n")
    with pytest.raises(ParseError, match="header"):
        load_dataset(p, label_column="y")


def test_load_dataset_whitespace_delimited(tmp_path):
    p = tmp_path / "ws.dat"
    p.write_text("1.0 2.0 0\n3.0 4.0 1\n")
    ds = load_dataset(p)
    assert ds.t == 2 and ds.n == 2 and ds.classes == ("0", "1")


def test_load_dataset_ragged_row(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("1.0,2.0,a\n3.0,b\n")
    with pytest.raises(ParseError, match="line 2"):
        load_dataset(p)


def test_load_dataset_non_numeric_cell(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0,2.0,a\noops,4.0,b\n")
    with pytest.raises(ParseError, match="line 2, column 1"):
        load_dataset(p)


def test_load_dataset_names_the_first_bad_line_in_file_order(tmp_path):
    # the features convert in one call; on failure the error still names the
    # first bad line, whether a wrong field count or a non-numeric cell
    p = tmp_path / "bad.csv"
    p.write_text("1.0,a,2.0\n3.0,b,x1\n3.0,b\n")
    with pytest.raises(ParseError, match=r"line 2, column 3: non-numeric value 'x1'$"):
        load_dataset(p, label_column=1)
    p.write_text("1.0,a,2.0\n3.0,b\n3.0,b,x1\n")
    with pytest.raises(ParseError, match=r"line 2: expected 3 fields, got 2$"):
        load_dataset(p, label_column=1)


def test_load_dataset_reads_every_cell_as_float_does(tmp_path):
    cells = [" 1.5", "1_0", "nan", "-infinity", "١٢", "1e400", "4.9e-324"]
    p = tmp_path / "spellings.csv"
    p.write_text(",".join(cells) + ",a\n" + ",".join(["0"] * len(cells)) + ",b\n")
    X = load_dataset(p).X
    assert np.array_equal(X[0], [float(c) for c in cells], equal_nan=True)
    assert X.dtype == float and X.flags.c_contiguous


@pytest.mark.parametrize("column", [3, 7, -4])
def test_load_dataset_rejects_label_column_out_of_range(tmp_path, column):
    p = tmp_path / "three.csv"
    p.write_text("1.0,2.0,0\n3.0,4.0,1\n")
    with pytest.raises(ParseError, match=f"label column {column} is outside a 3-column file"):
        load_dataset(p, label_column=column)
    assert load_dataset(p, label_column=-3).classes == ("1.0", "3.0")


def test_load_dataset_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("\n\n")
    with pytest.raises(ParseError, match="empty"):
        load_dataset(p)


# -------------------------------------------------------------- preprocessing


def test_preprocess_linear_contract(tmp_path):
    p = tmp_path / "blobs.csv"
    write_blobs(p)
    ds = load_dataset(p)
    out = preprocess(ds, "linear")
    assert np.allclose(out.X.min(axis=0), 0.0)
    assert np.allclose(out.X.std(axis=0), 1.0)
    twice = preprocess(out, "linear")
    assert np.max(np.abs(twice.X - out.X)) <= 1e-12  # idempotent


def test_preprocess_sigmoid_domain(tmp_path):
    p = tmp_path / "blobs.csv"
    write_blobs(p)
    ds = load_dataset(p)
    # add a constant feature: it must land on the interval midpoint
    ds.X[:, 1] = 7.0
    out = preprocess(ds, "sigmoid")
    assert out.X.min() >= 0.01 - 1e-12 and out.X.max() <= 0.99 + 1e-12
    assert np.allclose(out.X[:, 1], 0.5)


def test_transfer_family_mapping():
    assert transfer_family("linear") == "euclidean"
    assert transfer_family("sigmoid") == "bernoulli"
    with pytest.raises(ValueError, match="unknown transfer"):
        transfer_family("probit")


# ----------------------------------------------------------------- subsample


def _labeled_dataset(counts, tmp_path, name="mix.csv"):
    rows = []
    rng = np.random.default_rng(0)
    for cls, m in enumerate(counts):
        for _ in range(m):
            x = rng.normal(size=2)
            rows.append(f"{x[0]},{x[1]},{cls}")
    p = tmp_path / name
    p.write_text("\n".join(rows) + "\n")
    return load_dataset(p)


def test_subsample_identity(tmp_path):
    ds = _labeled_dataset([5, 5], tmp_path)
    assert stratified_subsample(ds, 10) is ds


def test_subsample_even_split(tmp_path):
    ds = _labeled_dataset([10, 10], tmp_path)
    sub = stratified_subsample(ds, 10)
    assert np.bincount(sub.labels).tolist() == [5, 5]


def test_subsample_proportional(tmp_path):
    ds = _labeled_dataset([60, 40], tmp_path)
    sub = stratified_subsample(ds, 10)
    assert np.bincount(sub.labels).tolist() == [6, 4]


def test_subsample_deterministic(tmp_path):
    ds = _labeled_dataset([30, 20], tmp_path)
    a = stratified_subsample(ds, 20, seed=5)
    b = stratified_subsample(ds, 20, seed=5)
    assert np.array_equal(a.X, b.X)


def test_subsample_validation(tmp_path):
    ds = _labeled_dataset([4, 4, 4], tmp_path)
    with pytest.raises(ValueError, match="exceeds"):
        stratified_subsample(ds, 13)
    with pytest.raises(ValueError, match="class count"):
        stratified_subsample(ds, 2)


# --------------------------------------------------------------- experiments


def test_run_experiment_alt_hard_planted(tmp_path):
    p = tmp_path / "blobs.csv"
    write_blobs(p)
    spec = ExperimentSpec(dataset=str(p), model="alt-hard", label_column="label",
                          restarts=5, seed=1)
    rec = run_experiment(spec)
    assert rec.t == 16 and rec.n == 2 and rec.clusters == 2
    assert rec.m_sha256 == ""  # baselines have no relaxation matrix
    # stats aggregate over restarts (restarts can hit local optima), but the
    # best restart by objective must recover the planted partition
    ds = preprocess(load_dataset(p, label_column="label"), "linear")
    objs = [cond_objective(ds.X, a) for a in rec.assignments]
    accs = [matched_accuracy(a, ds.labels) for a in rec.assignments]
    best = rec.assignments[int(np.argmin(objs))]
    assert matched_accuracy(best, ds.labels) == 1.0
    assert rec.obj_mean == pytest.approx(np.mean(objs), rel=1e-12)
    assert rec.acc_mean == pytest.approx(np.mean(accs), rel=1e-12)


def test_run_experiment_deterministic(tmp_path):
    p = tmp_path / "blobs.csv"
    write_blobs(p)
    spec = ExperimentSpec(dataset=str(p), model="soft-em", label_column="label",
                          restarts=4, seed=7)
    a, b = run_experiment(spec), run_experiment(spec)
    row_a = emit_table([a]).splitlines()[1]
    row_b = emit_table([b]).splitlines()[1]
    assert row_a == row_b
    assert all(np.array_equal(x, y) for x, y in zip(a.assignments, b.assignments))
    assert a.soft_mean is not None  # soft models report posterior accuracy


def test_run_experiment_relaxation_cell_roundtrip(tmp_path):
    p = tmp_path / "blobs.csv"
    write_blobs(p)
    out = tmp_path / "cells"
    spec = ExperimentSpec(dataset=str(p), model="cond-jc", label_column="label",
                          restarts=3, seed=2, out=str(out))
    rec = run_experiment(spec)
    assert rec.acc_mean == 1.0
    assert len(rec.m_sha256) == 64  # sha256 of the relaxation matrix
    # every reported number is recomputable from the persisted assignments
    stats = score_assignments(p, out / rec.assignment_file,
                              transfer="linear", label_column="label")
    assert stats["repeats"] == 3
    assert stats["obj_mean"] == rec.obj_mean
    assert stats["acc_mean"] == rec.acc_mean


@pytest.mark.parametrize("model, transfer", [
    ("cond-jc", "linear"), ("cond", "linear"), ("joint", "linear"), ("soft-em", "linear"),
    ("disc", "sigmoid"), ("alt-hard", "linear"),
])
def test_score_reproduces_run_experiment_statistics(tmp_path, model, transfer):
    # run_experiment and score share one scorer, so score recomputes each
    # statistic bit for bit from the persisted assignments
    p = tmp_path / "blobs.csv"
    write_blobs(p, noise=3.0)  # overlapping blobs, so repeats differ
    out = tmp_path / "cells"
    spec = ExperimentSpec(dataset=str(p), model=model, transfer=transfer, label_column="label",
                          restarts=4, seed=0, max_iter=2 if model == "disc" else 100,
                          out=str(out))
    rec = run_experiment(spec)
    stats = score_assignments(p, out / rec.assignment_file, transfer=transfer,
                              label_column="label")
    assert stats["repeats"] == 4
    assert (stats["acc_mean"], stats["acc_std"]) == (rec.acc_mean, rec.acc_std)
    assert (stats["obj_mean"], stats["obj_std"]) == (rec.obj_mean, rec.obj_std)


def test_run_grid_isolates_failures(tmp_path):
    p = tmp_path / "blobs.csv"
    write_blobs(p)
    good = ExperimentSpec(dataset=str(p), model="alt-hard", label_column="label",
                          restarts=3)
    bad = ExperimentSpec(dataset=str(tmp_path / "missing.csv"), model="alt-hard")
    records, failures = run_grid([good, bad])
    assert len(records) == 1 and len(failures) == 1
    assert failures[0][0] is bad and "missing" in failures[0][1]


def test_run_grid_parses_each_file_once(tmp_path, monkeypatch):
    # 2 files x 2 models x 2 transfers: one parse per file, and the same
    # results.csv bytes as running every cell on its own
    paths = [tmp_path / f"blobs{i}.csv" for i in range(2)]
    for i, p in enumerate(paths):
        write_blobs(p, seed=i, noise=1.0)
    specs = [ExperimentSpec(dataset=str(p), model=model, transfer=transfer,
                            label_column="label", restarts=3, seed=4, max_iter=50)
             for p in paths for model in ("cond", "alt-hard") for transfer in TRANSFERS]
    emit_table([run_experiment(s) for s in specs], "csv", tmp_path / "alone.csv")
    parses = []
    load = bench.load_dataset
    monkeypatch.setattr(bench, "load_dataset", lambda *a: parses.append(a) or load(*a))
    records, failures = run_grid(specs)
    assert failures == [] and len(records) == 8
    assert [a[0] for a in parses] == [str(p) for p in paths]
    emit_table(records, "csv", tmp_path / "grid.csv")
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


def test_run_grid_fails_every_cell_of_an_unparsable_file(tmp_path):
    bad = tmp_path / "ragged.csv"
    bad.write_text("1,2,0\n3,1\n")
    specs = [ExperimentSpec(dataset=str(bad), model=model) for model in ("alt-hard", "soft-em")]
    with pytest.raises(ParseError) as alone:
        run_experiment(specs[0])
    records, failures = run_grid(specs)
    assert records == []
    assert failures == [(s, f"ParseError: {alone.value}") for s in specs]
    assert "line 2: expected 3 fields, got 2" in failures[0][1]


@pytest.mark.parametrize("model, transfer, max_iter", [
    ("cond", "linear", 50), ("joint", "linear", 50), ("disc", "sigmoid", 2),
])
def test_gcg_cell_runs_no_t_by_t_eigendecomposition(tmp_path, monkeypatch, model, transfer,
                                                    max_iter):
    # the embedding reads the solution's eigenpairs; cond-jc, whose M has
    # no factor, shows that the guard would catch a dense eigh
    p = tmp_path / "blobs.csv"
    write_blobs(p, t=16)
    eigh = np.linalg.eigh

    def guarded(a, *args, **kwargs):
        if np.shape(a)[0] >= 16:
            raise AssertionError(f"eigh of a {np.shape(a)} matrix")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", guarded)
    spec = ExperimentSpec(dataset=str(p), model=model, transfer=transfer, label_column="label",
                          restarts=2, max_iter=max_iter)
    assert len(run_experiment(spec).m_sha256) == 64
    with pytest.raises(AssertionError, match="eigh of a"):
        run_experiment(replace(spec, model="cond-jc", transfer="linear"))


def test_experiment_spec_validation(tmp_path):
    with pytest.raises(ValueError, match="unknown model"):
        ExperimentSpec(dataset="x.csv", model="kmedoids")
    with pytest.raises(ValueError, match="sigmoid"):
        ExperimentSpec(dataset="x.csv", model="disc", transfer="linear")


@pytest.mark.parametrize("clusters", [1, 0, -3])
def test_experiment_spec_rejects_clusters_below_two(clusters):
    # the class count is asked for with None, never with 0
    with pytest.raises(ValueError, match="clusters must be at least 2"):
        ExperimentSpec(dataset="x.csv", model="cond", clusters=clusters)


@pytest.mark.parametrize("model", ["alt-hard", "soft-em", "cond"])
def test_run_experiment_fails_a_cell_with_more_clusters_than_points(tmp_path, model):
    # 20 singleton clusters of 16 points would score 0 (or fail inside EM)
    p = tmp_path / "blobs.csv"
    write_blobs(p)
    spec = ExperimentSpec(dataset=str(p), model=model, label_column="label", clusters=20)
    with pytest.raises(ValueError, match="clusters=20 exceeds the t=16 points"):
        run_experiment(spec)
    records, failures = run_grid([spec])
    assert records == [] and "clusters=20" in failures[0][1]
    assert run_experiment(replace(spec, model="alt-hard", clusters=16)).clusters == 16


def test_cli_solve_rejects_more_clusters_than_points(tmp_path):
    p = tmp_path / "blobs.csv"
    write_blobs(p)
    # bad input ends in one line on stderr and exit status 1, not a traceback
    with pytest.raises(SystemExit, match="^bregrelax solve: clusters=17 exceeds the t=16 points"):
        main(["solve", "--data", str(p), "--model", "alt-hard", "--label-col", "label",
              "--clusters", "17"])


def test_cli_solve_rejects_a_negative_max_iter(tmp_path):
    p = tmp_path / "blobs.csv"
    write_blobs(p)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "bregrelax.cli", "solve", "--data", str(p),
                           "--model", "cond-jc", "--label-col", "label", "--max-iter", "-1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "bregrelax solve: max_iter must be nonnegative, got -1\n"


def test_cli_reports_a_missing_data_file(tmp_path):
    missing = tmp_path / "nowhere.csv"
    for argv in (["solve", "--model", "alt-hard"],
                 ["score", "--assignments", str(tmp_path / "assign.csv")]):
        with pytest.raises(SystemExit, match=f"^bregrelax {argv[0]}: .*nowhere.csv"):
            main(argv + ["--data", str(missing)])


@pytest.mark.parametrize("subsample", [0, -5])
def test_experiment_spec_rejects_subsample_below_one(subsample):
    # keeping every point is asked for with None, never with 0
    with pytest.raises(ValueError, match="subsample must be at least 1"):
        ExperimentSpec(dataset="x.csv", model="alt-hard", subsample=subsample)


@pytest.mark.parametrize("model", ["alt-hard", "cond"])
def test_experiment_spec_rejects_restarts_below_one(model):
    with pytest.raises(ValueError, match="restarts"):
        ExperimentSpec(dataset="x.csv", model=model, restarts=0)


def test_score_assignments_validation(tmp_path):
    p = tmp_path / "blobs.csv"
    _, labels = write_blobs(p)
    a = tmp_path / "assign.csv"
    a.write_text("\n")
    with pytest.raises(ValueError, match="no assignment rows"):
        score_assignments(p, a, label_column="label")
    a.write_text("0,1,0\n")
    with pytest.raises(ValueError, match="labels for"):
        score_assignments(p, a, label_column="label")
    # a label that is not a cluster index, on line 2 after a valid row
    row = [str(v) for v in labels]
    for bad in ("-1", "1.5", "x"):
        a.write_text(",".join(row) + "\n" + ",".join(row[:-1] + [bad]) + "\n")
        with pytest.raises(ParseError, match=f"assign.csv: line 2: label '{re.escape(bad)}'"):
            score_assignments(p, a, label_column="label")


# -------------------------------------------------------------------- tables


def _fake_record(**kw):
    base = dict(dataset="toy", t=10, n=2, model="alt-hard", transfer="linear",
                clusters=2, alpha=1e-5, beta=1e-5, gamma=1e-6, seed=0,
                obj_mean=160.0, obj_std=4.0, acc_mean=0.847, acc_std=0.088)
    base.update(kw)
    return ResultRecord(**base)


def test_write_cell_files_label_rows_keep_their_bytes(tmp_path):
    rows = [np.array([0, 1, 2, 1]), [3, 0, 12], np.array([10, 105, 7], dtype=np.int64)]
    spec = ExperimentSpec(dataset="cell.csv", model="alt-hard")
    persist_cell(_fake_record(assignments=rows), spec, tmp_path)
    old_format = "".join(",".join(str(int(v)) for v in r) + "\n" for r in rows)
    written = (tmp_path / "cell_alt-hard_linear_assignments.csv").read_bytes()
    assert written == old_format.encode() == b"0,1,2,1\n3,0,12\n10,105,7\n"


def test_emit_table_empty_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    text = emit_table([], "csv", path)
    lines = text.splitlines()
    assert len(lines) == 1 and lines[0].startswith("dataset,")
    assert path.read_text() == text


def test_emit_table_single_row_roundtrip():
    rec = _fake_record()
    text = emit_table([rec], "csv")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 1
    row = rows[0]
    assert row["dataset"] == "toy" and row["model"] == "alt-hard"
    assert float(row["obj_mean"]) == rec.obj_mean  # repr round-trips floats
    assert row["soft_mean"] == ""  # absent soft metrics stay empty


def test_emit_table_grouping_and_order():
    recs = [
        _fake_record(dataset="b", model="soft-em"),
        _fake_record(dataset="a", model="cond"),
        _fake_record(dataset="a", model="cond-jc"),
        _fake_record(dataset="a", model="cond", transfer="sigmoid"),
    ]
    lines = emit_table(recs, "csv").splitlines()[1:]
    keys = [tuple(line.split(",")[i] for i in (0, 3, 4)) for line in lines]
    assert keys == [
        ("a", "cond-jc", "linear"),
        ("a", "cond", "linear"),
        ("a", "cond", "sigmoid"),
        ("b", "soft-em", "linear"),
    ]


def test_emit_table_text_scaling():
    text = emit_table([_fake_record()], "text")
    assert "(x10^2)" in text  # 160 prints as 1.6 with a block scale
    assert "1.6 +/- 0.0" in text
    assert "84.7 +/- 8.8" in text


def test_emit_table_unknown_format():
    with pytest.raises(ValueError, match="unknown table format"):
        emit_table([], "latex")


# ----------------------------------------------------------------------- CLI


def test_read_config(tmp_path):
    p = tmp_path / "grid.cfg"
    p.write_text(
        "# comment line\n"
        "dataset = a.csv, b.csv\n"
        "model = alt-hard\n"
        "seed = 3  # trailing comment\n"
        "alpha = 1e-4\n"
    )
    cfg = read_config(p)
    assert cfg["dataset"] == ["a.csv", "b.csv"]
    assert cfg["model"] == ["alt-hard"]
    assert cfg["seed"] == 3 and cfg["alpha"] == 1e-4


def test_read_config_errors(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("no equals sign\n")
    with pytest.raises(ValueError, match="key=value"):
        read_config(p)
    p.write_text("mystery = 4\n")
    with pytest.raises(ValueError, match="unknown key"):
        read_config(p)


# two values for every knob, neither of them its default
KNOB_SAMPLES = {
    "dataset": ("a.csv", "b.csv"),
    "model": ("joint", "alt-hard"),
    "transfer": ("sigmoid", "linear"),
    "label_column": ("label", "0"),
    "delimiter": (";", "|"),
    "name": ("blobs", "other"),
    "clusters": ("4", "5"),
    "alpha": ("0.001", "0.01"),
    "beta": ("0.002", "0.02"),
    "gamma": ("0.003", "0.03"),
    "seed": ("7", "8"),
    "restarts": ("3", "4"),
    "subsample": ("12", "14"),
    "tol": ("1e-4", "1e-3"),
    "admm_tol": ("2e-4", "2e-3"),
    "max_iter": ("50", "60"),
    "out": ("o1", "o2"),
}


@pytest.mark.parametrize("key", list(KNOBS))
def test_knob_config_line_and_flag_build_the_same_specs(tmp_path, key):
    value, other = KNOB_SAMPLES[key]
    flag = KNOBS[key].flag
    base = [arg for k, v in (("dataset", "base.csv"), ("model", "cond")) if k != key
            for arg in (KNOBS[k].flag, v)]

    def grid(*argv):
        return _bench_grid(build_parser().parse_args(["bench", *base, *argv]))

    config, other_config = tmp_path / "value.cfg", tmp_path / "other.cfg"
    config.write_text(f"{key} = {value}\n")
    other_config.write_text(f"{key} = {other}\n")
    by_flag = grid(flag, value)
    assert grid("--config", str(config)) == by_flag
    assert grid("--config", str(other_config), flag, value) == by_flag  # the flag wins
    assert grid("--config", str(other_config)) != by_flag  # and the knob reaches the spec


def test_knob_keys_are_the_spec_fields():
    assert set(KNOBS) == {f.name for f in fields(ExperimentSpec)}


def _solve_rows(tmp_path, p, model, transfer="linear"):
    """(prepared data, family, the label rows `solve --seed 1 --out sol` persisted)."""
    spec = ExperimentSpec(dataset=str(p), model=model, transfer=transfer,
                          label_column="label", seed=1)
    ds, cfg = prepare(spec)
    path = tmp_path / "sol" / f"{spec.cell_name()}_assignments.csv"
    return ds, cfg.family, np.loadtxt(path, delimiter=",", dtype=int, ndmin=2)


def test_cli_solve_baseline(tmp_path, capsys):
    # the restart of least hard objective recovers the planted labels
    p = tmp_path / "blobs.csv"
    write_blobs(p)
    rc = main(["solve", "--data", str(p), "--model", "alt-hard", "--label-col", "label",
               "--restarts", "5", "--seed", "1", "--out", str(tmp_path / "sol")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["model"] == "alt-hard" and summary["clusters"] == 2
    ds, fam, rows = _solve_rows(tmp_path, p, "alt-hard")
    assert len(rows) == 5
    best = rows[int(np.argmin(cond_objective(ds.X, list(rows), fam)))]
    assert matched_accuracy(best, ds.labels) == 1.0


@pytest.mark.parametrize("transfer", ["linear", "sigmoid"])
@pytest.mark.parametrize("model", ["alt-hard", "soft-em"])
def test_cli_solve_baseline_objective_is_hard_objective(tmp_path, capsys, model, transfer):
    # every baseline reports the mean hard objective of its labelings, lower is better
    p = tmp_path / "blobs.csv"
    write_blobs(p)
    rc = main(["solve", "--data", str(p), "--model", model, "--transfer", transfer,
               "--label-col", "label", "--seed", "1", "--out", str(tmp_path / "sol")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    ds, fam, rows = _solve_rows(tmp_path, p, model, transfer)
    assert summary["obj_mean"] == float(np.mean(cond_objective(ds.X, list(rows), fam)))


def test_cli_solve_relaxation_artifacts(tmp_path, capsys):
    p = tmp_path / "blobs.csv"
    write_blobs(p)
    out = tmp_path / "sol"
    rc = main(["solve", "--data", str(p), "--model", "cond-jc",
               "--label-col", "label", "--out", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["converged"] is True
    npz = np.load(out / "blobs_cond-jc_linear_solution.npz")
    assert npz["M"].shape == (16, 16)
    trace_lines = (out / "blobs_cond-jc_linear_trace.jsonl").read_text().splitlines()
    assert all("iteration" in json.loads(line) for line in trace_lines)


def test_cli_solve_trace_matches_bench_trace(tmp_path, capsys):
    # solve --out and bench persist the same cell through one writer
    p = tmp_path / "blobs.csv"
    write_blobs(p)
    flags = ["--data", str(p), "--model", "cond", "--label-col", "label", "--seed", "2"]
    assert main(["solve", *flags, "--out", str(tmp_path / "solve")]) == 0
    assert main(["bench", *flags, "--out", str(tmp_path / "bench")]) == 0
    capsys.readouterr()
    name = "blobs_cond_linear_trace.jsonl"
    solved = (tmp_path / "solve" / name).read_bytes()
    assert solved == (tmp_path / "bench" / "cells" / name).read_bytes()
    assert b"\r" not in solved and len(solved.splitlines()) > 1


@pytest.mark.parametrize("model, transfer", [
    ("cond-jc", "linear"), ("cond", "linear"), ("disc", "sigmoid"), ("joint", "linear"),
    ("alt-hard", "linear"), ("soft-em", "linear"), ("soft-em", "sigmoid"),
])
def test_cli_solve_is_a_one_cell_bench(tmp_path, capsys, model, transfer):
    # solve runs its cell as bench does: one results.csv row, one assignment file
    p = tmp_path / "blobs.csv"
    write_blobs(p)
    flags = ["--data", str(p), "--model", model, "--transfer", transfer,
             "--label-col", "label", "--seed", "2", "--restarts", "3"]
    assert main(["solve", *flags, "--out", str(tmp_path / "A")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert main(["bench", *flags, "--out", str(tmp_path / "B")]) == 0
    capsys.readouterr()
    row = next(csv.DictReader((tmp_path / "B" / "results.csv").open()))
    record = ResultRecord.from_row(row)
    assert {c: summary[c] for c in CSV_COLUMNS} == {c: getattr(record, c) for c in CSV_COLUMNS}
    name = f"blobs_{model}_{transfer}_assignments.csv"
    assert summary["assignment_file"] == name
    solved = (tmp_path / "A" / name).read_bytes()
    assert solved == (tmp_path / "B" / "cells" / name).read_bytes()
    assert len(solved.splitlines()) == 3


def test_cli_solve_rounds_a_relaxation_and_score_reproduces_it(tmp_path, capsys):
    p = tmp_path / "blobs.csv"
    write_blobs(p)
    out = tmp_path / "D"
    assert main(["solve", "--data", str(p), "--model", "cond", "--label-col", "label",
                 "--restarts", "3", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assign = out / "blobs_cond_linear_assignments.csv"
    assert len(assign.read_text().splitlines()) == 3
    assert main(["score", "--data", str(p), "--label-col", "label",
                 "--assignments", str(assign)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["repeats"] == 3
    assert stats["obj_mean"] == summary["obj_mean"]
    assert stats["acc_mean"] == summary["acc_mean"]


def test_cli_solve_requires_data_and_model():
    with pytest.raises(SystemExit, match="solve requires"):
        main(["solve", "--model", "alt-hard"])


def test_cli_bench_score_table_roundtrip(tmp_path, capsys):
    p = tmp_path / "blobs.csv"
    write_blobs(p)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        f"dataset = {p}\n"
        "model = alt-hard,soft-em\n"
        "transfer = linear\n"
        "label_column = label\n"
        "restarts = 4\n"
        "seed = 5\n"
    )
    out1 = tmp_path / "run1"
    rc = main(["bench", "--config", str(cfg), "--out", str(out1)])
    assert rc == 0
    assert "2 cells" in capsys.readouterr().out
    results = out1 / "results.csv"
    rows = list(csv.DictReader(results.open()))
    assert [r["model"] for r in rows] == ["alt-hard", "soft-em"]
    assert all(0.5 < float(r["acc_mean"]) <= 1.0 for r in rows)
    assert (out1 / "results.txt").exists() and (out1 / "run.log").exists()

    # repeated run under the same master seed is byte-identical
    out2 = tmp_path / "run2"
    main(["bench", "--config", str(cfg), "--out", str(out2)])
    capsys.readouterr()
    assert results.read_bytes() == (out2 / "results.csv").read_bytes()

    # score recomputes the persisted cell statistics
    assign = out1 / "cells" / rows[0]["assignment_file"]
    rc = main(["score", "--data", str(p), "--assignments", str(assign),
               "--label-col", "label"])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["obj_mean"] == pytest.approx(float(rows[0]["obj_mean"]), rel=1e-12)

    # table renders the CSV as text, matching the direct renderer
    rc = main(["table", "--records", str(results)])
    assert rc == 0
    text = capsys.readouterr().out
    assert text == (out1 / "results.txt").read_text()


def test_cli_score_subsample_reproduces_bench_cell(tmp_path, capsys):
    p = tmp_path / "blobs.csv"
    write_blobs(p, t=24)
    load = ["--data", str(p), "--label-col", "label", "--transfer", "sigmoid",
            "--subsample", "10", "--seed", "3"]
    out = tmp_path / "o"
    assert main(["bench", *load, "--model", "alt-hard", "--restarts", "3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    row = next(csv.DictReader(io.StringIO((out / "results.csv").read_text())))
    assert row["t"] == "10"
    assign = out / "cells" / row["assignment_file"]
    assert main(["score", *load, "--assignments", str(assign)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["repeats"] == 3
    assert stats["obj_mean"] == pytest.approx(float(row["obj_mean"]), rel=1e-12)
    assert stats["acc_mean"] == pytest.approx(float(row["acc_mean"]), rel=1e-12)


@pytest.mark.parametrize("subsample", ["0", "-2"])
def test_cli_score_rejects_subsample_below_one(tmp_path, subsample):
    # as for bench and solve, keeping every point means leaving --subsample out
    p = tmp_path / "blobs.csv"
    _, labels = write_blobs(p)
    a = tmp_path / "assign.csv"
    a.write_text(",".join(str(v) for v in labels) + "\n")
    with pytest.raises(SystemExit, match="^bregrelax score: subsample must be at least 1"):
        main(["score", "--data", str(p), "--label-col", "label", "--assignments", str(a),
              "--subsample", subsample])


def test_cli_bench_with_no_cell_left_is_an_error(tmp_path, capsys):
    # disc is dropped off the linear transfer, which leaves nothing to run
    p = tmp_path / "blobs.csv"
    write_blobs(p)
    out = tmp_path / "o"
    with pytest.raises(SystemExit, match="disc runs on the sigmoid transfer only") as exc:
        main(["bench", "--data", str(p), "--label-col", "label", "--model", "disc",
              "--transfer", "linear", "--out", str(out)])
    assert not out.exists()  # a message-carrying SystemExit exits with status 1
    # a mixed grid keeps its other cells
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"dataset={p}\nlabel_column=label\nmodel=disc,alt-hard\n"
                   "transfer=linear\nrestarts=2\n")
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    assert "1 cells" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--name", "--clusters", "--alpha", "--beta", "--gamma",
                                  "--restarts", "--tol", "--admm-tol", "--max-iter", "--out"])
def test_cli_score_rejects_flags_that_change_nothing_it_loads(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["score", "--data", "x.csv", "--assignments", "a.csv", flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_bench_reports_failures(tmp_path, capsys):
    rc = main(["bench", "--data", str(tmp_path / "nope.csv"),
               "--model", "alt-hard", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "FAILED" in err
