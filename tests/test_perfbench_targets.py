"""The bregrelax names and result fields that perfbench reads still exist.

The benchmark's tracer replaces module globals by name and reads the
callables of every SmoothProblem, and its workloads read the solution
fields (``trace``, ``auxiliaries``, ``M``) of every relaxation, so renaming
or deleting one of them breaks only the (multi-minute) benchmark run.
This checks them here.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from bregrelax import bench, models

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield importlib.import_module(name)
    finally:
        for module in ("tracing", "workloads"):
            sys.modules.pop(module, None)


@pytest.fixture
def tracing(monkeypatch):
    yield from perfbench_module(monkeypatch, "tracing")


@pytest.fixture
def workloads(monkeypatch):
    yield from perfbench_module(monkeypatch, "workloads")


def test_every_traced_global_exists(tracing):
    missing = [f"{module.__name__}.{name}" for module, name, _, _ in tracing.TARGETS
               if not callable(getattr(module, name, None))]
    assert tracing.TARGETS
    assert not missing


def test_smooth_problem_has_the_traced_callables():
    problem = models.SmoothProblem(shape=(2,), value_and_grad=lambda x: (0.0, np.zeros(2)))
    for name in ("value", "value_and_grad", "segment"):
        assert hasattr(problem, name), name


@pytest.mark.parametrize("model", models.RELAXATION_MODELS)
def test_workload_checks_pass_on_a_solved_cell(workloads, model):
    # disc runs on sigmoid-squashed data, as the gcg-mixed workload runs it
    ds = workloads.planted(workloads.stream_rng(0, 0, 0), 12, 4)
    X = bench.preprocess(ds, "sigmoid" if model == "disc" else "linear").X
    config = models.ModelConfig(d=3, max_iter=20)
    solution = models.solve_relaxation(model, X, config)
    solved = workloads.Solved(solution, X, config)
    outcome = workloads.CellOutcome(model, model, "ok")
    workloads.certify(outcome, solved)
    assert np.isfinite(outcome.cert) and outcome.tol > 0
    assert outcome.stop in ("certified", "max_iter", "stall")
    checks = workloads.relaxation_checks(model, solved, workloads.m_digest(solution.M))
    assert checks
    assert not [check for check in checks if not check[1]]


@pytest.mark.parametrize("fam", ["euclidean", "bernoulli"])
def test_certified_admm_solve_is_certified_for_perfbench(workloads, fam):
    # perfbench's certificate reads max(primal, dual) alone; the solver's
    # stop test adds the row defect, so it is the stricter of the two
    from conftest import planted_bernoulli, planted_euclidean

    planted = planted_euclidean if fam == "euclidean" else planted_bernoulli
    X, _ = planted(16, 2, np.random.default_rng(200))
    config = models.ModelConfig(d=2, family=fam)
    solution = models.solve_relaxation("cond-jc", X, config)
    assert solution.converged
    assert workloads.stop_reason(solution, X, config) == "certified"


def test_tracer_reads_every_model_through_run_experiment(tracing, workloads, tmp_path):
    # the tracer's hooks read result fields (iterations, converged) of the
    # solvers, bias solves and reoptimizers; one pass over all six models
    # on a tiny CSV shows each hook still finds what it reads
    path = workloads.write_csv(workloads.planted(workloads.stream_rng(0, 0, 0), 12, 4),
                               tmp_path / "planted.csv")
    tracer = tracing.Tracer()
    with tracer.installed():
        for model in models.MODELS:
            transfer = "sigmoid" if model == "disc" else "linear"
            bench.run_experiment(bench.ExperimentSpec(dataset=str(path), model=model,
                                                      transfer=transfer, max_iter=20))
    metrics = tracing.layer_metrics(tracer, 0.0, 0.0)
    for name in ("models.iterations", "solvers.gcg_iterations", "solvers.bias_solves",
                 "rounding.reopt_iters"):
        assert metrics[name][0] > 0, name
