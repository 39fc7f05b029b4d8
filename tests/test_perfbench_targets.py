"""The bregrelax names that perfbench/tracing.py patches still exist.

The benchmark's tracer replaces module globals by name and reads the
callables of every SmoothProblem, so renaming or deleting one of them
breaks only the (multi-minute) benchmark run.  This checks them here.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from bregrelax import models

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        for name in ("tracing", "workloads"):
            sys.modules.pop(name, None)


def test_every_traced_global_exists(tracing):
    missing = [f"{module.__name__}.{name}" for module, name, _, _ in tracing.TARGETS
               if not callable(getattr(module, name, None))]
    assert tracing.TARGETS
    assert not missing


def test_smooth_problem_has_the_traced_callables():
    problem = models.SmoothProblem(shape=(2,), value_and_grad=lambda x: (0.0, np.zeros(2)))
    for name in ("value", "value_and_grad", "segment"):
        assert hasattr(problem, name), name
