"""Every public name has a user outside the tests.

The public API is the import block of ``bregrelax/__init__.py``.  A name
belongs there only if the package, the demos, the benchmark harness or
the README uses it; a name that only tests read is a test oracle and
lives in ``tests/conftest.py``.  Every module-level import in a src
module is read by that module, and none of them loads scipy, which only
the tests use, as an oracle.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bregrelax"


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _uses(path):
    """Names a module reads: loads, attributes and imports, not definitions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_has_a_user_outside_the_tests():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(_uses(p) for p in sources))
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    assert sources
    assert sorted(_exports() - used) == []


def test_no_unused_module_imports_in_src():
    # a module-level import must be read by its module; a name kept only so
    # the perfbench tracer can patch it is not a use
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = {alias.asname or alias.name.split(".")[0]
                 for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}: {name}" for name in sorted(bound - read)]
    assert unused == []


# one cell of every model on a tiny CSV, then a membership check, in a
# fresh interpreter; prints the scipy modules it loaded
NO_SCIPY_RUN = """
import sys
import numpy as np
from bregrelax import MODELS, bench, check_membership
for model in MODELS:
    transfer = "sigmoid" if model == "disc" else "linear"
    bench.run_experiment(bench.ExperimentSpec(sys.argv[1], model, transfer, restarts=2,
                                              max_iter=20))
check_membership(np.full((4, 4), 0.25), 2, "simplex")
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_the_package_runs_without_importing_scipy(tmp_path):
    # scipy is a test oracle only: bregrelax runs every model on numpy alone
    rng = np.random.default_rng(0)
    labels = np.arange(12) % 2
    X = 3.0 * labels[:, None] + rng.normal(size=(12, 3))
    data = tmp_path / "tiny.csv"
    data.write_text("".join(",".join(map(repr, row.tolist())) + f",{label}\n"
                            for row, label in zip(X, labels)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, str(data)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# The ROADMAP's ceiling on src: a change that frees lines lowers it.
SRC_LINE_CEILING = 2528


def test_src_stays_below_its_line_ceiling():
    # lines as `wc -l src/bregrelax/*.py` counts them: newline characters
    lines = sum(p.read_bytes().count(b"\n") for p in PACKAGE.glob("*.py"))
    assert lines < SRC_LINE_CEILING
