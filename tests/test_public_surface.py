"""Every public name has a user outside the tests.

The public API is the import block of ``bregrelax/__init__.py``.  A name
belongs there only if the package, the demos, the benchmark harness or
the README uses it; a name that only tests read is a test oracle and
lives in ``tests/conftest.py``.  Every module-level import in a src
module is read by that module.
"""

import ast
import re
from pathlib import Path

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


# The ROADMAP's ceiling on src: a change that frees lines lowers it.
SRC_LINE_CEILING = 2531


def test_src_stays_below_its_line_ceiling():
    # lines as `wc -l src/bregrelax/*.py` counts them: newline characters
    lines = sum(p.read_bytes().count(b"\n") for p in PACKAGE.glob("*.py"))
    assert lines < SRC_LINE_CEILING
