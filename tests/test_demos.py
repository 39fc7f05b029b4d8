"""Each demo script, and the README quick start, runs in a fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(args, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # TMPDIR keeps the files a script writes inside the test's own directory
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("demo", ["bench_grid.py", "norm_waterfill.py", "planted_pipeline.py"])
def test_demo_runs(demo, tmp_path):
    run_python([str(ROOT / "demos" / demo)], tmp_path)


def test_readme_quick_start_recovers_the_clusters(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert run_python(["-c", code], tmp_path).strip() == "1.0"
