"""Run a small benchmark grid end to end and show it is reproducible.

Synthesizes two toy datasets as CSV, runs a dataset x model grid through
the same entry point as the command line, prints the rendered text table,
and reruns the grid to confirm the result CSV is byte-identical.
"""

import tempfile
from pathlib import Path

import numpy as np

from bregrelax import ExperimentSpec, emit_table, run_grid

work = Path(tempfile.mkdtemp(prefix="bregrelax_demo_"))
rng = np.random.default_rng(3)

for name, (t, d) in (("rings", (16, 2)), ("triple", (18, 3))):
    angles = 2.0 * np.pi * np.arange(d) / max(d, 2)
    means = 6.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    labels = np.arange(t) % d
    X = means[labels] + 0.4 * rng.normal(size=(t, 2))
    with open(work / f"{name}.csv", "w") as fh:
        for row, lab in zip(X, labels):
            fh.write(f"{row[0]:.6f},{row[1]:.6f},{lab}\n")

def build_specs():
    specs = []
    for name in ("rings", "triple"):
        for model in ("cond-jc", "alt-hard", "soft-em"):
            specs.append(ExperimentSpec(
                dataset=str(work / f"{name}.csv"),
                model=model,
                seed=5,
                restarts=3 if model == "cond-jc" else 5,
            ))
    return specs

records, failures = run_grid(build_specs())
assert not failures, failures
print(emit_table(records, "text"))

csv_a = emit_table(records, "csv")
records_again, _ = run_grid(build_specs())
csv_b = emit_table(records_again, "csv")
print("rerun byte-identical:", csv_a == csv_b)
print("work dir:", work)
