"""Run one benchmark workload of bregrelax and print its metrics.

    python3 perfbench/run.py --workload admm-planted --seed 0 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the run times untraced passes for ``--seconds`` and
prints the end-to-end metrics; with ``--trace 1`` it runs pass 0 twice
untraced and then traced, and prints the per-layer metrics.  The last line of
standard output is the result object; the line before it gives the
environment, certification and every failed check.  ``--smoke`` shrinks
every input for a quick functional run.  See README.md in this directory.
"""

import os
import sys

# pinned before numpy loads: one thread is as fast as two at these sizes
# and steadier on a shared two-core machine
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("admm-planted", "gcg-mixed", "pipeline-paper")
SETUP_REPEATS = 7
SETUP_CAP_S = 20.0  # for each fresh-interpreter setup
DEADLINE_S = 150.0  # no cell runs past it, so the run ends within 180 s


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs and caps")
    p.add_argument("--setup-only", action="store_true",
                   help="import, generate inputs, warm up, and exit (times setup_s)")
    return p.parse_args(argv)


def import_package():
    """Import bregrelax from this checkout's src/, or explain why not."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import bregrelax
    except ImportError as exc:
        return f"cannot import bregrelax from {src}: {exc}"
    if Path(bregrelax.__file__).resolve().parent.parent != src:
        return f"bregrelax resolved to {bregrelax.__file__}, outside {src}"
    return None


def warm_up(names, out_dir, deadline):
    """One smoke-sized pass of each named workload: loads lazy imports.

    Its inputs do not depend on --seed, so setup_s measures the same work in every run.
    """
    from workloads import WORKLOADS

    results = []
    for name in names:
        wl = WORKLOADS[name]
        inputs = wl.inputs(0, 0, True, out_dir / "warmup" / name)
        results.append(wl.run_pass(inputs, 0, deadline))
    return results


def setup(wl, args, out_dir, deadline):
    """Inputs of pass 0 and the warm-up.

    The traced run warms up every workload, so that every layer is traced
    on every workload; the untraced run, whose setup setup_s times, warms
    up its own.
    """
    inputs = wl.inputs(args.seed, 0, args.smoke, out_dir)
    return inputs, warm_up(WORKLOAD_NAMES if args.trace else [args.workload], out_dir, deadline)


class SetupSampler:
    """Fresh-interpreter setups (imports, inputs, warm-up), timed between the passes.

    The machine's speed shifts within seconds; spreading the samples over
    the whole run makes their median stand for the run, not one moment.
    """

    def __init__(self, args, repeats, deadline):
        self.cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
        if args.smoke:
            self.cmd.append("--smoke")
        self.repeats = repeats
        self.deadline = deadline
        self.samples, self.failures = [], []

    def take(self, upto):
        """Time setups until ``upto`` of them (at most ``repeats``) have run."""
        while len(self.samples) + len(self.failures) < min(upto, self.repeats):
            i = len(self.samples) + len(self.failures)
            start = time.perf_counter()
            timeout = max(min(SETUP_CAP_S, self.deadline - time.monotonic()), 1.0)
            try:
                proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=timeout)
            except subprocess.TimeoutExpired:
                self.failures.append(f"setup {i}: timeout")
                continue
            if proc.returncode != 0:
                self.failures.append(f"setup {i}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            self.samples.append(time.perf_counter() - start)


def openblas_threads():
    """Thread count reported by each OpenBLAS loaded in this process."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return found
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(path).name] = getter()
                break
    return found


def environment(args, caps):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": openblas_threads(),
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "iteration_caps": caps,
    }


def tally(results, warm):
    """(attempted, failures) over cells and checks of every pass."""
    attempted, failures = 0, []
    for result in warm:
        for status, _, error, _ in result.raw:
            attempted += 1
            if status != "ok":
                failures.append(f"warm-up {status}: {error}")
    for result in results:
        for o in result.outcomes:
            attempted += 1
            if o.status != "ok":
                failures.append(f"{o.name}: {o.status}: {o.error}")
        for name, passed, detail in result.checks:
            attempted += 1
            if not passed:
                failures.append(f"{name}: {detail}")
    return attempted, failures


def mean(values):
    values = [v for v in values if math.isfinite(v)]
    return sum(values) / len(values) if values else None


def end_to_end(results, setup_samples):
    cells = [o for r in results for o in r.outcomes if o.status == "ok"]
    excess = [math.log10(1.0 + max(o.cert, 0.0) / o.tol) for o in cells if math.isfinite(o.cert)]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_samples) if setup_samples else None, "s"),
        "wall_s": (statistics.median(r.wall for r in results), "s"),
        # log10(1 + cert/tol): the excess in decades while uncertified, and a
        # value in (0, 0.3] once certified, so it never reads exactly 0
        "cert_excess_log10": (mean(excess), "log10"),
        "hard_obj_ratio": (mean(o.obj_mean / o.reference for o in cells), "ratio"),
        "acc_mean": (mean(o.acc_mean for o in cells), "fraction"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def certification(results):
    stops = [o.stop for r in results for o in r.outcomes if o.stop]
    return {
        "certified_frac": stops.count("certified") / len(stops) if stops else None,
        "stops": {s: stops.count(s) for s in sorted(set(stops))},
    }


def main(argv=None):
    args = parse_args(argv)
    problem = import_package()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    import tracing

    wl = WORKLOADS[args.workload]
    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    start = time.monotonic()
    deadline = start + DEADLINE_S
    if args.setup_only:
        # its own directory: it runs between the passes of the parent run
        setup(wl, args, out_dir.with_name(out_dir.name + "-setup"), deadline)
        return 0

    sampler = SetupSampler(args, 0 if args.trace else SETUP_REPEATS, deadline)
    sampler.take(1)
    tracer = tracing.Tracer()
    if args.trace:
        with tracer.installed():
            inputs, warm = setup(wl, args, out_dir, deadline)
    else:
        inputs, warm = setup(wl, args, out_dir, deadline)

    # passes repeat while one more of average length fits in --seconds of
    # timed wall, and at least twice, so a slow spell still leaves a median
    # of two; the untimed finish (checks, references) does not count
    results = []
    k = 0
    while True:
        if k > 0:
            inputs = wl.inputs(args.seed, k, args.smoke, out_dir)
        result = wl.run_pass(inputs, k, deadline)
        wl.finish(inputs, result, k, deadline)
        results.append(result)
        k += 1
        measured = sum(r.wall for r in results)
        sampler.take(math.ceil(SETUP_REPEATS * measured / args.seconds))
        if args.trace or time.monotonic() >= deadline:
            break
        if k >= 2 and measured * (k + 1) / k > args.seconds:
            break
    sampler.take(SETUP_REPEATS)

    if args.trace:
        # the first full-size pass runs slower than later ones, so pass 0
        # runs again untraced as the baseline for trace.overhead_s
        untraced = wl.run_pass(inputs, 0, deadline)
        wl.finish(inputs, untraced, 0, deadline)
        with tracer.installed():
            traced = wl.run_pass(inputs, 0, deadline)
        wl.finish(inputs, traced, 0, deadline)
        untraced.checks.append(("repeated untraced passes give byte-identical results.csv",
                                results[0].csv == untraced.csv, ""))
        traced.checks.append(("traced and untraced results.csv are byte-identical",
                              bool(untraced.csv) and traced.csv == untraced.csv, ""))
        before = {o.name: o.m_sha256 for o in untraced.outcomes if o.m_sha256}
        for o in traced.outcomes:
            if o.name in before:
                traced.checks.append((f"{o.name}: traced m_sha256 matches untraced",
                                      o.m_sha256 == before[o.name], ""))
        results += [untraced, traced]
        metrics = tracing.layer_metrics(tracer, traced.wall, untraced.wall)
        digests = {"untraced": hashlib.sha256(untraced.csv).hexdigest(),
                   "traced": hashlib.sha256(traced.csv).hexdigest()}
    else:
        metrics = end_to_end(results, sampler.samples)
        digests = {}

    attempted, failures = tally(results, warm)
    failures = sampler.failures + failures
    attempted += sampler.repeats
    detail = {
        "environment": environment(args, wl.caps(inputs)),
        "passes": len(results),
        "pass_wall_s": [r.wall for r in results],
        "cell_s": [r.cell_s for r in results],
        **certification(results),
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "setup_samples_s": sampler.samples,
        "results_sha256": digests,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    record = dict(detail, metrics={k: v for k, (v, _) in metrics.items()})
    if args.trace:
        record.update(tracer.dump())
    with open(out_dir / f"trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
