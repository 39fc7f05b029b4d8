"""Per-layer tracing of bregrelax from outside the package.

bregrelax modules import their collaborators by name, and every call looks
the name up in the calling module's globals.  ``Tracer.install`` replaces
those globals with timing wrappers and ``uninstall`` puts the originals
back, so the package itself is never edited.  Spans (name, start, end,
parent) and counters are kept in memory; ``layer_metrics`` reduces them
to the per-layer metrics named in BENCHMARK.json.
"""

import contextlib
import functools
import time
from collections import Counter

from bregrelax import bench, cli, models, rounding, solvers

from workloads import stop_reason


def _solved(tracer, solution, args):
    X, config = args
    tracer.count("models.iterations", solution.iterations)
    tracer.count(f"models.stop.{stop_reason(solution, X, config)}")


def _gcg_done(tracer, result, args):
    tracer.count("solvers.gcg_iterations", result.iterations)


def _bias_done(tracer, result, args):
    tracer.count("solvers.bias_solves")
    tracer.count("solvers.bias_iters", result.iterations)
    tracer.count("solvers.bias_unconverged", int(not result.converged))


def _one_svd(tracer, result, args):
    tracer.count("clusternorm.svd_calls")


def _reopt_done(tracer, result, args):
    tracer.count("rounding.reopt_iters", result.iterations)


# (module, global name, span name, hook run on the result).  A function
# imported into several modules is patched where its callers look it up.
TARGETS = (
    (models, "solve_cond_jc", "models.solve", _solved),
    (models, "solve_cond", "models.solve", _solved),
    (models, "solve_disc", "models.solve", _solved),
    (models, "solve_joint", "models.solve", _solved),
    (models, "admm_solve", "solvers.admm", None),
    (models, "gcg_minimize", "solvers.gcg", _gcg_done),
    (models, "smooth_minimize", "solvers.bias_solve", _bias_done),
    (models, "conjugate_divergence", "divergences.conjugate", None),
    (models, "recover_equivalence", "clusternorm.recover", _one_svd),
    (models, "pairwise_divergence", "divergences.pairwise", None),
    (solvers, "project_rowsum", "geometry.project_rowsum", None),
    (solvers, "rowwise_objective", "solvers.objective", None),
    (solvers, "gcg_line_search", "solvers.line_search", None),
    (solvers, "cluster_norm_dual", "clusternorm.dual", _one_svd),
    (solvers, "cluster_norm_dual_subgradient", "clusternorm.dual", _one_svd),
    (solvers, "cluster_norm", "clusternorm.norm", _one_svd),
    (rounding, "kmeans", "rounding.kmeans", None),
    (rounding, "pairwise_divergence", "divergences.pairwise", None),
    (bench, "run_experiment", "bench.cell", None),
    (bench, "load_dataset", "bench.prepare", None),
    (bench, "stratified_subsample", "bench.prepare", None),
    (bench, "preprocess", "bench.prepare", None),
    (bench, "persist_cell", "bench.persist", None),
    (bench, "emit_table", "bench.persist", None),
    (bench, "spectral_embedding", "rounding.embed", None),
    (bench, "spectral_round", "rounding.round", None),
    (bench, "hard_reopt", "rounding.reopt", _reopt_done),
    (bench, "joint_hard_reopt", "rounding.reopt", _reopt_done),
    (bench, "cond_objective", "rounding.score", None),
    (bench, "matched_accuracy", "rounding.score", None),
    (bench, "soft_accuracy", "rounding.score", None),
    (bench, "alternating_restarts", "models.baseline", None),
    (bench, "soft_em_restarts", "models.baseline", None),
    (bench, "pairwise_divergence", "divergences.pairwise", None),
    (cli, "main", "cli.bench", None),
)


class Tracer:
    """Spans and counters recorded while installed into bregrelax."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = Counter()
        self._open = []
        self._saved = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name, k=1):
        self.counters[name] += k

    def timed(self, fn, name, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, result, args)
            return result

        return wrapper

    def counted(self, fn):
        """Count calls as loss evaluations, except those made by a bias solve."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = self._open and self.spans[self._open[-1]][0] == "solvers.bias_solve"
            self.count("solvers.bias_evals" if inner else "solvers.loss_evals")
            return fn(*args, **kwargs)

        return wrapper

    def _problem(self, make):
        """Wrap SmoothProblem so its callables, and each phi from segment, count."""

        def traced_problem(*args, **kwargs):
            problem = make(*args, **kwargs)
            problem.value_and_grad = self.counted(problem.value_and_grad)
            if problem.value is not None:
                problem.value = self.counted(problem.value)
            if problem.segment is not None:
                segment = problem.segment
                problem.segment = lambda T, S: self.counted(segment(T, S))
            return problem

        return traced_problem

    def _patch(self, module, name, replacement):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def install(self):
        for module, name, span, hook in TARGETS:
            self._patch(module, name, self.timed(getattr(module, name), span, hook))
        self._patch(models, "SmoothProblem", self._problem(models.SmoothProblem))

    def uninstall(self):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def totals(self):
        """Per span name: (seconds, calls, self seconds).

        Seconds count only outermost spans of a name, so a recursive or
        re-entrant layer is not counted twice; self seconds subtract the
        time covered by direct children.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        seconds, calls, own = Counter(), Counter(), Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            own[name] += end - start - child_time[i]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                seconds[name] += end - start
        return seconds, calls, own

    def seconds_within(self, name, ancestor):
        """Seconds of ``name`` spans that run inside an ``ancestor`` span."""
        total = 0.0
        for span_name, start, end, parent in self.spans:
            if span_name != name:
                continue
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent >= 0:
                total += end - start
        return total

    def dump(self):
        """Spans and counters as JSON-ready lists, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [[n, s - origin, e - origin, p] for n, s, e, p in self.spans],
            "counters": dict(self.counters),
        }


def layer_metrics(tracer, traced_wall, untraced_wall):
    """The per-layer metrics, as {name: (value, unit)}."""
    seconds, calls, own = tracer.totals()
    c = tracer.counters
    gcg_iters = c["solvers.gcg_iterations"]
    return {
        "models.solve_s": (seconds["models.solve"], "s"),
        "models.iterations": (c["models.iterations"], "count"),
        "models.stop.certified": (c["models.stop.certified"], "count"),
        "models.stop.stall": (c["models.stop.stall"], "count"),
        "models.stop.max_iter": (c["models.stop.max_iter"], "count"),
        "models.baseline_s": (seconds["models.baseline"], "s"),
        "solvers.admm_s": (seconds["solvers.admm"], "s"),
        "solvers.admm_rows_s": (own["solvers.admm"], "s"),
        "solvers.objective_s": (seconds["solvers.objective"], "s"),
        "geometry.project_rowsum_s": (seconds["geometry.project_rowsum"], "s"),
        "geometry.project_rowsum_calls": (calls["geometry.project_rowsum"], "count"),
        "solvers.gcg_s": (seconds["solvers.gcg"], "s"),
        "solvers.gcg_iterations": (gcg_iters, "count"),
        "solvers.line_search_s": (seconds["solvers.line_search"], "s"),
        "solvers.line_search_calls": (calls["solvers.line_search"], "count"),
        "solvers.loss_evals": (c["solvers.loss_evals"], "count"),
        "solvers.loss_evals_per_iter": (c["solvers.loss_evals"] / max(gcg_iters, 1), "evals/iter"),
        "solvers.bias_solve_s": (seconds["solvers.bias_solve"], "s"),
        "solvers.bias_solves": (c["solvers.bias_solves"], "count"),
        "solvers.bias_iters": (c["solvers.bias_iters"], "count"),
        "solvers.bias_unconverged": (c["solvers.bias_unconverged"], "count"),
        "clusternorm.dual_s": (seconds["clusternorm.dual"], "s"),
        "clusternorm.svd_calls": (c["clusternorm.svd_calls"], "count"),
        "clusternorm.recover_s": (seconds["clusternorm.recover"], "s"),
        "divergences.conjugate_s": (seconds["divergences.conjugate"], "s"),
        "divergences.conjugate_calls": (calls["divergences.conjugate"], "count"),
        "divergences.pairwise_s": (seconds["divergences.pairwise"], "s"),
        "divergences.pairwise_calls": (calls["divergences.pairwise"], "count"),
        "rounding.embed_s": (seconds["rounding.embed"], "s"),
        "rounding.round_s": (seconds["rounding.round"], "s"),
        "rounding.kmeans_calls": (calls["rounding.kmeans"], "count"),
        "rounding.reopt_s": (seconds["rounding.reopt"], "s"),
        "rounding.reopt_iters": (c["rounding.reopt_iters"], "count"),
        "rounding.score_s": (seconds["rounding.score"], "s"),
        "bench.prepare_s": (seconds["bench.prepare"], "s"),
        "bench.persist_s": (seconds["bench.persist"], "s"),
        "cli.overhead_s": (seconds["cli.bench"] - tracer.seconds_within("bench.cell", "cli.bench"),
                           "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }
