"""Convex relaxations of Bregman-divergence clustering.

The package is organized bottom-up:

- :mod:`bregrelax.divergences` -- divergence families (euclidean,
  bernoulli), transfers, conjugates.
- :mod:`bregrelax.geometry` -- relaxation sets over normalized
  equivalence matrices, membership checks, projections.
- :mod:`bregrelax.clusternorm` -- the cluster norm, its dual and prox,
  and equivalence-matrix recovery from the water-filled spectrum.
- :mod:`bregrelax.solvers` -- accelerated proximal gradient, GCG, ADMM,
  and smooth-minimization engines.
- :mod:`bregrelax.models` -- the four relaxed clustering models plus
  alternating and EM baselines.
- :mod:`bregrelax.rounding` -- spectral rounding, the Lloyd loop behind
  k-means and both hard reoptimizers, matched-accuracy scoring.
- :mod:`bregrelax.bench` / :mod:`bregrelax.cli` -- dataset handling,
  experiment grids, result tables, command line front end.
"""

# The public API is every name imported here.
from .bench import (
    ExperimentSpec,
    ParseError,
    ResultRecord,
    emit_table,
    load_dataset,
    preprocess,
    run_experiment,
    run_grid,
    score_assignments,
    stratified_subsample,
)
from .clusternorm import (
    cluster_norm,
    cluster_norm_dual,
    cluster_norm_dual_subgradient,
    cluster_prox,
    recover_equivalence,
    waterfill,
)
from .divergences import (
    BERNOULLI_CLIP,
    DomainError,
    conjugate_divergence,
    family,
    pairwise_divergence,
)
from .geometry import (
    capped_box_simplex_project,
    check_membership,
    project_rowsum,
)
from .models import (
    MODELS,
    ModelConfig,
    cond_objective,
    derived_rng,
    solve_cond,
    solve_cond_jc,
    solve_disc,
    solve_joint,
    solve_relaxation,
)
from .rounding import (
    hard_reopt,
    joint_hard_reopt,
    kmeans,
    matched_accuracy,
    soft_accuracy,
    spectral_embedding,
    spectral_round,
)
from .solvers import (
    AdmmResult,
    SmoothProblem,
    SolverDivergence,
    admm_solve,
    gcg_line_search,
    gcg_minimize,
    prox_minimize,
    rowwise_objective,
    smooth_minimize,
)

__version__ = "0.1.0"
