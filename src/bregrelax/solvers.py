"""Optimization drivers: proximal gradient, conditional gradient, ADMM, L-BFGS.

Four engines, kept independent of any particular clustering model:

* ``smooth_minimize`` -- unconstrained smooth minimization by L-BFGS with
  Armijo backtracking, in numpy; ``disc``'s bias solves use it.
* ``prox_minimize`` -- accelerated proximal gradient for objectives of the
  form L(T) + (w/2) * norm(T)^2 where the norm is the cluster norm, with
  that penalty's exact prox (``cluster_prox``); it stops on the duality
  gap alone.  ``cond`` and ``joint`` use it.
* ``gcg_minimize`` -- generalized conditional gradient for the same
  objectives, used by ``disc``, with a projected-Newton line search over
  the two weights of each update (``gcg_line_search``).
* ``admm_solve`` -- alternating direction method for minimizing the primal
  divergence D_F(X, M X) over the ``simplex`` relaxation set, splitting the
  row-simplex constraints (inexact row steps, ``_admm_rows_pg``) from the
  spectral ones (the closed-form ``rowsum`` projection), Anderson-
  extrapolated at a fixed penalty.
"""

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .clusternorm import (cluster_norm, cluster_norm_dual, cluster_norm_dual_subgradient,
                          cluster_prox)
from .divergences import family, row_divergence
from .geometry import project_rowsum, simplex_project_rows


class SolverDivergence(RuntimeError):
    """A solve met a non-finite objective or gradient, or a stalled inner solve."""


@dataclass
class SmoothProblem:
    """A smooth objective with gradient oracle over a fixed array shape.

    ``value_and_grad`` maps an array of ``shape`` to ``(value, gradient)``.
    ``value``, an objective-only callable, is carried for callers that
    wrap problems (the perfbench tracer counts it); no solver reads it.
    ``segment`` is the line-search evaluator, required by GCG:
    ``segment(T, S)`` returns a callable ``phi(a, b) -> (value, grad_ab,
    hess_ab)`` giving the value at ``a*T + b*S``, its gradient in (a, b)
    (``<grad L, T>``, ``<grad L, S>``) and a symmetric 2x2 curvature.  phi
    may instead be a majorizer of L along the segment that equals L, with
    the same gradient, at (a, b) = (1, 0): minimizing it still descends L.
    """

    shape: tuple
    value_and_grad: Callable
    value: Optional[Callable] = None
    segment: Optional[Callable] = None
    x0: Optional[np.ndarray] = None


@dataclass
class SmoothResult:
    x: np.ndarray
    objective: float
    grad_norm: float
    iterations: int
    converged: bool


def smooth_minimize(problem, tol=1e-8, max_iter=500):
    """Minimize a SmoothProblem, from ``x0``, to gradient norm < tol * (1 + |objective|).

    L-BFGS (Liu & Nocedal, 1989) over the last 20 pairs, skipping one with
    s'y <= 0, with Armijo backtracking that also takes a step whose value
    ties to roundoff while the gradient norm falls.  Exhausting ``max_iter``,
    or 50 halvings without such a step, is reported via ``converged`` and a
    warning carrying the final gradient norm.
    """
    x = np.array(problem.x0 if problem.x0 is not None else np.zeros(problem.shape), dtype=float)
    x = x.reshape(problem.shape)
    (f, g), pairs, it = problem.value_and_grad(x), [], 0
    while np.linalg.norm(g) >= tol * (1.0 + abs(f)) and it < max_iter:
        p, alphas = -g, []  # the two-loop recursion's p = -H g
        for s, y in reversed(pairs):
            alphas.append(np.vdot(s, p) / np.vdot(s, y))
            p = p - alphas[-1] * y
        if pairs:
            s, y = pairs[-1]
            p *= np.vdot(s, y) / np.vdot(y, y)
        for (s, y), a in zip(pairs, reversed(alphas)):
            p = p + (a - np.vdot(y, p) / np.vdot(s, y)) * s
        for step in 0.5 ** np.arange(50):
            f1, g1 = problem.value_and_grad(x + step * p)
            if f1 <= f + 1e-4 * step * np.vdot(g, p) or (
                    f1 <= f + 1e-15 * (1.0 + abs(f)) and np.linalg.norm(g1) < np.linalg.norm(g)):
                break
        else:
            break  # no step descends at this precision
        if step * np.vdot(p, g1 - g) > 0.0:
            pairs = pairs[-19:] + [(step * p, g1 - g)]
        x, f, g, it = x + step * p, f1, g1, it + 1
    f, gnorm = float(f), float(np.linalg.norm(g))
    converged = gnorm < tol * (1.0 + abs(f))
    if not converged:
        warnings.warn(f"smooth_minimize stopped after {it} iterations with gradient norm "
                      f"{gnorm:.3e}", RuntimeWarning)
    return SmoothResult(x, f, gnorm, it, converged)


def _quadrant_newton(p, g, H):
    """Minimize the model g.(x-p) + (x-p)'H(x-p)/2 over x >= 0 (2-d).

    A convex quadratic attains its minimum over the quadrant either at the
    unconstrained solution, on one of the two edges, or at the origin, so
    each feasible candidate is tried and the best kept.  Returns the point
    and the model decrease from p (0 when p itself is best).
    """
    c = g - H @ p  # linear term of the model in absolute coordinates

    def model(x):
        return float(c @ x + 0.5 * x @ H @ x)

    candidates = [p, np.zeros(2)]
    if H[0, 0] > 0.0:
        candidates.append(np.array([max(-c[0] / H[0, 0], 0.0), 0.0]))
    if H[1, 1] > 0.0:
        candidates.append(np.array([0.0, max(-c[1] / H[1, 1], 0.0)]))
    if H[0, 0] > 0.0 and H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0] > 0.0:
        x = np.linalg.solve(H, -c)
        if np.all(x >= 0.0):
            candidates.append(x)
    values = [model(x) for x in candidates]
    best = int(np.argmin(values))
    return candidates[best], values[0] - values[best]


def gcg_line_search(loss, T, S, s, alpha):
    """Two-variable line search for the conditional-gradient update.

    Minimizes ``phi(a, b) = L(a T + b S) + (alpha/2) (a s + b)^2`` over
    ``a, b >= 0`` by projected Newton: each step minimizes the local
    quadratic model over the quadrant in closed form (``_quadrant_newton``)
    and is guarded by an Armijo backtrack on phi.  The search starts from
    the better of the two endpoints (keep the iterate / jump to the atom)
    and only accepts decreases, so phi at the result is never worse than
    at either.  An exactly quadratic L takes one step.  Stops when the
    model promises less than roundoff, 1e-14 (1 + |phi|), or after 50 steps.

    Derivatives come from ``loss.segment``.  A non-finite value at the
    atom raises SolverDivergence.
    """
    seg = loss.segment(T, S)
    pen_dir = np.array([s, 1.0])
    pen_hess = alpha * np.outer(pen_dir, pen_dir)

    def phi(p):
        v, g, H = seg(p[0], p[1])
        scale = p @ pen_dir
        return (
            float(v) + 0.5 * alpha * scale * scale,
            np.asarray(g, dtype=float) + alpha * scale * pen_dir,
            np.asarray(H, dtype=float) + pen_hess,
        )

    keep, atom = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    at_keep, at_atom = phi(keep), phi(atom)
    if not np.isfinite(at_atom[0]):
        raise SolverDivergence("non-finite loss at the conditional-gradient atom")
    p, (f, g, H) = (atom, at_atom) if at_atom[0] < at_keep[0] else (keep, at_keep)
    for _ in range(50):
        x, drop = _quadrant_newton(p, g, H)
        noise = 1e-14 * (1.0 + abs(f))
        if not drop > noise:
            break
        d = x - p
        slope = float(g @ d)
        step = 1.0
        while True:
            trial = p + step * d
            f_new, g_new, H_new = phi(trial)
            if f_new <= f + 1e-4 * step * slope:
                break
            step *= 0.5
            # the model decrease of a shortened step is at least step * drop
            if step * drop <= noise:
                return float(p[0]), float(p[1])
        p, f, g, H = trial, f_new, g_new, H_new
    return float(p[0]), float(p[1])


@dataclass
class PenalizedResult:
    """A solve of L(T) + (weight/2) * norm(T)^2, certified by its duality gap."""

    T: np.ndarray
    norm: float
    objective: float
    iterations: int
    converged: bool
    gap: float
    trace: list = field(default_factory=list)


def gcg_minimize(loss, alpha, d, tol=1e-6, max_iter=1000):
    """Generalized conditional gradient for L(T) + (alpha/2) * norm(T)^2.

    Starts from T = 0 with norm tracker s = 0.  Each iteration takes the
    gradient G of L, forms the unit-norm atom S = -subgradient of the dual
    norm at G (whose rescaling by dual(G)/alpha minimizes the linearized
    model <G, S> + (alpha/2) norm(S)^2), line-searches over combinations
    a*T + b*S (``gcg_line_search``: projected Newton on (a, b), so each
    iteration costs a handful of segment evaluations), and updates
    s <- a*s + b.  Stops when the gap estimate, evaluated at the rescaled
    atom, falls below ``tol``, when the relative decrease of the majorized
    objective does (a stall) or after ``max_iter`` steps.  ``gap`` is that
    of the returned iterate and ``converged`` says it is below ``tol``: a
    stall or the cap certifies nothing.  ``loss`` is a SmoothProblem whose
    ``segment`` must be set; a ValueError says so otherwise.
    """
    if loss.segment is None:
        raise ValueError("gcg_minimize needs loss.segment for its line search")

    def gap_and_atom(T, s, f, G, iteration):
        """The gap at (T, s) and the unit atom at G; (0, None) when G = 0."""
        if not np.isfinite(f) or not np.all(np.isfinite(G)):
            raise SolverDivergence(f"non-finite loss or gradient at iteration {iteration}")
        dual = cluster_norm_dual(G, d)
        if dual <= 1e-300:
            return 0.0, None
        # unit-norm descent atom; the tracker update below stays a valid
        # norm majorization only because norm(S) = 1
        S = -cluster_norm_dual_subgradient(G, d)
        scaled = dual / alpha  # its rescaling minimizes <G,.> + (alpha/2) norm^2
        return float(np.sum(G * (T - scaled * S)) + alpha * s * (s - scaled)), S

    T = np.zeros(loss.shape)
    s = 0.0
    f, G = loss.value_and_grad(T)
    objective = float(f)
    trace = [{"iteration": 0, "objective": objective, "gap": None}]
    gap, S = gap_and_atom(T, s, f, G, 1)
    iteration = 0
    for iteration in range(1, max_iter + 1):
        if S is None or gap < tol:
            break
        a, b = gcg_line_search(loss, T, S, s, alpha)
        T = a * T + b * S
        s = a * s + b
        f, G = loss.value_and_grad(T)
        new_objective = float(f) + 0.5 * alpha * s * s
        decrease = objective - new_objective
        objective = new_objective
        trace.append({"iteration": iteration, "objective": objective, "gap": gap})
        gap, S = gap_and_atom(T, s, f, G, iteration + 1)
        if decrease < tol * max(1.0, abs(objective)):
            break  # stalled: stop, but only the gap certifies convergence

    norm_T = cluster_norm(T, d)
    return PenalizedResult(T, norm_T, float(f) + 0.5 * alpha * norm_T * norm_T, iteration,
                           S is None or gap < tol, gap, trace)


PROX_SHRINK = 0.9  # factor on the Lipschitz estimate after each accepted step


def prox_minimize(loss, w, d, tol=1e-6, max_iter=1000):
    """Accelerated proximal gradient for L(T) + (w/2) * norm(T)^2.

    FISTA with backtracking (Beck & Teboulle, 2009) from T = 0: each step
    is the exact prox (``cluster_prox``) of a gradient step of length 1/L
    from the momentum point.  L starts at 1, doubles until L's quadratic
    upper bound holds at the step and shrinks by ``PROX_SHRINK`` after it,
    so it follows the local curvature down as well as up.  A step that
    would raise the objective restarts the momentum (O'Donoghue & Candes,
    2015) and is taken again from the iterate, so the trace is monotone up
    to rounding.  Stops only when the gap <G, T> + (w/2) norm(T)^2 +
    dual(G)^2 / (2w) of the iterate, G = grad L(T), falls below ``tol``,
    or after ``max_iter`` steps.  A non-finite loss or gradient raises
    SolverDivergence.
    """
    def evaluate(T):
        f, G = loss.value_and_grad(T)
        if not np.isfinite(f) or not np.all(np.isfinite(G)):
            raise SolverDivergence(f"non-finite loss or gradient at iteration {steps}")
        return float(f), G

    def step(Y, fY, GY):
        nonlocal L
        while True:
            T, norm2 = cluster_prox(Y - GY / L, w / L, d)
            f, G = evaluate(T)
            D = T - Y
            if f <= fY + np.vdot(GY, D) + 0.5 * L * np.vdot(D, D) + 1e-12 * (1.0 + abs(fY)):
                L *= PROX_SHRINK
                return T, f, G, norm2, f + 0.5 * w * norm2
            L *= 2.0

    L, steps, theta, norm2 = 1.0, 0, 1.0, 0.0
    T = Y = np.zeros(loss.shape)
    f, G = fY, GY = evaluate(T)
    objective, trace = f, []
    while True:
        gap = float(np.vdot(G, T) + 0.5 * w * norm2 + cluster_norm_dual(G, d) ** 2 / (2.0 * w))
        trace.append({"iteration": steps, "objective": objective, "gap": gap})
        if gap < tol or steps >= max_iter:
            break
        steps += 1
        new = step(Y, fY, GY)
        if new[4] > objective and Y is not T:
            theta, new = 1.0, step(T, f, G)  # a plain step descends, up to rounding
        T_prev, (T, f, G, norm2, objective) = T, new
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        beta, theta = (theta - 1.0) / theta_next, theta_next
        Y = T + beta * (T - T_prev) if beta > 0.0 else T
        fY, GY = evaluate(Y) if beta > 0.0 else (f, G)
    return PenalizedResult(T, float(np.sqrt(norm2)), objective, steps, gap < tol, gap, trace)


def rowwise_objective(fam, X, M):
    """D_F(X, M X) for a row-stochastic M; the family's ``clamp`` keeps M X in its domain."""
    fam = family(fam)
    vals = row_divergence(fam, X, fam.clamp(M @ X))
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise SolverDivergence(f"non-finite objective at row {bad}")
    return float(max(np.sum(vals), 0.0))


def _row_curvature(fam, X):
    """Rows B -> (Y, L): Y = ``fam.clamp(B @ X)``, L_i the lesser of two bounds on
    row i's loss Hessian X' diag(h_i) X, h_i = ``fam.curvature(X_i, Y_i)``: max(h_i)
    lam_max(X'X) and Gershgorin's max_k sqrt(h_ik) sum_l |X'X|_kl sqrt(h_il)."""
    gram = X.T @ X
    lam, gram = np.linalg.eigvalsh(gram)[-1], np.abs(gram)

    def rows(B):
        Y = fam.clamp(B @ X)
        H = fam.curvature(X, Y)
        R = np.sqrt(H)
        return Y, np.minimum(H.max(axis=1) * lam, np.max(R * (R @ gram), axis=1))
    return rows


def _admm_rows_pg(fam, X, M, anchors, mu, curvature):
    """All ADMM row subproblems at once, solved inexactly.

    Row i minimizes D_F(X_i, m X) + ||m - anchors_i||^2 / (2 mu) over the
    simplex.  ``ADMM_ROW_STEPS`` plain projected-gradient steps start from
    the rows of M.  A step on row i has length 1 / (L_i + 1/mu), L_i the
    bound ``curvature`` (``_row_curvature(fam, X)``) gives at the step's
    start.  For euclidean (h = 1) that is the fixed step
    1 / (lam_max(X'X) + 1/mu).

    Returns ``(M, defect)``.  With g the loss gradient (no proximal term)
    and L_i the bound the last step took on row i,

        defect_i = g_i(M_K) - g_i(M_{K-1}) - (M_K - M_{K-1})_i L_i

    The last step's projection optimality then says M_K exactly minimizes
    each row objective minus <defect_i, m> over the simplex, whatever the
    step lengths, so ||defect|| measures how far the inexact row step is
    from an exact one (Boyd et al., 2011, section 3.4.4), and
    ``admm_solve`` counts it in its stop test.  Rows stay in the simplex,
    so y stays in the data hull and h stays finite.
    """
    def state(B):
        """Loss gradients and curvature bounds of the rows B."""
        Y, L = curvature(B)
        return ((Y - X) * fam.transfer_derivative(Y)) @ X.T, L

    M = simplex_project_rows(M)
    grads, L = state(M)
    for _ in range(ADMM_ROW_STEPS):
        eta = 1.0 / (L + 1.0 / mu)
        M_prev, grads_prev, L_prev = M, grads, L
        M = simplex_project_rows(M - eta[:, None] * (grads + (M - anchors) / mu))
        grads, L = state(M)
    return M, grads - grads_prev - (M - M_prev) * L_prev[:, None]


@dataclass
class AdmmResult:
    M: np.ndarray
    Z: np.ndarray
    multiplier: np.ndarray
    objective: float
    iterations: int
    converged: bool
    trace: list = field(default_factory=list)


ADMM_MU_SCALE = 4.0  # mu * max_i L_i at the uniform start; set with ADMM_ROW_STEPS by measurement
ADMM_RELAX = 1.6
ADMM_ROW_STEPS = 2
ADMM_MEMORY = 3  # Anderson memory: step differences extrapolated from


def _anderson(f, r, dF, dR):
    """Type-II Anderson point f - dF gamma, gamma = argmin ||r - dR gamma|| (normal
    equations, 1e-10 * trace ridge; Walker & Ni, 2011): f and r are the last step's
    F value and residual, dF and dR the differences of those between consecutive steps."""
    gram = np.array([[np.vdot(a, b) for b in dR] for a in dR])
    ridge = (1e-10 * np.trace(gram) + 1e-300) * np.eye(len(dR))
    x = f.copy()
    for g, a in zip(np.linalg.solve(gram + ridge, [np.vdot(a, r) for a in dR]), dF):
        x -= g * a
    return x


def admm_solve(X, d, fam="euclidean", tol=1e-5, max_iter=1000):
    """Minimize D_F(X, M X) over the ``simplex`` relaxation set by ADMM.

    Alternates (1) row-decoupled minimization of the loss plus proximity
    to Z + U over row simplices, (2) projection of R - U onto the
    ``rowsum`` set and (3) U <- U + Z - R, where U = mu * multiplier and
    R = a M + (1 - a) Z is over-relaxed by a = ``ADMM_RELAX`` (Eckstein &
    Bertsekas, 1992; Boyd et al., 2011, section 3.4.3).  Step (1) is
    ``_admm_rows_pg``'s inexact row step.  The solve stops when primal =
    ||M - Z||, dual = ||Z - Z_prev|| / mu and defect = ||row defect||
    (Frobenius) all drop below tol * sqrt(t), so a certified M is an exact
    row step up to the splitting's tolerance.  mu = ``ADMM_MU_SCALE`` /
    max_i L_i throughout, L_i the row step's curvature bound at the uniform
    start M = 11'/t: the curvature fixes the penalty's scale (Ghadimi et
    al., 2015), so the iterates do not depend on the scale of X.

    Steps (1)-(3) are one map F of x = (M, Z, U).  The next x is the
    Anderson extrapolation of the last ``ADMM_MEMORY`` + 1 steps
    (``_anderson``; Zhang, O'Donoghue & Boyd, 2020) instead of F(x).  A
    safeguard clears that history: a step from an extrapolated x whose
    ||F(x) - x|| exceeds the previous step's is discarded, and the run
    resumes from the previous F value.  Every step is one iteration and
    one trace row; the stop test reads the step just taken, whose
    residuals are KKT residuals from any (Z, U), so ``converged`` keeps
    its meaning.  The returned M and Z are the last step's: M has simplex
    rows (M @ X stays in the data hull; an extrapolated M only
    warm-starts step (1)), Z is in ``rowsum``, and at convergence they
    agree to the tolerance.
    """
    fam = family(fam)
    X = fam.check_domain(X)
    t = X.shape[0]
    x = f = np.stack([np.full((t, t), 1.0 / t), np.full((t, t), 1.0 / t), np.zeros((t, t))])
    curvature = _row_curvature(fam, X)
    mu = ADMM_MU_SCALE / max(float(np.max(curvature(x[0])[1])), 1e-300)
    threshold, trace, iteration, converged = tol * np.sqrt(t), [], 0, False
    last = fallback = None
    for iteration in range(1, max_iter + 1):
        M_in, Z_in, U = x
        M, row_defect = _admm_rows_pg(fam, X, M_in, Z_in + U, mu, curvature)
        relaxed = ADMM_RELAX * M + (1.0 - ADMM_RELAX) * Z_in
        Z = project_rowsum(relaxed - U, d)
        f = np.stack([M, Z, U + Z - relaxed])
        primal, dual = float(np.linalg.norm(M - Z)), float(np.linalg.norm(Z - Z_in) / mu)
        defect = float(np.linalg.norm(row_defect))
        trace.append({"iteration": iteration, "objective": rowwise_objective(fam, X, M),
                      "primal": primal, "dual": dual, "defect": defect, "mu": mu})
        converged = bool(max(primal, dual, defect) < threshold)
        if converged:
            break
        r = f - x
        res = float(np.linalg.norm(r))
        if fallback is not None and res > last[2]:
            x, last, fallback = fallback, None, None  # the safeguard rejects x
            continue
        dF, dR = (([], []) if last is None else  # a history starts after each rejection
                  ((dF + [f - last[0]])[-ADMM_MEMORY:], (dR + [r - last[1]])[-ADMM_MEMORY:]))
        last = (f, r, res)
        x, fallback = (_anderson(f, r, dF, dR), f) if dF else (f, None)
    return AdmmResult(f[0], f[1], f[2] / mu, rowwise_objective(fam, X, f[0]), iteration,
                      converged, trace)
