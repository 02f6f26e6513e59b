"""L-BFGS search directions, three-point quadratic line search, the one
L-BFGS loop and the multi-scale inversion.

``_descend`` is the only L-BFGS loop: ``run_frequency_group`` runs it on a
group's misfit and ``minimize_lbfgs`` on a vector objective, so criterion 6
checks the optimizer that an inversion runs.  Each group is minimized on
its own: the first step follows the negative (preconditioned) gradient,
later steps the two-loop recursion.  The first trial step minimizes the
Gauss-Newton model of the misfit along the direction, on the current
model's factorizations; ``line_search`` then fits parabolas through chi(0),
the adjoint slope chi'(0) and misfit samples until the vertex settles
within ``SETTLE_RTOL`` of a sample already taken.  Groups run in order of
rising top frequency and hand their model to the next group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import adjoint as adjmod
from . import assembly as asmmod
from . import forward as fwdmod
from . import material as matmod
from . import solver as solvermod


# the parabola fit has settled once its vertex lies within this fraction of
# itself from a sample of the current triple; relative, so any step scale
SETTLE_RTOL = 1e-2
# first trial max|alpha d| as a fraction of the ambient S velocity, used only
# when the Gauss-Newton step is not finite and positive; not a cap
STEP_FRACTION = 0.01
# halvings of the first trial step before the line search gives up
MAX_BACKTRACKS = 10


class ScheduleError(ValueError):
    pass


class LineSearchError(RuntimeError):
    pass


# -- frequency schedule -------------------------------------------------------

@dataclass(frozen=True)
class FrequencySchedule:
    groups: tuple

    def __post_init__(self):
        groups = tuple(tuple(float(w) for w in g) for g in self.groups)
        object.__setattr__(self, "groups", groups)
        if not groups:
            raise ScheduleError("schedule has no frequency groups")
        prev_top = 0.0
        for i, g in enumerate(groups):
            if not g or not all(0.0 < w < np.inf for w in g):
                raise ScheduleError(f"group {i} must contain positive finite frequencies")
            for w in g:
                if g.count(w) > 1:
                    raise ScheduleError(f"group {i} lists frequency {w} more than once")
            top = max(g)
            if top <= prev_top:
                raise ScheduleError(
                    f"group {i}: top frequency {top} does not exceed the "
                    f"previous group's top {prev_top}")
            prev_top = top

    def all_frequencies(self):
        return sorted({w for g in self.groups for w in g})


def blindtest_schedule() -> FrequencySchedule:
    """Built-in 28-group schedule: 8 singletons, then 20 two-frequency groups
    whose top rises by 200 rad/s while the companion stays low."""
    groups = [(300.0 + 100.0 * k,) for k in range(8)]
    for k in range(20):
        hi = 1200.0 + 200.0 * k
        lo = 600.0 + 100.0 * k if k <= 15 else 1980.0 - 120.0 * (k - 16)
        groups.append((lo, hi))
    return FrequencySchedule(tuple(groups))


# -- L-BFGS --------------------------------------------------------------------

class LbfgsHistory:
    """Bounded store of (step, gradient-change) pairs with positive curvature."""

    def __init__(self, capacity=5):
        self.capacity = int(capacity)
        self.pairs = []

    def push(self, s, y):
        sy = float(np.dot(s, y))
        if not sy > 0.0:
            return False  # would break positive definiteness (NaN too)
        self.pairs.append((np.array(s, dtype=float), np.array(y, dtype=float), sy))
        if len(self.pairs) > self.capacity:
            self.pairs.pop(0)
        return True

    def __len__(self):
        return len(self.pairs)


def lbfgs_direction(history: LbfgsHistory, g):
    """Two-loop recursion; empty history falls back to steepest descent."""
    g = np.asarray(g, dtype=float)
    if not len(history):
        return -g
    q = g.copy()
    alphas = []
    for s, y, sy in reversed(history.pairs):
        a = np.dot(s, q) / sy
        q -= a * y
        alphas.append(a)
    s, y, sy = history.pairs[-1]
    q *= sy / np.dot(y, y)  # scaled initial inverse Hessian
    for (s, y, sy), a in zip(history.pairs, reversed(alphas)):
        b = np.dot(y, q) / sy
        q += (a - b) * s
    return -q


# -- three-point quadratic line search -----------------------------------------

def _parabola_vertex(alphas, values):
    """Vertex of the parabola through three (alpha, value) samples, or None
    when the fit is not convex."""
    a1, a2, a3 = alphas
    f1, f2, f3 = values
    d21 = (f2 - f1) / (a2 - a1)
    d32 = (f3 - f2) / (a3 - a2)
    curv = (d32 - d21) / (a3 - a1)  # half the second derivative
    if curv <= 0.0 or not np.isfinite(curv):
        return None
    return 0.5 * (a1 + a2) - d21 / (2.0 * curv)


def line_search(chi, alpha_init, chi0=None, rounds=5, slope0=None):
    """Step length from iterated three-point parabola fits.

    ``chi`` maps a step length along the current search direction to the
    misfit and ``slope0`` is its derivative at 0, if known.  A negative
    slope and the first trial at ``alpha_init`` fit a parabola; when it is
    convex, its vertex (capped at 4 alpha_init) is the second trial, and a
    vertex within ``SETTLE_RTOL`` of an improving first trial accepts that
    trial at once (Nocedal & Wright, Numerical Optimization, section 3.5).
    Without such a fit the second trial is 2 alpha_init.  The three samples
    seed the fit, the proposal moves the bracket toward the minimizer, and
    a non-convex fit falls back to halving.  The fit stops, without
    evaluating its vertex, once that vertex lies within ``SETTLE_RTOL`` of
    itself from a sample of the current triple (after re-bracketing, the
    triple holds the previous vertex); ``rounds`` caps the refits.  Returns
    (alpha, chi(alpha)) with chi(alpha) < chi(0) or raises LineSearchError.
    """
    if not 0.0 < alpha_init < np.inf:
        raise LineSearchError(f"alpha_init must be positive and finite, got {alpha_init}")
    f0 = chi(0.0) if chi0 is None else float(chi0)
    samples = {0.0: f0}

    def evaluate(a):
        if a not in samples:
            samples[a] = float(chi(a))
        return samples[a]

    def best_improving():
        pairs = [(a, f) for a, f in samples.items() if a > 0 and f < f0]
        return min(pairs, key=lambda p: p[1]) if pairs else None

    def backtrack(start):
        a = start
        for _ in range(MAX_BACKTRACKS):
            a *= 0.5
            if evaluate(a) < f0:
                return

    f1 = evaluate(alpha_init)
    second = 2.0 * alpha_init
    if slope0 is not None and slope0 < 0.0:
        curv = (f1 - f0 - slope0 * alpha_init) / alpha_init ** 2
        if np.isfinite(curv) and curv > 0.0:
            second = min(-slope0 / (2.0 * curv), 4.0 * alpha_init)
            if abs(second - alpha_init) <= SETTLE_RTOL * second and f1 < f0:
                return alpha_init, f1
    evaluate(second)

    triple = sorted([0.0, alpha_init, second])
    for _ in range(rounds):
        vertex = _parabola_vertex(triple, [samples[a] for a in triple])
        if vertex is None or vertex <= 0.0:
            backtrack(alpha_init)
            break
        vertex = min(vertex, 4.0 * max(triple))  # cap runaway extrapolation
        if any(abs(vertex - a) <= SETTLE_RTOL * vertex for a in triple):
            break  # fit lands on a sample already taken: settled
        evaluate(vertex)
        # re-bracket around the best sample seen so far
        pts = sorted(samples.items())
        best = min(range(len(pts)), key=lambda i: pts[i][1])
        lo = max(0, min(best - 1, len(pts) - 3))
        triple = [pts[lo][0], pts[lo + 1][0], pts[lo + 2][0]]

    found = best_improving()
    if found is None:
        backtrack(alpha_init)
        found = best_improving()
    if found is None:
        raise LineSearchError(
            f"no step length with misfit below {f0:.6e} after "
            f"{len(samples) - 1} trials")
    return found


# -- L-BFGS driver ------------------------------------------------------------------

def _descend(x, evaluate, gradient, first_trial, project, max_iterations, capacity,
             rounds, grad_tol=0.0, stop=lambda f, f_prev: False, errors=(LineSearchError,)):
    """The one L-BFGS loop (Nocedal & Wright, Numerical Optimization, Alg. 7.5).

    ``evaluate(x)`` gives (f, payload), ``gradient(x, payload)`` the gradients
    for the slope f'(0) and for the two-loop recursion, ``first_trial(payload,
    d, slope0)`` the first trial step and ``project`` the trial point of
    x + alpha d.  The cap or ``stop(f, f_prev)`` (f_prev None at first) ends
    the run before a gradient; a zero gradient (norm below ``grad_tol``) or
    one of ``errors`` from the line search ends it at the last accepted x.
    Returns (x, f, steps), one step (f, alpha, grad_norm, note) per iteration
    at its direction's start; a stop step has alpha 0.0 and a note.  One of
    ``errors`` at the start gives (x, nan, [(nan, 0.0, 0.0, "failed: ...")]).
    """
    history = LbfgsHistory(capacity)
    # evaluated here, so the caller holds no payload through the iteration
    try:
        f, payload = evaluate(x)
    except errors as exc:
        return x, np.nan, [(np.nan, 0.0, 0.0, f"failed: {exc}")]
    f_prev = previous = None  # previous: (x, gradient) where the last direction started
    steps = []
    for _ in range(max_iterations):
        if stop(f, f_prev):
            break
        slope_grad, g = gradient(x, payload)
        grad_norm = float(np.linalg.norm(g))
        if previous is not None:
            history.push(x - previous[0], g - previous[1])
        previous = (x, g)
        d = lbfgs_direction(history, g)
        if np.abs(d).max() == 0.0 or grad_norm < grad_tol:
            steps.append((f, 0.0, grad_norm, "zero gradient"))
            break
        slope0 = float(slope_grad @ d)
        alpha_init = first_trial(payload, d, slope0)
        payload = best = None  # live payloads: the best trial's and the one being evaluated

        def chi(a, _x=x, _d=d):
            nonlocal best
            trial = project(_x + a * _d)
            value, trial_payload = evaluate(trial)
            # line_search accepts the first minimum below chi(0); NaN never
            if value < f and (best is None or value < best[2]):
                best = (a, trial, value, trial_payload)
            return value

        try:
            alpha, _ = line_search(chi, alpha_init, chi0=f, rounds=rounds, slope0=slope0)
        except errors as exc:
            steps.append((f, 0.0, grad_norm, f"line search failed: {exc}"))
            break
        if best is None or best[0] != alpha:
            raise RuntimeError(f"line search accepted alpha = {alpha!r}, "
                               "which is not the best trial kept")
        steps.append((f, alpha, grad_norm, ""))
        f_prev = f
        _, x, f, payload = best
    return x, f, steps


def minimize_lbfgs(fun, grad, x0, max_iterations=50, capacity=5, grad_tol=1e-8,
                   alpha_init=1.0, step_limit=None):
    """L-BFGS over a vector objective on the inversion's loop; returns (x, info).

    ``step_limit`` caps the first line-search trial at that move in the
    max norm, which sets a sane scale when the objective units are wild.
    ``info["grad_norm"]`` is the norm of the last gradient taken (0.0 if none).
    """
    # a bad step would end the first line search, which reads as a stop
    if not 0.0 < alpha_init < np.inf:
        raise ValueError(f"alpha_init must be positive and finite, got {alpha_init}")
    if step_limit is not None and not 0.0 < step_limit < np.inf:
        raise ValueError(f"step_limit must be positive and finite, got {step_limit}")

    def first_trial(_, d, slope0):
        return alpha_init if step_limit is None else step_limit / np.abs(d).max()

    # f may take any sign, so no stop rule; one gradient gives slope and direction
    x, f, steps = _descend(np.array(x0, dtype=float), lambda x: (float(fun(x)), None),
                           lambda x, _: (np.asarray(grad(x), dtype=float),) * 2,
                           first_trial, lambda x: x, max_iterations, capacity, 5, grad_tol)
    accepted = [s[0] for s in steps if not s[3]]
    return x, {"iterations": len(accepted), "misfits": accepted + [f],
               "grad_norm": steps[-1][2] if steps else 0.0}


# -- inversion loop -------------------------------------------------------------

@dataclass
class InversionSettings:
    max_iterations: int = 20
    reduction_threshold: float = 1e-3
    lbfgs_capacity: int = 5
    line_search_rounds: int = 5

    def __post_init__(self):
        for name in ("max_iterations", "lbfgs_capacity", "line_search_rounds"):
            n = getattr(self, name)
            if not asmmod._is_int(n):
                raise ValueError(f"{name} must be an integer, got {n!r}")
            if n <= 0:
                raise ValueError(f"{name} must be > 0, got {n}")
        if not 0 < self.reduction_threshold < np.inf:
            raise ValueError(f"reduction_threshold must be finite and > 0, "
                             f"got {self.reduction_threshold}")


@dataclass
class InversionData:
    """Everything an inversion needs besides the current model."""

    mesh: object
    layout: object
    profile: object
    cfg: object
    rho: float
    ambient_vs: float
    observed: dict          # omega -> (n_s, n_r, 2) complex array
    source_amplitude: object  # callable omega -> complex amplitude
    mask: np.ndarray = None  # per-node factors from adjoint.build_mask, or None

    def __post_init__(self):
        shape = (self.layout.n_sources, self.layout.n_receivers, 2)
        for w, values in self.observed.items():
            if np.shape(values) != shape:
                raise ValueError(f"observed records at omega = {w} have shape "
                                 f"{np.shape(values)}, expected {shape}")
            if not np.isfinite(values).all():
                raise ValueError(f"observed records at omega = {w} are not finite")
        if self.mask is not None and np.shape(self.mask) != (self.mesh.n_nodes,):
            raise ValueError(f"mask has shape {np.shape(self.mask)}, "
                             f"expected {(self.mesh.n_nodes,)}")
        self.dof_map = asmmod.DofMap.of(self.mesh, self.cfg.degree)
        self.node_areas = asmmod.node_areas(self.mesh)

    def observed_records(self, omegas):
        try:
            stack = np.stack([self.observed[w] for w in omegas])
        except KeyError as exc:
            raise ScheduleError(f"no observed records at omega = {exc.args[0]}")
        return fwdmod.RecordSet(omegas=np.asarray(omegas), values=stack,
                                mask=self.layout.direction_mask())


@dataclass
class IterationRecord:
    """One convergence-log line; grad_norm is taken where the line's direction
    starts (on a group end line, where the group's last direction starts)."""
    group: int
    iteration: int
    chi: float
    alpha: float
    grad_norm: float
    note: str = ""


@dataclass
class OptimizerState:
    model: matmod.ModelVector
    iteration: int = 0
    log: list = field(default_factory=list)


def _group_misfit(model, omegas, data: InversionData, observed):
    """Misfit, residuals and the kept solve context over a group."""
    synthetic, kept = fwdmod.solve_records(
        data.mesh, model, data.rho, omegas, data.layout, data.source_amplitude,
        data.profile, data.cfg, dof_map=data.dof_map, keep=True)
    fit = adjmod.misfit(synthetic, observed)
    return fit.value, fit.residuals, kept


def _group_gradient(data: InversionData, delta, kept):
    """One multi-column adjoint solve per frequency on the kept factorizations.

    Returns (raw, grad): ``raw`` is the derivative of the misfit with respect
    to the kept solves' model vector, ``grad`` its preconditioned form that
    drives L-BFGS.
    """
    adjoint_fields = [adjmod.adjoint_field(res.factorization, adjmod.adjoint_source(
        residual, data.layout, res.system.dof_map)) for residual, res in zip(delta, kept)]
    raw = adjmod.accumulate_gradient(kept, adjoint_fields)
    return raw, adjmod.precondition(raw, data.mask, data.node_areas)


def _gauss_newton_curvature(data: InversionData, kept, d):
    """Curvature sum |J d|^2 of the Gauss-Newton model of the misfit along d.

    chi(a) ~ sum |delta + a J d|^2 over the group's frequencies, sources
    and recorded directions, so its minimizer is -chi'(0) / (2 sum |J d|^2)
    (Pratt, Shin & Hicks, GJI 133, 1998).  One multi-column solve per
    frequency on the kept factorizations.
    """
    return sum(float(np.sum(np.abs(adjmod.linearized_records(res, d, data.layout)) ** 2))
               for res in kept)


def run_frequency_group(state: OptimizerState, group, data: InversionData,
                        settings: InversionSettings, group_index=0) -> OptimizerState:
    """Minimize the misfit over one frequency group, starting from state.model.

    The loop starts a fresh L-BFGS history, so the first step follows the
    negative gradient.  Gradients come from the kept solve, and the first
    trial step is the Gauss-Newton step on its factorizations
    (``STEP_FRACTION`` ambient vs as max|alpha d| when that step is not
    finite and positive); trials are clamped to valid models.  Each driver
    step is one log line, then comes the group end line.
    """
    omegas = tuple(float(w) for w in group)
    observed = data.observed_records(omegas)

    def evaluate(x):
        chi, delta, kept = _group_misfit(matmod.ModelVector(x), omegas, data, observed)
        return chi, (delta, kept)

    def first_trial(payload, d, slope0):
        curvature = _gauss_newton_curvature(data, payload[1], d)
        alpha = -slope0 / (2.0 * curvature) if curvature > 0.0 else np.nan
        if not 0.0 < alpha < np.inf:
            alpha = STEP_FRACTION * data.ambient_vs / np.abs(d).max()
        return alpha

    def stop(chi, prev):  # the misfit is never negative, so 0 is a minimizer
        return chi == 0.0 or (prev is not None
                              and prev - chi < settings.reduction_threshold * prev)

    x, chi, steps = _descend(
        state.model.values, evaluate, lambda x, payload: _group_gradient(data, *payload),
        first_trial, matmod.clamp_to_valid, settings.max_iterations,
        settings.lbfgs_capacity, settings.line_search_rounds, stop=stop,
        errors=(LineSearchError, solvermod.SingularMatrixError))
    log = list(state.log) + [IterationRecord(group_index, j, *s) for j, s in enumerate(steps)]
    accepted = [s for s in steps if not s[3]]
    # the group's own last step (0.0 if none) and its last gradient (0.0 if none)
    log.append(IterationRecord(group_index, len(accepted), chi,
                               accepted[-1][1] if accepted else 0.0,
                               steps[-1][2] if steps else 0.0, "group end"))
    return OptimizerState(model=matmod.ModelVector(x),
                          iteration=state.iteration + len(accepted), log=log)


def run_inversion(initial_model, schedule: FrequencySchedule, data: InversionData,
                  settings: InversionSettings, on_group_end=None) -> OptimizerState:
    """Sequential multi-scale loop; each group seeds the next one.

    Returns the final state.  A singular system ends a group the way a
    failed line search does, its first solve's included (a ``failed: ...``
    line with chi NaN, and the group keeps its starting model); any other
    error propagates.  ``on_group_end(group_index, state)``, if given, runs
    after every group.  A model or missing frequency that cannot run fails
    before the first group.
    """
    initial_model.validate()
    missing = [w for w in schedule.all_frequencies() if w not in data.observed]
    if missing:
        raise ScheduleError("no observed records at omega = "
                            + ", ".join(map(str, missing)))
    state = OptimizerState(model=initial_model)
    for gi, group in enumerate(schedule.groups):
        state = run_frequency_group(state, group, data, settings, group_index=gi)
        if on_group_end is not None:
            on_group_end(gi, state)
    return state
