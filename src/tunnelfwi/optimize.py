"""L-BFGS search directions, three-point quadratic line search and the
multi-scale inversion loop.

Each frequency group is minimized on its own: the first step follows the
negative (preconditioned) gradient, later steps use the limited-memory
two-loop recursion.  The first trial step is the minimizer of the
Gauss-Newton model of the misfit along the search direction, computed on
the current model's factorizations; the second is the vertex of the
parabola through chi(0), chi'(0) and the first trial when that parabola is
convex, where chi'(0) is the adjoint gradient of the current model along
the direction.  A first trial within ``SETTLE_RTOL`` of that vertex is
accepted at once; otherwise the parabola is refitted through three misfit
samples until its vertex settles within ``SETTLE_RTOL`` of a sample
already taken.
Groups run in order of rising top frequency and hand their model to the
next group.
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

    def validate(self):
        if not self.groups:
            raise ScheduleError("schedule has no frequency groups")
        prev_top = 0.0
        for i, g in enumerate(self.groups):
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
    sched = FrequencySchedule(tuple(groups))
    sched.validate()
    return sched


# -- L-BFGS --------------------------------------------------------------------

class LbfgsHistory:
    """Bounded store of (step, gradient-change) pairs with positive curvature."""

    def __init__(self, capacity=5):
        self.capacity = int(capacity)
        self.pairs = []

    def push(self, s, y):
        sy = float(np.dot(s, y))
        if sy <= 0.0:
            return False  # would break positive definiteness
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
    """Vertex of the parabola through three (alpha, value) samples.

    Returns (vertex, curvature); a non-positive curvature flags a
    non-convex fit and yields vertex = None.
    """
    a1, a2, a3 = alphas
    f1, f2, f3 = values
    d21 = (f2 - f1) / (a2 - a1)
    d32 = (f3 - f2) / (a3 - a2)
    curv = (d32 - d21) / (a3 - a1)  # half the second derivative
    if curv <= 0.0 or not np.isfinite(curv):
        return None, curv
    return 0.5 * (a1 + a2) - d21 / (2.0 * curv), curv


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
    if alpha_init <= 0:
        raise LineSearchError(f"alpha_init must be > 0, got {alpha_init}")
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
        vertex, _ = _parabola_vertex(triple, [samples[a] for a in triple])
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


# -- generic driver (quadratic sanity tests, toy problems) ---------------------

def minimize_lbfgs(fun, grad, x0, max_iterations=50, capacity=5, grad_tol=1e-8,
                   alpha_init=1.0, step_limit=None):
    """Plain L-BFGS loop over a vector objective; returns (x, info dict).

    ``step_limit`` caps the first line-search trial at that move in the
    max norm, which sets a sane scale when the objective units are wild.
    """
    x = np.array(x0, dtype=float)
    history = LbfgsHistory(capacity)
    f = float(fun(x))
    g = np.asarray(grad(x), dtype=float)
    trace = [f]
    for it in range(max_iterations):
        if np.linalg.norm(g) < grad_tol:
            break
        d = lbfgs_direction(history, g)
        a0 = alpha_init if step_limit is None else step_limit / np.abs(d).max()
        try:
            alpha, f_new = line_search(lambda a: float(fun(x + a * d)),
                                       a0, chi0=f, slope0=float(g @ d))
        except LineSearchError:
            break
        x_new = x + alpha * d
        g_new = np.asarray(grad(x_new), dtype=float)
        history.push(x_new - x, g_new - g)
        x, f, g = x_new, f_new, g_new
        trace.append(f)
    return x, {"iterations": len(trace) - 1, "misfits": trace,
               "grad_norm": float(np.linalg.norm(g))}


# -- inversion loop -------------------------------------------------------------

@dataclass
class InversionSettings:
    max_iterations: int = 20
    reduction_threshold: float = 1e-3
    lbfgs_capacity: int = 5
    # first trial max|alpha d| as a fraction of the ambient S velocity, used
    # only when the Gauss-Newton step is not finite and positive; not a cap
    step_fraction: float = 0.01
    line_search_rounds: int = 5


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
        self.dof_map = asmmod.DofMap(self.mesh, self.cfg.degree)
        self.node_areas = asmmod.node_areas(self.mesh)

    def observed_records(self, omegas):
        try:
            stack = np.stack([self.observed[w] for w in omegas])
        except KeyError as exc:
            raise ScheduleError(f"no observed records at omega = {exc.args[0]}")
        return fwdmod.RecordSet(omegas=np.asarray(omegas), values=stack,
                                mask=self.layout.direction_mask(), layout=self.layout)


@dataclass
class IterationRecord:
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

    The L-BFGS history restarts so the first step follows the negative
    gradient; iteration stops at the cap, at a relative misfit reduction
    below the threshold, or when the line search fails or a trial's system is
    singular (keeping the last accepted model).  Only an iteration that
    passes the stop tests takes a gradient, on the kept solve; it completes
    the L-BFGS pair of the step before and gives the direction, the slope
    chi'(0) along it and, with the Gauss-Newton curvature on the same
    factorizations, the first trial step (``step_fraction`` ambient vs as
    max|alpha d| when that step is not finite and positive).  The best
    trial's misfit, residuals and factorizations are kept, so no model is
    solved twice.
    """
    omegas = tuple(float(w) for w in group)
    observed = data.observed_records(omegas)
    model = state.model
    history = LbfgsHistory(settings.lbfgs_capacity)
    log = list(state.log)
    alpha = 0.0  # the last accepted step, logged at the group's end
    grad_norm = 0.0  # of the last gradient taken, logged at the group's end
    previous = None  # (model values, gradient) where the last direction started

    chi, delta, kept = _group_misfit(model, omegas, data, observed)
    chi_prev = None
    iterations = 0
    for j in range(settings.max_iterations):
        if chi == 0.0:
            break
        if chi_prev is not None and (chi_prev - chi) < settings.reduction_threshold * chi_prev:
            break
        raw_vec, grad_vec = _group_gradient(data, delta, kept)
        grad_norm = float(np.linalg.norm(grad_vec))
        if previous is not None:
            history.push(model.values - previous[0], grad_vec - previous[1])
        previous = (model.values, grad_vec)
        d = lbfgs_direction(history, grad_vec)
        dmax = np.abs(d).max()
        if dmax == 0.0:
            log.append(IterationRecord(group_index, j, chi, 0.0, grad_norm, "zero gradient"))
            break
        slope0 = float(raw_vec @ d)
        curvature = _gauss_newton_curvature(data, kept, d)
        alpha_init = -slope0 / (2.0 * curvature) if curvature > 0.0 else np.nan
        if not 0.0 < alpha_init < np.inf:
            alpha_init = settings.step_fraction * data.ambient_vs / dmax
        kept = None  # live contexts: the best trial kept and the one being solved
        best = None  # (alpha, model, chi, residuals, kept) of the best trial

        def chi_of(a, _m=model, _d=d):
            nonlocal best
            trial = matmod.ModelVector(matmod.clamp_to_valid(_m.values + a * _d))
            value, residuals, trial_kept = _group_misfit(trial, omegas, data,
                                                         observed)
            # line_search accepts the first minimum below chi(0); NaN never
            if value < chi and (best is None or value < best[2]):
                best = (a, trial, value, residuals, trial_kept)
            return value

        try:
            alpha, _ = line_search(chi_of, alpha_init, chi0=chi,
                                   rounds=settings.line_search_rounds,
                                   slope0=slope0)
        except (LineSearchError, solvermod.SingularMatrixError) as exc:
            log.append(IterationRecord(group_index, j, chi, 0.0, grad_norm,
                                       f"line search failed: {exc}"))
            break

        if best is None or best[0] != alpha:
            raise RuntimeError(f"line search accepted alpha = {alpha!r}, "
                               "which is not the best trial kept")
        _, model, chi_new, delta, kept = best
        best = None
        log.append(IterationRecord(group_index, j, chi, alpha, grad_norm))
        chi_prev, chi = chi, chi_new
        iterations += 1

    log.append(IterationRecord(group_index, iterations, chi, alpha, grad_norm,
                               "group end"))
    return OptimizerState(model=model, iteration=state.iteration + iterations, log=log)


@dataclass
class InversionResult:
    model: matmod.ModelVector
    state: OptimizerState
    failures: list


def run_inversion(initial_model, schedule: FrequencySchedule, data: InversionData,
                  settings: InversionSettings, on_group_end=None) -> InversionResult:
    """Sequential multi-scale loop; each group seeds the next one.

    A group whose first solve meets a singular system is recorded in
    ``failures`` and the next group starts from the last model; any other
    error propagates.  ``on_group_end(group_index, state)``, if given, runs
    after every group, failed ones included.
    """
    schedule.validate()
    initial_model.validate()
    state = OptimizerState(model=initial_model)
    failures = []
    for gi, group in enumerate(schedule.groups):
        try:
            state = run_frequency_group(state, group, data, settings, group_index=gi)
        except solvermod.SingularMatrixError as exc:
            failures.append((gi, str(exc)))
        if on_group_end is not None:
            on_group_end(gi, state)
    return InversionResult(model=state.model, state=state, failures=failures)


def format_log(entries):
    """Delimited convergence log: group iteration chi alpha grad_norm note.
    grad_norm is the gradient norm at the model the line's direction starts
    from; on a group end line, at the start of the group's last direction."""
    lines = ["# group iteration chi alpha grad_norm note"]
    for r in entries:
        note = r.note.replace("\n", " ").replace(" ", "_") if r.note else "-"
        lines.append(f"{r.group} {r.iteration} {float(r.chi)!r} "
                     f"{float(r.alpha)!r} {float(r.grad_norm)!r} {note}")
    return "\n".join(lines) + "\n"


def parse_log(text):
    """Inverse of format_log."""
    entries = []
    for ln in text.splitlines():
        if not ln.strip() or ln.startswith("#"):
            continue
        g, it, chi, alpha, gn, note = ln.split()
        entries.append(IterationRecord(int(g), int(it), float(chi), float(alpha),
                                       float(gn),
                                       "" if note == "-" else note.replace("_", " ")))
    return entries
