"""L-BFGS search directions, three-point quadratic line search and the
multi-scale inversion loop.

Each frequency group is minimized on its own: the first step follows the
negative (preconditioned) gradient, later steps use the limited-memory
two-loop recursion; the step length comes from fitting a parabola through
three misfit samples and iterating the fit.  Groups run in order of rising
top frequency and hand their model to the next group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import adjoint as adjmod
from . import assembly as asmmod
from . import forward as fwdmod
from . import material as matmod
from . import solver as solvermod


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
            if not g or any(w <= 0 for w in g):
                raise ScheduleError(f"group {i} must contain positive frequencies")
            top = max(g)
            if top <= prev_top:
                raise ScheduleError(
                    f"group {i}: top frequency {top} does not exceed the "
                    f"previous group's top {prev_top}")
            prev_top = top

    def all_frequencies(self):
        out = []
        for g in self.groups:
            out.extend(g)
        return sorted(set(out))


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


def line_search(chi, alpha_init, chi0=None, rounds=5, max_backtracks=10):
    """Step length from iterated three-point parabola fits.

    ``chi`` maps a step length along the current search direction to the
    misfit.  Samples at {0, alpha_init, 2 alpha_init} seed the fit, the
    proposal moves the bracket toward the minimizer, and a non-convex fit
    falls back to halving.  Returns (alpha, chi(alpha)) with
    chi(alpha) < chi(0) or raises LineSearchError.
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
        for _ in range(max_backtracks):
            a *= 0.5
            if evaluate(a) < f0:
                return

    evaluate(alpha_init)
    evaluate(2.0 * alpha_init)

    triple = [0.0, alpha_init, 2.0 * alpha_init]
    for _ in range(rounds):
        vertex, _ = _parabola_vertex(triple, [samples[a] for a in triple])
        if vertex is None or vertex <= 0.0:
            backtrack(alpha_init)
            break
        vertex = min(vertex, 4.0 * max(triple))  # cap runaway extrapolation
        if any(abs(vertex - a) <= 1e-12 * max(1.0, abs(vertex)) for a in triple):
            break  # fit reproduces an existing sample: settled
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
                                       a0, chi0=f)
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
    step_fraction: float = 0.01  # of the ambient S velocity, caps |alpha d|
    line_search_rounds: int = 5
    strict: bool = False


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
    mask: object = None     # PreconditionMask or None

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
    gradient: np.ndarray = None
    alpha: float = None
    log: list = field(default_factory=list)


def _group_misfit(model, omegas, data: InversionData, observed, keep=False):
    """Misfit and residuals over a group, optionally keeping solve context."""
    out = fwdmod.solve_records(data.mesh, model, data.rho, omegas, data.layout,
                               data.source_amplitude, data.profile, data.cfg,
                               dof_map=data.dof_map, keep=keep)
    synthetic, kept = out if keep else (out, None)
    fit = adjmod.misfit(synthetic, observed)
    return fit.value, fit.residuals, kept


def _group_gradient(model, omegas, data: InversionData, delta, kept):
    """One multi-column adjoint solve per frequency on the kept factorizations."""
    pairs = {}
    for fi, omega in enumerate(omegas):
        res = kept[fi]
        rhs = adjmod.adjoint_source(delta[fi], data.layout, data.mesh, data.dof_map)
        u_adj = adjmod.adjoint_field(res.factorization, rhs)
        pairs[omega] = [(f.u, u_adj[:, si]) for si, f in enumerate(res.fields)]
    grad = adjmod.accumulate_gradient(pairs, data.mesh, model, data.rho,
                                      data.profile, data.cfg, data.dof_map,
                                      areas=data.node_areas)
    if data.mask is not None:
        grad = adjmod.precondition(grad, data.mask)
    return grad


def run_frequency_group(state: OptimizerState, group, data: InversionData,
                        settings: InversionSettings, group_index=0) -> OptimizerState:
    """Minimize the misfit over one frequency group, starting from state.model.

    The L-BFGS history restarts so the first step follows the negative
    gradient; iteration stops at the cap, at a relative misfit reduction
    below the threshold, or on line-search failure (keeping the best model).
    The accepted step's misfit, residuals and factorizations are those the
    line search kept for its best trial; no model is solved twice.
    """
    omegas = tuple(float(w) for w in group)
    observed = data.observed_records(omegas)
    model = state.model
    history = LbfgsHistory(settings.lbfgs_capacity)
    log = list(state.log)
    alpha = state.alpha
    grad_vec = None

    chi, delta, kept = _group_misfit(model, omegas, data, observed, keep=True)
    chi_prev = None
    iterations = 0
    for j in range(settings.max_iterations):
        if chi == 0.0:
            break
        if chi_prev is not None and (chi_prev - chi) < settings.reduction_threshold * chi_prev:
            break
        if grad_vec is None:
            grad_vec = _group_gradient(model, omegas, data, delta, kept).values
        kept = None  # live contexts: the best trial kept and the one being solved
        d = lbfgs_direction(history, grad_vec)
        dmax = np.abs(d).max()
        if dmax == 0.0:
            log.append(IterationRecord(group_index, j, chi, 0.0, 0.0, "zero gradient"))
            break
        alpha_init = settings.step_fraction * data.ambient_vs / dmax
        best = None  # (alpha, model, chi, residuals, kept) of the best trial

        def chi_of(a, _m=model, _d=d):
            nonlocal best
            if a == 0.0:
                return chi
            trial = matmod.ModelVector(matmod.clamp_to_valid(_m.values + a * _d))
            value, residuals, trial_kept = _group_misfit(trial, omegas, data,
                                                         observed, keep=True)
            # line_search accepts the first minimum below chi(0); NaN never
            if value < chi and (best is None or value < best[2]):
                best = (a, trial, value, residuals, trial_kept)
            return value

        try:
            alpha, _ = line_search(chi_of, alpha_init, chi0=chi,
                                   rounds=settings.line_search_rounds)
        except LineSearchError as exc:
            log.append(IterationRecord(group_index, j, chi, 0.0,
                                       float(np.linalg.norm(grad_vec)),
                                       f"line search failed: {exc}"))
            if settings.strict:
                raise
            break

        if best is None or best[0] != alpha:
            raise RuntimeError(f"line search accepted alpha = {alpha!r}, "
                               "which is not the best trial kept")
        _, new_model, chi_new, delta, kept = best
        best = None
        new_grad = _group_gradient(new_model, omegas, data, delta, kept).values
        history.push(new_model.values - model.values, new_grad - grad_vec)
        log.append(IterationRecord(group_index, j, chi, alpha,
                                   float(np.linalg.norm(grad_vec))))
        model = new_model
        chi_prev, chi = chi, chi_new
        grad_vec = new_grad
        iterations += 1

    log.append(IterationRecord(group_index, iterations, chi,
                               alpha if alpha is not None else 0.0,
                               float(np.linalg.norm(grad_vec)) if grad_vec is not None else 0.0,
                               "group end"))
    return OptimizerState(model=model, iteration=state.iteration + iterations,
                          gradient=grad_vec, alpha=alpha, log=log)


@dataclass
class InversionResult:
    model: matmod.ModelVector
    state: OptimizerState
    group_models: list
    failures: list


def run_inversion(initial_model, schedule: FrequencySchedule, data: InversionData,
                  settings: InversionSettings) -> InversionResult:
    """Sequential multi-scale loop; each group seeds the next one.

    A group that ends in a line-search failure or a singular system is
    recorded in ``failures`` and the next group starts from the last model;
    any other error propagates.
    """
    schedule.validate()
    initial_model.validate()
    state = OptimizerState(model=initial_model)
    group_models = []
    failures = []
    for gi, group in enumerate(schedule.groups):
        try:
            state = run_frequency_group(state, group, data, settings, group_index=gi)
        except (LineSearchError, solvermod.SingularMatrixError) as exc:
            failures.append((gi, str(exc)))
            if settings.strict:
                raise
        group_models.append(state.model)
    return InversionResult(model=state.model, state=state,
                           group_models=group_models, failures=failures)


def format_log(entries):
    """Delimited convergence log: group iteration chi alpha grad_norm note."""
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
