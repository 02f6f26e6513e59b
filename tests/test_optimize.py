import numpy as np
import pytest

from tunnelfwi.adjoint import adjoint_field, adjoint_source, accumulate_gradient
from tunnelfwi.assembly import DiscretizationConfig
from tunnelfwi.fileio import write_convergence_log
from tunnelfwi.forward import forward_solve, sample_receivers
from tunnelfwi.material import ModelVector
from tunnelfwi.mesh import (Receiver, Source, StationLayout, TunnelGeometry,
                            build_tunnel_mesh)
from tunnelfwi.optimize import (FrequencySchedule, InversionData,
                                InversionSettings, LbfgsHistory,
                                LineSearchError, OptimizerState, ScheduleError,
                                blindtest_schedule, lbfgs_direction,
                                line_search, minimize_lbfgs,
                                run_frequency_group, run_inversion)
from tunnelfwi.pml import PmlProfile

RHO = 2500.0


# -- schedule -------------------------------------------------------------------

def test_blindtest_schedule_term_for_term():
    sched = blindtest_schedule()
    groups = sched.groups
    assert len(groups) == 28
    assert groups[:8] == tuple((300.0 + 100.0 * k,) for k in range(8))
    assert groups[8] == (600.0, 1200.0)
    assert groups[9] == (700.0, 1400.0)
    assert groups[23] == (2100.0, 4200.0)
    assert groups[24] == (1980.0, 4400.0)
    assert groups[27] == (1620.0, 5000.0)
    highs = [max(g) for g in groups]
    assert all(b > a for a, b in zip(highs, highs[1:]))


def test_schedule_validation():
    FrequencySchedule(((100.0,), (50.0, 200.0)))
    with pytest.raises(ScheduleError):
        FrequencySchedule(((200.0,), (100.0,)))  # top not rising
    with pytest.raises(ScheduleError):
        FrequencySchedule(((100.0,), (100.0,)))
    with pytest.raises(ScheduleError):
        FrequencySchedule(((0.0,),))
    with pytest.raises(ScheduleError):
        FrequencySchedule(())


@pytest.mark.parametrize("omega", [np.nan, np.inf])
def test_schedule_rejects_nan_and_inf_frequencies(omega):
    with pytest.raises(ScheduleError, match="group 1 must contain positive finite"):
        FrequencySchedule(((100.0,), (omega,)))


# -- L-BFGS ---------------------------------------------------------------------

def test_direction_empty_history_is_steepest_descent():
    h = LbfgsHistory(5)
    g = np.array([1.0, -2.0])
    np.testing.assert_array_equal(lbfgs_direction(h, g), np.array([-1.0, 2.0]))


def test_history_rejects_nonpositive_curvature():
    h = LbfgsHistory(5)
    assert not h.push(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    assert len(h) == 0
    assert h.push(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
    assert len(h) == 1


def test_history_rejects_a_nan_pair():
    # a stored NaN pair would make every later direction NaN
    h = LbfgsHistory(5)
    assert not h.push(np.array([1.0, np.nan]), np.array([2.0, 0.0]))
    assert len(h) == 0
    assert np.all(np.isfinite(lbfgs_direction(h, np.array([1.0, -2.0]))))


def test_history_capacity():
    h = LbfgsHistory(2)
    for i in range(4):
        h.push(np.array([1.0 + i, 0.0]), np.array([1.0, 0.0]))
    assert len(h) == 2
    assert h.pairs[0][0][0] == 3.0  # oldest surviving pair


def dense_bfgs_direction(pairs, g):
    """Inverse-BFGS update applied to the scaled identity, oldest first."""
    n = len(g)
    s_l, y_l, sy_l = pairs[-1]
    H = (sy_l / (y_l @ y_l)) * np.eye(n)
    for s, y, sy in pairs:
        rho = 1.0 / sy
        V = np.eye(n) - rho * np.outer(s, y)
        H = V @ H @ V.T + rho * np.outer(s, s)
    return -H @ g


def test_two_loop_matches_dense_bfgs_oracle():
    rng = np.random.default_rng(80)
    n = 5
    A = rng.normal(size=(n, n))
    Q = A @ A.T + n * np.eye(n)  # SPD quadratic 0.5 x'Qx - b'x
    b = rng.normal(size=n)
    x = np.zeros(n)
    h = LbfgsHistory(capacity=10)
    for it in range(6):
        g = Q @ x - b
        d = lbfgs_direction(h, g)
        if h.pairs:
            oracle = dense_bfgs_direction(h.pairs, g)
            np.testing.assert_allclose(d, oracle, rtol=1e-10, atol=1e-12)
        alpha = -(g @ d) / (d @ Q @ d)  # exact line search on the quadratic
        x_new = x + alpha * d
        g_new = Q @ x_new - b
        h.push(x_new - x, g_new - g)
        x = x_new


def test_directions_are_descent():
    rng = np.random.default_rng(81)
    h = LbfgsHistory(5)
    for _ in range(10):
        s = rng.normal(size=7)
        y = rng.normal(size=7)
        if s @ y > 0:
            h.push(s, y)
    for _ in range(20):
        g = rng.normal(size=7)
        d = lbfgs_direction(h, g)
        assert g @ d < 0


# -- line search ------------------------------------------------------------------

def test_line_search_exact_quadratic_one_fit():
    calls = []

    def chi(a):
        calls.append(a)
        return (a - 1.0) ** 2

    alpha, value = line_search(chi, 1.0)
    assert alpha == pytest.approx(1.0, abs=1e-12)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_line_search_hand_fit_parabola():
    # samples (0, 4), (1, 1), (2, 0) fit a^2 - 4a + 4 with vertex at 2
    table = {0.0: 4.0, 1.0: 1.0, 2.0: 0.0}

    def chi(a):
        return table.get(a, (a - 2.0) ** 2)

    alpha, value = line_search(chi, 1.0)
    assert alpha == pytest.approx(2.0, abs=1e-12)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_line_search_finds_a_minimizer_far_below_alpha_init():
    def chi(a):
        # increasing on [0, 1]: only very small steps decrease
        return (a - 0.01) ** 2

    alpha, value = line_search(chi, 1.0)
    assert alpha < 1.0
    assert value < chi(0.0)


def test_line_search_halves_when_the_fit_has_no_positive_vertex():
    # chi(0), chi(1), chi(2) lie on a^2, whose vertex is 0: the search
    # halves from alpha_init until a step improves
    trials = []

    def chi(a):
        trials.append(a)
        return a * a if a >= 0.2 else -a

    alpha, value = line_search(chi, 1.0)
    assert trials == [0.0, 1.0, 2.0, 0.5, 0.25, 0.125]
    assert (alpha, value) == (0.125, -0.125)


def test_line_search_failure():
    def chi(a):
        return 1.0 + a  # monotonically worse

    with pytest.raises(LineSearchError):
        line_search(chi, 1.0)


def counted_cosh(scale, calls):
    """Convex, non-quadratic misfit with its minimum at a = 1.3 * scale."""
    def chi(a):
        calls.append(a)
        return float(np.cosh(a / scale - 1.3))
    return chi


def test_line_search_is_scale_invariant():
    # the settle test is relative, so only the step's scale changes; the
    # slope of cosh(a/s - 1.3) at 0 scales as 1/s
    for slope in (None, np.sinh(-1.3)):
        found = {}
        for scale in (1e-12, 1.0, 1e12):
            calls = []
            slope0 = None if slope is None else slope / scale
            alpha, _ = line_search(counted_cosh(scale, calls), scale,
                                   slope0=slope0)
            found[scale] = (len(calls), alpha / scale)
        counts = {n for n, _ in found.values()}
        assert len(counts) == 1
        for _, ratio in found.values():
            assert ratio == pytest.approx(found[1.0][1], rel=1e-12)


def test_line_search_slope_seed_on_exact_quadratic():
    # chi = (a - 1)^2 with chi'(0) = -2: the fit through chi(0), chi'(0) and
    # chi(alpha_init) is chi itself, so its vertex is the minimizer
    for alpha_init, n_trials in ((1.0, 1), (0.5, 2)):
        calls = []

        def chi(a):
            calls.append(a)
            return (a - 1.0) ** 2

        alpha, value = line_search(chi, alpha_init, slope0=-2.0)
        assert alpha == pytest.approx(1.0, abs=1e-12)
        assert value == pytest.approx(0.0, abs=1e-24)
        assert sum(a != 0.0 for a in calls) == n_trials


# the trials of line_search(counted_cosh(1.0, calls), 1.0) under the blind
# 2 alpha_init seed: chi(0), the two seeds and two vertices
BLIND_SEED_TRIALS = [0.0, 1.0, 2.0, 1.3151934610898728, 1.2966457065269257]


@pytest.mark.parametrize("slope0", [None, 1.0, float("nan"), -0.5],
                         ids=["none", "ascent", "nan", "nonconvex_fit"])
def test_line_search_without_a_usable_slope_keeps_the_blind_seed(slope0):
    # -0.5 is shallower than the secant to alpha_init (-0.93): a concave fit
    calls = []
    line_search(counted_cosh(1.0, calls), 1.0, slope0=slope0)
    assert calls == pytest.approx(BLIND_SEED_TRIALS, rel=1e-12)


def test_line_search_stops_once_the_vertex_settles():
    calls = []
    rounds = 5
    alpha, value = line_search(counted_cosh(1.0, calls), 1.0, rounds=rounds)
    # chi(0), the two seed trials and two vertices; the third fit settles
    assert len(calls) == 5 < 3 + rounds
    assert alpha == pytest.approx(1.3, rel=2e-2)
    assert value < np.cosh(1.3)


def test_line_search_requires_positive_init():
    calls = []

    def chi(a):
        calls.append(a)
        return a * a

    for alpha_init in (0.0, np.nan, np.inf):
        with pytest.raises(LineSearchError, match="alpha_init must be positive and finite"):
            line_search(chi, alpha_init)
    assert calls == []


# -- generic driver ----------------------------------------------------------------

def test_minimize_quadratic_10dim():
    rng = np.random.default_rng(82)
    n = 10
    vals = np.linspace(1.0, 10.0, n)
    U, _ = np.linalg.qr(rng.normal(size=(n, n)))
    Q = U @ np.diag(vals) @ U.T
    b = rng.normal(size=n)

    fun = lambda x: 0.5 * x @ Q @ x - b @ x
    grad = lambda x: Q @ x - b
    x0 = rng.normal(size=n)
    x, info = minimize_lbfgs(fun, grad, x0, max_iterations=20, capacity=5,
                             grad_tol=1e-8)
    assert info["grad_norm"] < 1e-8
    assert info["iterations"] <= 20
    np.testing.assert_allclose(x, np.linalg.solve(Q, b), atol=1e-7)


def test_minimize_misfits_decrease():
    rng = np.random.default_rng(83)
    Q = np.diag([1.0, 4.0, 9.0])
    fun = lambda x: 0.5 * x @ Q @ x
    grad = lambda x: Q @ x
    _, info = minimize_lbfgs(fun, grad, rng.normal(size=3), max_iterations=15)
    m = info["misfits"]
    assert all(b < a for a, b in zip(m, m[1:]))


@pytest.mark.parametrize("k", [1, 3])
def test_minimize_stopped_by_the_cap_takes_one_gradient_per_iteration(k):
    Q = np.diag([1.0, 4.0, 9.0])
    points = []

    def grad(x):
        points.append(x)
        return Q @ x

    x, info = minimize_lbfgs(lambda x: 0.5 * x @ Q @ x, grad, np.ones(3),
                             max_iterations=k, grad_tol=0.0)
    assert info["iterations"] == k
    assert len(points) == k
    # the norm of the last gradient taken, where the last direction started
    assert info["grad_norm"] == np.linalg.norm(Q @ points[-1])
    assert not np.array_equal(x, points[-1])


def test_minimize_at_an_exact_minimizer_takes_no_step():
    Q, b = np.diag([1.0, 4.0]), np.array([2.0, 8.0])
    x0 = np.array([2.0, 2.0])  # Q x0 = b exactly
    x, info = minimize_lbfgs(lambda x: 0.5 * x @ Q @ x - b @ x, lambda x: Q @ x - b,
                             x0, grad_tol=0.0, step_limit=1.0)
    np.testing.assert_array_equal(x, x0)
    assert info["iterations"] == 0
    assert info["misfits"] == [-10.0]
    assert info["grad_norm"] == 0.0



def test_minimize_from_a_zero_objective_value():
    # f(x0) = 0 is no minimizer for an objective of any sign
    Q, b = np.diag([1.0, 4.0, 9.0]), np.array([1.0, -2.0, 3.0])
    x, info = minimize_lbfgs(lambda x: 0.5 * x @ Q @ x - b @ x, lambda x: Q @ x - b,
                             np.zeros(3), max_iterations=20)
    assert info["misfits"][0] == 0.0 and info["iterations"] > 0
    np.testing.assert_allclose(Q @ x, b, atol=1e-7)


def test_minimize_passes_a_singular_system_on():
    # only the inversion turns a singular trial into a stop; here the error is the caller's
    from tunnelfwi import solver

    def fun(x):
        if x[0] != 1.0:
            raise solver.SingularMatrixError("zero pivot")
        return float(x @ x)

    with pytest.raises(solver.SingularMatrixError):
        minimize_lbfgs(fun, lambda x: 2.0 * x, np.ones(2))


@pytest.mark.parametrize("name, value", [
    ("alpha_init", 0.0), ("alpha_init", np.nan), ("alpha_init", np.inf),
    ("step_limit", -1.0), ("step_limit", 0.0), ("step_limit", np.nan)],
    ids=["alpha_zero", "alpha_nan", "alpha_inf", "limit_negative", "limit_zero",
         "limit_nan"])
def test_minimize_rejects_a_bad_step_before_any_evaluation(name, value):
    # such a step used to end the first line search: x0 after 0 iterations
    calls = []

    def fun(x):
        calls.append(x)
        return float(x @ x)

    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, "
                                         f"got {value}$"):
        minimize_lbfgs(fun, lambda x: 2.0 * x, np.ones(2), **{name: value})
    assert calls == []


# -- inversion loop ----------------------------------------------------------------

def toy_problem(true_vp=4100.0, true_vs=2350.0, omegas=(1200.0, 2000.0)):
    """Small PML-free box with two stations and synthetic observed data."""
    mesh = build_tunnel_mesh(TunnelGeometry(8, 3, 0, 3, 0, 0, 1))
    profile = PmlProfile(c_pml=0.0, width=1.0)
    cfg = DiscretizationConfig(degree=1)
    layout = StationLayout(
        sources=(Source((2.0, 3.0), (0.0, 1.0)),),
        receivers=(Receiver((6.0, 3.0)), Receiver((5.0, 5.0))))
    truth = ModelVector.homogeneous(mesh, true_vp, true_vs)
    observed = {}
    for omega in omegas:
        res = forward_solve(mesh, truth, RHO, omega, layout, 1.0, profile, cfg)
        observed[omega] = np.stack(
            [sample_receivers(f, mesh, layout) for f in res.fields])
    data = InversionData(mesh=mesh, layout=layout, profile=profile, cfg=cfg,
                         rho=RHO, ambient_vs=2400.0, observed=observed,
                         source_amplitude=lambda w: 1.0)
    return mesh, data, truth


def test_group_on_converged_data_does_nothing():
    mesh, data, truth = toy_problem()
    state = OptimizerState(model=truth)
    out = run_frequency_group(state, (1200.0, 2000.0), data,
                              InversionSettings(max_iterations=5))
    assert out.iteration == 0
    np.testing.assert_array_equal(out.model.values, truth.values)


def test_group_misfit_monotone_and_logged():
    mesh, data, truth = toy_problem()
    start = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    state = OptimizerState(model=start)
    out = run_frequency_group(state, (1200.0, 2000.0), data,
                              InversionSettings(max_iterations=6))
    chis = [r.chi for r in out.log if r.note == ""]
    assert len(chis) >= 2
    assert all(b < a for a, b in zip(chis, chis[1:]))
    final = [r for r in out.log if r.note == "group end"][-1]
    assert final.chi < chis[0]


def test_missing_observed_frequency_rejected():
    mesh, data, truth = toy_problem(omegas=(1200.0,))
    state = OptimizerState(model=truth)
    with pytest.raises(ScheduleError):
        run_frequency_group(state, (999.0,), data, InversionSettings())


def test_run_inversion_checks_every_frequency_before_the_first_group():
    from tunnelfwi import solver
    mesh, data, truth = toy_problem(omegas=(1200.0, 2000.0))
    sched = FrequencySchedule(((1200.0,), (900.0, 2000.0), (2500.0,)))
    ends = []
    before = solver.factorization_count(), solver.fallback_count()
    with pytest.raises(ScheduleError, match="^no observed records at omega = 900.0, 2500.0$"):
        run_inversion(truth, sched, data, InversionSettings(max_iterations=1),
                      on_group_end=lambda gi, state: ends.append(gi))
    assert ends == []
    assert (solver.factorization_count(), solver.fallback_count()) == before


@pytest.mark.parametrize("bad", ["shape", "nan", "inf"])
def test_inversion_data_checks_observed_records(bad):
    from tunnelfwi import solver
    mesh, data, truth = toy_problem()
    observed = dict(data.observed)
    if bad == "shape":  # two sources' records for a one-source layout
        observed[2000.0] = np.concatenate([observed[2000.0]] * 2)
        message = (r"^observed records at omega = 2000.0 have shape \(2, 2, 2\), "
                   r"expected \(1, 2, 2\)$")
    else:
        observed[2000.0] = observed[2000.0].copy()
        observed[2000.0][0, 1, 0] = float(bad)
        message = "^observed records at omega = 2000.0 are not finite$"
    before = solver.factorization_count(), solver.fallback_count()
    with pytest.raises(ValueError, match=message):
        InversionData(mesh=mesh, layout=data.layout, profile=data.profile,
                      cfg=data.cfg, rho=RHO, ambient_vs=2400.0, observed=observed,
                      source_amplitude=lambda w: 1.0)
    assert (solver.factorization_count(), solver.fallback_count()) == before


def test_inversion_data_rejects_a_mask_of_another_length():
    # caught where the data is assembled, not after the first factorization
    from tunnelfwi import solver
    mesh, data, truth = toy_problem()
    n = mesh.n_nodes
    before = solver.factorization_count()
    with pytest.raises(ValueError, match=rf"^mask has shape \({n + 3},\), "
                                         rf"expected \({n},\)$"):
        InversionData(mesh=mesh, layout=data.layout, profile=data.profile,
                      cfg=data.cfg, rho=RHO, ambient_vs=2400.0, observed=data.observed,
                      source_amplitude=lambda w: 1.0, mask=np.ones(n + 3))
    assert solver.factorization_count() == before


def test_two_parameter_toy_recovers_truth():
    # homogeneous two-unknown inversion: chi over the (vp, vs) plane
    mesh, data, truth = toy_problem()
    omegas = (1200.0, 2000.0)
    dm = data.dof_map
    layout = data.layout
    mask = layout.direction_mask()

    def chi_of(vp, vs):
        model = ModelVector.homogeneous(mesh, vp, vs)
        total = 0.0
        for omega in omegas:
            res = forward_solve(mesh, model, RHO, omega, layout, 1.0,
                                data.profile, data.cfg, dof_map=dm)
            syn = np.stack([sample_receivers(f, mesh, layout) for f in res.fields])
            total += float(np.sum(np.abs((syn - data.observed[omega]) * mask) ** 2))
        return total

    # brute-force scan confirms the global minimum sits at the true pair
    vps = np.linspace(4050.0, 4150.0, 5)
    vss = np.linspace(2300.0, 2400.0, 5)
    grid = [(chi_of(vp, vs), vp, vs) for vp in vps for vs in vss]
    _, vp_best, vs_best = min(grid)
    assert vp_best == pytest.approx(4100.0)
    assert vs_best == pytest.approx(2350.0)

    def fun(x):
        return chi_of(x[0], x[1])

    def grad(x):
        model = ModelVector.homogeneous(mesh, x[0], x[1])
        kept, adjoint_fields = [], []
        for omega in omegas:
            res = forward_solve(mesh, model, RHO, omega, layout, 1.0,
                                data.profile, data.cfg, dof_map=dm)
            syn = np.stack([sample_receivers(f, mesh, layout) for f in res.fields])
            delta = (syn - data.observed[omega]) * mask
            rhs = adjoint_source(delta[0], layout, dm)
            kept.append(res)
            adjoint_fields.append(adjoint_field(res.factorization, rhs)[:, None])
        raw = accumulate_gradient(kept, adjoint_fields)
        n = mesh.n_nodes  # plain chain rule: sum nodal entries per block
        return np.array([raw[:n].sum(), raw[n:].sum()])

    x, info = minimize_lbfgs(fun, grad, np.array([4000.0, 2400.0]),
                             max_iterations=40, capacity=5, grad_tol=0.0,
                             step_limit=40.0)
    assert abs(x[0] - 4100.0) < 1.0
    assert abs(x[1] - 2350.0) < 1.0


def test_run_inversion_single_group_equals_group_run():
    mesh, data, truth = toy_problem()
    start = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    settings = InversionSettings(max_iterations=3)
    sched = FrequencySchedule(((1200.0, 2000.0),))
    res = run_inversion(start, sched, data, settings)
    direct = run_frequency_group(OptimizerState(model=start), (1200.0, 2000.0),
                                 data, settings)
    np.testing.assert_array_equal(res.model.values, direct.model.values)


def test_run_inversion_on_consistent_data_keeps_model():
    mesh, data, truth = toy_problem()
    sched = FrequencySchedule(((1200.0,), (1200.0, 2000.0)))
    res = run_inversion(truth, sched, data, InversionSettings(max_iterations=3))
    np.testing.assert_array_equal(res.model.values, truth.values)
    assert [r.note for r in res.log] == ["group end", "group end"]


def test_inversion_deterministic_logs(tmp_path):
    mesh, data, truth = toy_problem()
    start = ModelVector.homogeneous(mesh, 4020.0, 2380.0)
    settings = InversionSettings(max_iterations=3)
    sched = FrequencySchedule(((1200.0, 2000.0),))
    logs = []
    for name in ("first.jsonl", "second.jsonl"):
        write_convergence_log(tmp_path / name,
                              run_inversion(start, sched, data, settings).log)
        logs.append((tmp_path / name).read_text())
    assert logs[0] and logs[0] == logs[1]


def test_run_inversion_propagates_unexpected_errors(monkeypatch):
    from tunnelfwi import adjoint
    mesh, data, truth = toy_problem()
    start = ModelVector.homogeneous(mesh, 4020.0, 2380.0)

    def broken(*args, **kwargs):
        raise TypeError("bug inside the group")

    monkeypatch.setattr(adjoint, "accumulate_gradient", broken)
    with pytest.raises(TypeError, match="bug inside the group"):
        run_inversion(start, FrequencySchedule(((1200.0,), (1200.0, 2000.0))),
                      data, InversionSettings(max_iterations=2))


def test_group_listing_a_frequency_twice_fails_before_any_solve():
    from tunnelfwi import solver
    mesh, data, truth = toy_problem()
    before = solver.factorization_count()
    with pytest.raises(ScheduleError, match="group 1 lists frequency 2000.0 more than once"):
        run_inversion(truth, FrequencySchedule(((1200.0,), (2000.0, 1200.0, 2000.0))),
                      data, InversionSettings(max_iterations=1))
    assert solver.factorization_count() == before


def test_nan_initial_model_fails_before_any_solve():
    from tunnelfwi import solver
    from tunnelfwi.material import InvalidMaterialError
    mesh, data, truth = toy_problem()
    values = truth.values.copy()
    values[mesh.n_nodes + 1] = np.nan
    before = solver.factorization_count()
    with pytest.raises(InvalidMaterialError, match="positive and finite"):
        run_inversion(ModelVector(values), FrequencySchedule(((1200.0,),)), data,
                      InversionSettings(max_iterations=1))
    assert solver.factorization_count() == before


def test_run_inversion_records_singular_group(monkeypatch):
    from tunnelfwi import solver
    mesh, data, truth = toy_problem()
    factorize = solver.factorize
    calls = []

    def first_fails(A):
        calls.append(1)
        if len(calls) == 1:
            raise solver.SingularMatrixError("zero pivot")
        return factorize(A)

    monkeypatch.setattr(solver, "factorize", first_fails)
    sched = FrequencySchedule(((1200.0,), (1200.0, 2000.0)))
    ended = []
    res = run_inversion(truth, sched, data, InversionSettings(max_iterations=3),
                        on_group_end=lambda gi, state: ended.append((gi, state)))
    # the failed group logs its error and its end, both with chi NaN, and
    # keeps its starting model; the next group runs from it
    failed = [r for r in res.log if r.group == 0]
    assert [r.note for r in failed] == ["failed: zero pivot at omega = 1200.0, degree 1",
                                        "group end"]
    assert all(np.isnan(r.chi) for r in failed)
    assert [gi for gi, _ in ended] == [0, 1]
    np.testing.assert_array_equal(ended[0][1].model.values, truth.values)
    assert [(r.note, r.chi) for r in res.log if r.group == 1] == [("group end", 0.0)]
    np.testing.assert_array_equal(res.model.values, truth.values)


def test_singular_trial_keeps_the_accepted_iterations(monkeypatch):
    from tunnelfwi import adjoint, optimize, solver
    mesh, data, truth = toy_problem()
    start = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    factorize, accumulate = solver.factorize, adjoint.accumulate_gradient
    gradients, failed = [], []

    def counted_gradient(*args, **kwargs):
        gradients.append(1)
        return accumulate(*args, **kwargs)

    def fails_after_first_step(A):
        # the second gradient belongs to the first accepted model
        if len(gradients) == 2 and not failed:
            failed.append(1)
            raise solver.SingularMatrixError("zero pivot")
        return factorize(A)

    group = optimize.run_frequency_group
    starts = []

    def recording_group(state, *args, **kwargs):
        starts.append(state.model.values)
        return group(state, *args, **kwargs)

    monkeypatch.setattr(adjoint, "accumulate_gradient", counted_gradient)
    monkeypatch.setattr(solver, "factorize", fails_after_first_step)
    monkeypatch.setattr(optimize, "run_frequency_group", recording_group)
    sched = FrequencySchedule(((1200.0,), (1200.0, 2000.0)))
    ended = {}
    res = run_inversion(start, sched, data, InversionSettings(max_iterations=3),
                        on_group_end=lambda gi, state: ended.setdefault(gi, state))
    assert failed and not [r for r in res.log if r.note.startswith("failed: ")]
    first = [r for r in ended[0].log if r.group == 0]
    assert [r.note for r in first] == [
        "", "line search failed: zero pivot at omega = 1200.0, degree 1", "group end"]
    assert first[0].alpha > 0.0 and first[-1].chi < first[0].chi
    assert ended[0].iteration == 1
    assert not np.array_equal(ended[0].model.values, start.values)
    np.testing.assert_array_equal(starts[1], ended[0].model.values)


def test_run_inversion_propagates_out_of_memory(monkeypatch):
    from tunnelfwi import solver
    mesh, data, truth = toy_problem()

    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(solver, "splu", no_memory)
    with pytest.raises(solver.SolverMemoryError, match="omega = 1200.0, degree 1"):
        run_inversion(truth, FrequencySchedule(((1200.0,), (1200.0, 2000.0))),
                      data, InversionSettings(max_iterations=2))


def test_factorizations_per_iteration_counts_frequencies():
    from tunnelfwi import solver
    mesh, data, truth = toy_problem()
    start = ModelVector.homogeneous(mesh, 4050.0, 2370.0)
    settings = InversionSettings(max_iterations=1, lbfgs_capacity=5)
    before = solver.factorization_count()
    run_frequency_group(OptimizerState(model=start), (1200.0, 2000.0), data,
                        settings)
    n_fact = solver.factorization_count() - before
    # initial misfit (2) + post-step misfit (2) + line-search trials (2 each);
    # never frequencies x sources x solves
    assert n_fact % 2 == 0
    assert n_fact <= 2 * (2 + settings.max_iterations * 8)


def test_group_reuses_the_accepted_trial(monkeypatch):
    from tunnelfwi import optimize, solver
    mesh, data, truth = toy_problem()
    start = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    omegas = (1200.0, 2000.0)
    solved = []  # (model, chi) of every group misfit, in order
    group_misfit = optimize._group_misfit

    def recording_misfit(model, *args, **kwargs):
        out = group_misfit(model, *args, **kwargs)
        solved.append((model, out[0]))
        return out

    searches = []  # (chi evaluations, accepted chi) of every line search
    search = optimize.line_search

    def recording_search(chi, *args, **kwargs):
        calls = []

        def counted(a):
            calls.append(a)
            return chi(a)
        found = search(counted, *args, **kwargs)
        searches.append((sum(a != 0.0 for a in calls), found[1]))
        return found

    monkeypatch.setattr(optimize, "_group_misfit", recording_misfit)
    monkeypatch.setattr(optimize, "line_search", recording_search)
    before = solver.factorization_count()
    out = run_frequency_group(OptimizerState(model=start), omegas, data,
                              InversionSettings(max_iterations=3))
    n_fact = solver.factorization_count() - before
    n_chi = sum(n for n, _ in searches)
    assert out.iteration == len(searches) >= 2
    # each search's first trial is the Gauss-Newton step: the first and the
    # third lie within SETTLE_RTOL of the slope-seeded vertex and are
    # accepted at once, the second lies 2% short of it and refits twice
    assert [n for n, _ in searches] == [1, 3, 1]
    # the initial misfit and one per trial; no solve of an accepted model
    assert n_fact == len(omegas) * (1 + n_chi)
    assert len(solved) == 1 + n_chi
    # the final model is the accepted trial's own array
    accepted = [m for m, chi in solved if chi == searches[-1][1]]
    assert out.model.values is accepted[-1].values
    monkeypatch.undo()
    fresh = optimize._group_misfit(out.model, omegas, data,
                                   data.observed_records(omegas))[0]
    assert out.log[-1].chi == fresh


def counted_group(monkeypatch, settings):
    """Run the toy group from the ambient model; return its state, the
    number of gradients it took and the number of directions it built."""
    from tunnelfwi import adjoint, optimize
    mesh, data, truth = toy_problem()
    start = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    gradients, directions = [], []
    accumulate, direction = adjoint.accumulate_gradient, optimize.lbfgs_direction

    def counted_gradient(*args, **kwargs):
        gradients.append(1)
        return accumulate(*args, **kwargs)

    def counted_direction(*args):
        directions.append(1)
        return direction(*args)

    monkeypatch.setattr(adjoint, "accumulate_gradient", counted_gradient)
    monkeypatch.setattr(optimize, "lbfgs_direction", counted_direction)
    out = run_frequency_group(OptimizerState(model=start), (1200.0, 2000.0),
                              data, settings)
    return out, len(gradients), len(directions)


@pytest.mark.parametrize("k", [1, 3])
def test_group_stopped_by_the_cap_takes_one_gradient_per_iteration(monkeypatch, k):
    out, n_gradients, _ = counted_group(monkeypatch, InversionSettings(max_iterations=k))
    assert out.iteration == k
    assert n_gradients == k


def test_group_stopped_by_the_reduction_test_takes_one_gradient_per_direction(
        monkeypatch):
    # the toy's second step cuts chi by about 2%, below a 10% threshold
    out, n_gradients, n_directions = counted_group(
        monkeypatch, InversionSettings(max_iterations=8, reduction_threshold=0.1))
    assert [r.note for r in out.log] == ["", "", "group end"]
    assert out.iteration == 2
    assert n_gradients == n_directions == 2
    # the group end line carries the norm of the last gradient taken
    assert out.log[-1].grad_norm == out.log[-2].grad_norm > 0.0


@pytest.mark.parametrize("masked", [False, True], ids=["no_mask", "mask"])
def test_group_slope_matches_finite_differences(monkeypatch, masked):
    from tunnelfwi import adjoint, optimize
    mesh, data, truth = toy_problem()
    if masked:
        data.mask = adjoint.build_mask(data.layout, mesh, 1.0, 1.0, 1.0, 1.0)
        assert 0.0 in data.mask and 1.0 in data.mask
    start = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    omegas = (1200.0, 2000.0)
    directions, searches = [], []
    direction, search = optimize.lbfgs_direction, optimize.line_search

    def recording_direction(*args):
        directions.append(direction(*args))
        return directions[-1]

    def recording_search(chi, alpha_init, **kwargs):
        searches.append((alpha_init, kwargs["slope0"]))
        return search(chi, alpha_init, **kwargs)

    monkeypatch.setattr(optimize, "lbfgs_direction", recording_direction)
    monkeypatch.setattr(optimize, "line_search", recording_search)
    run_frequency_group(OptimizerState(model=start), omegas, data,
                        InversionSettings(max_iterations=1))
    (alpha_init, slope0), = searches
    d = directions[0]
    observed = data.observed_records(omegas)
    h = 1e-3 * alpha_init

    def chi(a):
        model = ModelVector(start.values + a * d)
        return optimize._group_misfit(model, omegas, data, observed)[0]

    assert slope0 < 0.0
    fd = (chi(h) - chi(-h)) / (2.0 * h)
    assert abs(slope0 - fd) <= 1e-5 * abs(fd)
    # the first trial is the Gauss-Newton step
    _, _, kept = optimize._group_misfit(start, omegas, data, observed)
    curvature = sum(np.sum(np.abs(adjoint.linearized_records(
        res, d, data.layout)) ** 2) for res in kept)
    assert alpha_init == pytest.approx(-slope0 / (2.0 * curvature), rel=1e-12)


def one_direction_receiver(data):
    """Record only the y component at the toy's second receiver."""
    receivers = data.layout.receivers
    data.layout = StationLayout(
        sources=data.layout.sources,
        receivers=(receivers[0], Receiver(receivers[1].position, (1,))))


@pytest.mark.parametrize("masked", [False, True], ids=["no_mask", "mask"])
def test_linearized_records_match_the_adjoint_slope(masked):
    # 2 Re sum conj(delta) (mask J d) is the misfit's slope along d, which
    # the adjoint gives as raw . d: the tangent-linear and adjoint solves
    # are transposes of each other
    from tunnelfwi import adjoint, optimize
    mesh, data, truth = toy_problem()
    if masked:
        data.mask = adjoint.build_mask(data.layout, mesh, 1.0, 1.0, 1.0, 1.0)
        one_direction_receiver(data)
    model = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    omegas = (1200.0, 2000.0)
    _, delta, kept = optimize._group_misfit(model, omegas, data,
                                            data.observed_records(omegas))
    raw, grad = optimize._group_gradient(data, delta, kept)
    rng = np.random.default_rng(90)
    for d in (-grad, rng.normal(size=grad.shape)):
        jd = np.stack([adjoint.linearized_records(res, d, data.layout)
                       for res in kept])
        assert jd.shape == delta.shape
        assert np.all(jd[:, :, ~data.layout.direction_mask()] == 0.0)
        slope = 2.0 * np.sum(np.conj(delta) * jd).real
        assert abs(slope - raw @ d) <= 1e-10 * abs(raw @ d)


def test_group_gradient_and_curvature_read_only_the_kept_solves():
    # the model, omega and discretization come from the kept solves: a data
    # object with only the layout, mask and node areas gives the same bits,
    # and the gradient sums frequencies in ascending omega whatever the order
    from types import SimpleNamespace
    from tunnelfwi import adjoint, optimize
    omegas = (1200.0, 1600.0, 2000.0)  # three, so that the order of the sum shows
    mesh, data, truth = toy_problem(omegas=omegas)
    data.mask = adjoint.build_mask(data.layout, mesh, 1.0, 1.0, 1.0, 1.0)
    model = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    _, delta, kept = optimize._group_misfit(model, omegas, data,
                                            data.observed_records(omegas))
    bare = SimpleNamespace(layout=data.layout, mask=data.mask,
                           node_areas=data.node_areas)
    raw, grad = optimize._group_gradient(data, delta, kept)
    for got in (optimize._group_gradient(bare, delta, kept),
                optimize._group_gradient(bare, delta[::-1], kept[::-1])):
        assert got[0].tobytes() == raw.tobytes()
        assert got[1].tobytes() == grad.tobytes()
    d = -grad
    curvature = optimize._gauss_newton_curvature(data, kept, d)
    assert curvature > 0.0
    assert optimize._gauss_newton_curvature(bare, kept, d) == curvature


def test_gradient_counts_a_repeated_frequency_as_often_as_the_misfit():
    from tunnelfwi import optimize
    mesh, data, truth = toy_problem()
    model = ModelVector.homogeneous(mesh, 4000.0, 2400.0)

    def raw_gradient(omegas):
        _, delta, kept = optimize._group_misfit(model, omegas, data,
                                                data.observed_records(omegas))
        return optimize._group_gradient(data, delta, kept)[0]

    np.testing.assert_allclose(raw_gradient((1200.0, 1200.0, 2000.0)),
                               2.0 * raw_gradient((1200.0,)) + raw_gradient((2000.0,)),
                               rtol=1e-12, atol=0.0)


def test_group_end_logs_the_groups_own_step(monkeypatch):
    # a group that accepts no step logs alpha 0.0 at its end, not the
    # previous group's last step
    from tunnelfwi import optimize
    mesh, data, truth = toy_problem()
    start = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    search, calls = optimize.line_search, []

    def second_search_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) > 1:
            raise LineSearchError("no step")
        return search(*args, **kwargs)

    monkeypatch.setattr(optimize, "line_search", second_search_fails)
    res = run_inversion(start, FrequencySchedule(((1200.0,), (1200.0, 2000.0))),
                        data, InversionSettings(max_iterations=1))
    first, second = ([r for r in res.log if r.group == g] for g in (0, 1))
    assert [r.note for r in first] == ["", "group end"]
    assert first[0].alpha > 0.0 and first[-1].alpha == first[0].alpha
    assert [r.note for r in second] == ["line search failed: no step", "group end"]
    assert second[-1].alpha == 0.0


@pytest.mark.parametrize("jd_value", [0.0, np.nan], ids=["zero", "nan"])
def test_unusable_gauss_newton_step_falls_back_to_the_blind_seed(monkeypatch,
                                                                 jd_value):
    # with no finite, positive Gauss-Newton step each search starts at
    # STEP_FRACTION ambient vs / max|d| and takes the trials it took
    # before the Gauss-Newton seed existed
    from tunnelfwi import adjoint, optimize
    mesh, data, truth = toy_problem()
    start = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    settings = InversionSettings(max_iterations=3)
    directions, searches = [], []
    direction, search = optimize.lbfgs_direction, optimize.line_search

    def unusable(result, *args):
        return np.full((len(result.fields), data.layout.n_receivers, 2),
                       jd_value, dtype=complex)

    def recording_direction(*args):
        directions.append(direction(*args))
        return directions[-1]

    def recording_search(chi, alpha_init, **kwargs):
        calls = []

        def counted(a):
            calls.append(a)
            return chi(a)
        found = search(counted, alpha_init, **kwargs)
        searches.append((alpha_init, sum(a != 0.0 for a in calls)))
        return found

    monkeypatch.setattr(adjoint, "linearized_records", unusable)
    monkeypatch.setattr(optimize, "lbfgs_direction", recording_direction)
    monkeypatch.setattr(optimize, "line_search", recording_search)
    run_frequency_group(OptimizerState(model=start), (1200.0, 2000.0), data,
                        settings)
    assert [a for a, _ in searches] == [
        optimize.STEP_FRACTION * data.ambient_vs / np.abs(d).max()
        for d in directions]
    assert [n for _, n in searches] == [6, 4, 2]
