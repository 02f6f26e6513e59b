import numpy as np
import pytest

from tunnelfwi.adjoint import adjoint_field, adjoint_source, accumulate_gradient
from tunnelfwi.assembly import DiscretizationConfig
from tunnelfwi.forward import forward_solve, sample_receivers
from tunnelfwi.material import ModelVector
from tunnelfwi.mesh import (Receiver, Source, StationLayout, TunnelGeometry,
                            build_tunnel_mesh)
from tunnelfwi.optimize import (FrequencySchedule, InversionData,
                                InversionSettings, LbfgsHistory,
                                LineSearchError, OptimizerState, ScheduleError,
                                blindtest_schedule, format_log, lbfgs_direction,
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
    FrequencySchedule(((100.0,), (50.0, 200.0))).validate()
    with pytest.raises(ScheduleError):
        FrequencySchedule(((200.0,), (100.0,))).validate()  # top not rising
    with pytest.raises(ScheduleError):
        FrequencySchedule(((100.0,), (100.0,))).validate()
    with pytest.raises(ScheduleError):
        FrequencySchedule(((0.0,),)).validate()
    with pytest.raises(ScheduleError):
        FrequencySchedule(()).validate()


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


def test_line_search_backtracks_on_increase():
    def chi(a):
        # increasing on [0, 1]: only very small steps decrease
        return (a - 0.01) ** 2

    alpha, value = line_search(chi, 1.0)
    assert alpha < 1.0
    assert value < chi(0.0)


def test_line_search_failure():
    def chi(a):
        return 1.0 + a  # monotonically worse

    with pytest.raises(LineSearchError):
        line_search(chi, 1.0)


def test_line_search_requires_positive_init():
    with pytest.raises(LineSearchError):
        line_search(lambda a: a * a, 0.0)


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
        pairs = {}
        for omega in omegas:
            res = forward_solve(mesh, model, RHO, omega, layout, 1.0,
                                data.profile, data.cfg, dof_map=dm)
            syn = np.stack([sample_receivers(f, mesh, layout) for f in res.fields])
            delta = (syn - data.observed[omega]) * mask
            rhs = adjoint_source(delta[0], layout, mesh, dm)
            u_adj = adjoint_field(res.factorization, rhs)
            pairs[omega] = [(res.fields[0].u, u_adj)]
        g = accumulate_gradient(pairs, mesh, model, RHO, data.profile,
                                data.cfg, dm)
        areas = np.concatenate([g.node_areas, g.node_areas])
        raw = g.values * areas  # plain chain rule: sum nodal entries per block
        n = mesh.n_nodes
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
    assert res.failures == []


def test_inversion_deterministic_logs():
    mesh, data, truth = toy_problem()
    start = ModelVector.homogeneous(mesh, 4020.0, 2380.0)
    settings = InversionSettings(max_iterations=3)
    sched = FrequencySchedule(((1200.0, 2000.0),))
    log1 = format_log(run_inversion(start, sched, data, settings).state.log)
    log2 = format_log(run_inversion(start, sched, data, settings).state.log)
    assert log1 == log2


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
    res = run_inversion(truth, sched, data, InversionSettings(max_iterations=3))
    assert res.failures == [(0, "zero pivot")]
    assert len(res.group_models) == 2
    np.testing.assert_array_equal(res.model.values, truth.values)


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
