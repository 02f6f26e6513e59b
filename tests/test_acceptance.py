"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
Criterion 7 performs a full desk-scale inversion and takes several minutes;
everything else finishes in seconds.
"""

import time

import numpy as np
import pytest

from oracles import evaluate_field
from tunnelfwi.adjoint import (adjoint_field, adjoint_source,
                               accumulate_gradient, build_mask)
from tunnelfwi.analytic import greens_x_analytic
from tunnelfwi.assembly import DiscretizationConfig, DofMap
from tunnelfwi.forward import forward_solve, sample_receivers, solve_records
from tunnelfwi.material import ModelVector
from tunnelfwi.mesh import (Receiver, Source, StationLayout, TunnelGeometry,
                            build_tunnel_mesh, build_unbounded_mesh)
from tunnelfwi.optimize import (InversionData, InversionSettings,
                                OptimizerState, blindtest_schedule,
                                line_search, minimize_lbfgs,
                                run_frequency_group)
from tunnelfwi.pml import PmlProfile
from tunnelfwi.signal import (Spectrum, convolve, deconvolve, dft_many,
                              idft_synthesize, ricker, sample_ricker)

RHO = 2500.0
AMBIENT_VP = 4000.0
AMBIENT_VS = 2400.0


def verdict(n, ok, text):
    print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {n}: {text}"


# -- 1: mesh fidelity --------------------------------------------------------------

def test_criterion_1_mesh_count():
    t0 = time.time()
    geo = TunnelGeometry(domain_width=100, depth_above_tunnel=15,
                         tunnel_height=6, depth_below_tunnel=15,
                         tunnel_length=20, pml_width=3, element_size=1)
    mesh = build_tunnel_mesh(geo)
    ok = mesh.n_elements == 3996 and time.time() - t0 < 1.0
    verdict(1, ok, f"tunnel domain has {mesh.n_elements} elements (want 3996)")


# -- 2 + 3: analytic validation and absorbing-layer decay (one shared run) ----------

@pytest.fixture(scope="module")
def unbounded_run():
    mesh = build_unbounded_mesh(60, 40, 3, 1.0)
    model = ModelVector.homogeneous(mesh, AMBIENT_VP, AMBIENT_VS)
    profile = PmlProfile(c_pml=25000.0, width=3.0, omega_c_ratio=0.99)
    cfg = DiscretizationConfig(degree=3)
    omega = 2.0 * np.pi * 500.0
    source = (23.0, 23.0)
    layout = StationLayout(sources=(Source(source, (0.0, 1.0)),), receivers=())
    t0 = time.time()
    res = forward_solve(mesh, model, RHO, omega, layout, 1.0, profile, cfg)
    runtime = time.time() - t0
    return mesh, res, omega, source, runtime


def test_criterion_2_analytic_validation(unbounded_run):
    mesh, res, omega, source, runtime = unbounded_run
    u = res.fields[0].u
    dm = res.system.dof_map
    W, H = mesh.extent
    x0b, x1b, y0b, y1b = mesh.interior_box()

    nums, anas = [], []
    for t in np.arange(1, 240) / 240.0:
        p = (t * W, t * H)
        if not (x0b < p[0] < x1b and y0b < p[1] < y1b):
            continue  # exclude the absorbing collar
        if np.hypot(p[0] - source[0], p[1] - source[1]) <= 3.0 * mesh.h:
            continue  # exclude the singular neighborhood of the source
        nums.append(evaluate_field(mesh, dm, u, p)[0])
        anas.append(greens_x_analytic(source, p, omega, AMBIENT_VP, AMBIENT_VS, RHO))
    nums = np.array(nums)
    anas = np.array(anas)
    scale = np.abs(anas.real).max()
    err = np.abs(nums.real - anas.real) / scale
    ok = err.max() < 0.05 and np.median(err) < 0.01 and runtime < 120.0
    verdict(2, ok, f"diagonal-line Re(g_x) error: max {err.max():.2e} "
                   f"(<5e-2), median {np.median(err):.2e} (<1e-2), "
                   f"solve {runtime:.0f}s (<120s), {len(nums)} points")


def test_criterion_3_pml_decay(unbounded_run):
    mesh, res, omega, source, _ = unbounded_run
    u = res.fields[0].u
    dm = res.system.dof_map
    W, H = mesh.extent
    x0b, x1b, y0b, y1b = mesh.interior_box()
    sp = np.asarray(source)

    worst = 0.0
    for ang in range(0, 360, 45):
        d = np.array([np.cos(np.radians(ang)), np.sin(np.radians(ang))])

        def first_hit(bounds):
            ts = [(b - sp[c]) / d[c] for b, c, sgn in bounds if d[c] * sgn > 1e-12]
            return min(t for t in ts if t > 0)

        t_in = first_hit(((x0b, 0, -1), (x1b, 0, 1), (y0b, 1, -1), (y1b, 1, 1)))
        t_out = first_hit(((0.0, 0, -1), (W, 0, 1), (0.0, 1, -1), (H, 1, 1)))
        a_in = np.linalg.norm(evaluate_field(mesh, dm, u, sp + t_in * d,
                                             allow_pml=True))
        a_out = np.linalg.norm(evaluate_field(mesh, dm, u, sp + t_out * d,
                                              allow_pml=True))
        worst = max(worst, a_out / a_in)
    ok = worst <= 1e-3
    verdict(3, ok, f"outer/inner boundary amplitude ratio along 8 rays: "
                   f"worst {worst:.2e} (<=1e-3)")


# -- 4: reciprocity -------------------------------------------------------------------

def test_criterion_4_reciprocity():
    t0 = time.time()
    mesh = build_unbounded_mesh(30, 20, 3, 1.0)
    rng = np.random.default_rng(7)
    vp = AMBIENT_VP * (1 + 0.15 * rng.uniform(-1, 1, mesh.n_nodes))
    vs = AMBIENT_VS * (1 + 0.15 * rng.uniform(-1, 1, mesh.n_nodes))
    model = ModelVector(np.concatenate([vp, vs]))
    profile = PmlProfile(c_pml=25000.0, width=3.0)
    cfg = DiscretizationConfig(degree=2)
    omega = 2200.0
    pa, pb = (9.0, 8.0), (27.0, 17.0)

    def greens(src, rec, d_src, d_rec):
        layout = StationLayout(sources=(Source(src, d_src),),
                               receivers=(Receiver(rec),))
        res = forward_solve(mesh, model, RHO, omega, layout, 1.0, profile, cfg)
        return sample_receivers(res.fields[0], mesh, layout)[0, d_rec]

    worst = 0.0
    for d_src, d_rec in (((1.0, 0.0), 1), ((0.0, 1.0), 0),
                         ((1.0, 0.0), 0), ((0.0, 1.0), 1)):
        d_back = (1.0, 0.0) if d_rec == 0 else (0.0, 1.0)
        d_back_rec = 0 if d_src[0] == 1.0 else 1
        ab = greens(pa, pb, d_src, d_rec)
        ba = greens(pb, pa, d_back, d_back_rec)
        worst = max(worst, abs(ab - ba) / abs(ab))
    ok = worst < 1e-8 and time.time() - t0 < 30.0
    verdict(4, ok, f"swapped source/receiver components agree to "
                   f"{worst:.2e} relative (<1e-8)")


# -- 5: gradient correctness ------------------------------------------------------------

def test_criterion_5_gradient_vs_finite_differences():
    t0 = time.time()
    mesh = build_tunnel_mesh(TunnelGeometry(6, 3, 0, 3, 0, 0, 1))
    rng = np.random.default_rng(11)
    vp = AMBIENT_VP * (1 + 0.08 * rng.uniform(-1, 1, mesh.n_nodes))
    vs = AMBIENT_VS * (1 + 0.08 * rng.uniform(-1, 1, mesh.n_nodes))
    model = ModelVector(np.concatenate([vp, vs]))
    profile = PmlProfile(c_pml=0.0, width=1.0)
    cfg = DiscretizationConfig(degree=1)
    dm = DofMap(mesh, 1)
    layout = StationLayout(sources=(Source((1.0, 2.0), (0.0, 1.0)),),
                           receivers=(Receiver((4.0, 2.0)), Receiver((2.0, 5.0))))
    omegas = [900.0, 1600.0]
    observed = [np.zeros((1, 2, 2), dtype=complex) for _ in omegas]

    def chi_of(values):
        m = ModelVector(values)
        total = 0.0
        for fi, omega in enumerate(omegas):
            res = forward_solve(mesh, m, RHO, omega, layout, 1.0, profile, cfg,
                                dof_map=dm)
            syn = sample_receivers(res.fields[0], mesh, layout)
            total += float(np.sum(np.abs(syn - observed[fi][0]) ** 2))
        return total

    kept, adjoint_fields = [], []
    for fi, omega in enumerate(omegas):
        res = forward_solve(mesh, model, RHO, omega, layout, 1.0, profile, cfg,
                            dof_map=dm)
        syn = sample_receivers(res.fields[0], mesh, layout)
        delta = syn - observed[fi][0]
        rhs = adjoint_source(delta, layout, dm)
        kept.append(res)
        adjoint_fields.append(adjoint_field(res.factorization, rhs)[:, None])
    adj = accumulate_gradient(kept, adjoint_fields)  # dchi/dm_k

    step = 1e-2
    fd = np.zeros_like(adj)
    for k in range(len(adj)):
        up = model.values.copy()
        up[k] += step
        dn = model.values.copy()
        dn[k] -= step
        fd[k] = (chi_of(up) - chi_of(dn)) / (2 * step)

    big = np.abs(adj) > 1e-8 * np.abs(adj).max()
    rel = np.abs(adj[big] - fd[big]) / np.abs(fd[big])
    ok = rel.max() < 1e-4 and time.time() - t0 < 60.0
    verdict(5, ok, f"adjoint vs central differences on {int(big.sum())} "
                   f"entries: worst {rel.max():.2e} relative (<1e-4)")


# -- 6: optimizer sanity -------------------------------------------------------------------

def test_criterion_6_optimizer_sanity():
    t0 = time.time()
    rng = np.random.default_rng(13)
    n = 10
    U, _ = np.linalg.qr(rng.normal(size=(n, n)))
    Q = U @ np.diag(np.linspace(1.0, 10.0, n)) @ U.T
    b = rng.normal(size=n)
    x, info = minimize_lbfgs(lambda x: 0.5 * x @ Q @ x - b @ x,
                             lambda x: Q @ x - b,
                             rng.normal(size=n), max_iterations=20,
                             capacity=5, grad_tol=1e-8)
    quad_ok = info["grad_norm"] < 1e-8 and info["iterations"] <= 20

    alpha, _ = line_search(lambda a: (a - 1.0) ** 2, 1.0)
    ls_ok = abs(alpha - 1.0) < 1e-12

    ok = quad_ok and ls_ok and time.time() - t0 < 1.0
    verdict(6, ok, f"|grad| {info['grad_norm']:.1e} after "
                   f"{info['iterations']} iterations (<=20); "
                   f"line search minimizer {alpha!r} (want 1.0)")


# -- 7: desk-scale inversion recovery ---------------------------------------------------------

OMEGAS_7 = (500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0)
CENTER_7 = (20.0, 12.0)  # in the 40 x 24 working area


def _recovery_mesh(h, pml):
    return build_tunnel_mesh(TunnelGeometry(40, 12, 0, 12, 0, pml, h))


def _inclusion_model(mesh, pml, dv=0.2, radius=3.0):
    cx, cy = CENTER_7[0] + pml, CENTER_7[1] + pml
    vp = np.full(mesh.n_nodes, AMBIENT_VP)
    vs = np.full(mesh.n_nodes, AMBIENT_VS)
    dist = np.hypot(mesh.nodes[:, 0] - cx, mesh.nodes[:, 1] - cy)
    vs[dist <= radius] *= 1.0 + dv
    return ModelVector(np.concatenate([vp, vs]))


def _recovery_layout(pml):
    off = pml
    srcs = (Source((off + 8.0, off + 12.0), (1.0, 0.0)),
            Source((off + 32.0, off + 12.0), (-1.0, 0.0)))
    ys = (6.0, 10.0, 14.0, 18.0)
    recs = tuple(Receiver((off + 9.0, off + y)) for y in ys) + \
        tuple(Receiver((off + 31.0, off + y)) for y in ys)
    return StationLayout(sources=srcs, receivers=recs)


@pytest.mark.slow
def test_criterion_7_inversion_recovery():
    t0 = time.time()
    cfg3 = DiscretizationConfig(degree=3)
    cfg2 = DiscretizationConfig(degree=2)

    # observed records on a 25% finer grid to avoid the inverse crime
    mesh_f = _recovery_mesh(0.8, 3.2)
    obs = solve_records(mesh_f, _inclusion_model(mesh_f, 3.2), RHO, OMEGAS_7,
                        _recovery_layout(3.2), lambda w: 1.0,
                        PmlProfile(25000.0, 3.2), cfg3)

    mesh = _recovery_mesh(1.0, 3.0)
    layout = _recovery_layout(3.0)
    profile = PmlProfile(25000.0, 3.0)
    observed = {w: obs.values[i] for i, w in enumerate(OMEGAS_7)}
    mask = build_mask(layout, mesh, 2.5, 1.75, 2.5, 1.75)

    # element degree rises with frequency: 2 up to 1500 rad/s, 3 above
    def data_for(cfg):
        return InversionData(mesh=mesh, layout=layout, profile=profile,
                             cfg=cfg, rho=RHO, ambient_vs=AMBIENT_VS,
                             observed=observed,
                             source_amplitude=lambda w: 1.0, mask=mask)

    data2, data3 = data_for(cfg2), data_for(cfg3)
    initial = ModelVector.homogeneous(mesh, AMBIENT_VP, AMBIENT_VS)

    def total_chi(model):
        rec = solve_records(mesh, model, RHO, OMEGAS_7, layout, lambda w: 1.0,
                            profile, cfg3, dof_map=data3.dof_map)
        return float(np.sum(np.abs(
            (rec.values - obs.values) * rec.mask[None, None, :, :]) ** 2))

    chi0 = total_chi(initial)
    state = OptimizerState(model=initial)
    for gi, omega in enumerate(OMEGAS_7):
        low = omega <= 1500.0
        settings = InversionSettings(max_iterations=12 if low else 8,
                                     reduction_threshold=1e-3,
                                     line_search_rounds=3)
        state = run_frequency_group(state, (omega,), data2 if low else data3,
                                    settings, group_index=gi)
    chi1 = total_chi(state.model)

    dvs = state.model.vs - AMBIENT_VS
    peak = dvs.max()
    sel = dvs >= 0.5 * peak
    cx = np.sum(mesh.nodes[sel, 0] * dvs[sel]) / np.sum(dvs[sel])
    cy = np.sum(mesh.nodes[sel, 1] * dvs[sel]) / np.sum(dvs[sel])
    truth = (CENTER_7[0] + 3.0, CENTER_7[1] + 3.0)
    dist = np.hypot(cx - truth[0], cy - truth[1])
    runtime = time.time() - t0

    ok = (chi1 <= 0.1 * chi0) and (peak > 0.0) and (dist <= 2.0) \
        and runtime < 900.0
    verdict(7, ok, f"misfit ratio {chi1 / chi0:.3f} (<=0.1); anomaly sign "
                   f"{'+' if peak > 0 else '-'} (want +, peak {peak:.0f} m/s); "
                   f"centroid off by {dist:.2f} m (<=2); "
                   f"runtime {runtime:.0f}s (<900)")


# -- 8: built-in schedule -----------------------------------------------------------------------

def test_criterion_8_schedule_reproduction():
    t0 = time.time()
    sched = blindtest_schedule()
    groups = sched.groups
    want = tuple((300.0 + 100.0 * k,) for k in range(8))
    want += tuple((600.0 + 100.0 * k if k <= 15 else 1980.0 - 120.0 * (k - 16),
                   1200.0 + 200.0 * k) for k in range(20))
    ok = (len(groups) == 28 and groups == want
          and groups[8] == (600.0, 1200.0)
          and groups[-1] == (1620.0, 5000.0)
          and time.time() - t0 < 1.0)
    verdict(8, ok, f"built-in schedule has {len(groups)} groups, "
                   f"first pair {groups[8]}, last pair {groups[-1]}")


# -- 9: signal round trips -----------------------------------------------------------------------

def test_criterion_9_signal_round_trips():
    t0 = time.time()
    f_p = 500.0

    # transform/synthesize round trip
    wavelet = sample_ricker(f_p)
    nt = len(wavelet.samples)
    d_omega = 2 * np.pi / (nt * wavelet.dt)
    omegas = d_omega * np.arange(1, nt // 2)
    wspec = dft_many(wavelet, omegas)
    unit = Spectrum(omegas, np.ones(len(omegas), dtype=complex))
    back = idft_synthesize(unit, wspec, nt, wavelet.dt, t0=wavelet.t0)
    rt_err = np.abs(back.samples - wavelet.samples).max() / \
        np.abs(wavelet.samples).max()

    # deconvolution inverse pair above the water level
    rng = np.random.default_rng(17)
    grid = np.linspace(2 * np.pi * 50, 2 * np.pi * 1500, 150)
    w = dft_many(sample_ricker(f_p), grid)
    g = Spectrum(grid, rng.normal(size=150) + 1j * rng.normal(size=150))
    water = 1e-4
    rec = deconvolve(convolve(g, w), w, water)
    strong = np.abs(w.values) > water * np.abs(w.values).max()
    dc_err = np.abs(rec.values[strong] - g.values[strong]).max() / \
        np.abs(g.values[strong]).max()

    peak_ok = ricker(0.0, f_p) == 1.0
    t_zero = 1.0 / (np.sqrt(2.0) * np.pi * f_p)
    zero_ok = abs(ricker(t_zero, f_p)) < 1e-12

    ok = rt_err < 1e-6 and dc_err < 1e-8 and peak_ok and zero_ok \
        and time.time() - t0 < 10.0
    verdict(9, ok, f"synthesis round trip {rt_err:.1e} (<1e-6); "
                   f"deconvolution {dc_err:.1e} (<1e-8); peak and zero "
                   f"crossing exact")
