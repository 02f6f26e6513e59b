import numpy as np
import pytest

import oracles
from tunnelfwi import solver
from tunnelfwi.adjoint import (AdjointError, accumulate_gradient,
                               adjoint_field, adjoint_source, build_mask,
                               misfit, precondition, residuals)
from tunnelfwi.assembly import (DiscretizationConfig, DofMap, assemble_system,
                                node_areas, stiffness_derivative_products)
from tunnelfwi.forward import (ForwardResult, RecordSet, WaveField,
                               forward_solve, sample_receivers)
from tunnelfwi.material import ModelVector
from tunnelfwi.mesh import (Receiver, Source, StationLayout, TunnelGeometry,
                            build_tunnel_mesh)
from tunnelfwi.pml import PmlProfile

RHO = 2500.0
NO_PML = PmlProfile(c_pml=0.0, width=1.0)


def record_set(values, layout, omegas):
    return RecordSet(omegas=np.asarray(omegas, dtype=float),
                     values=np.asarray(values, dtype=complex),
                     mask=layout.direction_mask())


def tiny_layout():
    return StationLayout(sources=(Source((1.0, 1.0), (1.0, 0.0)),),
                         receivers=(Receiver((2.0, 2.0)), Receiver((3.0, 1.0))))


def test_misfit_zero_for_identical_records():
    layout = tiny_layout()
    vals = np.ones((2, 1, 2, 2), dtype=complex)
    a = record_set(vals, layout, [100.0, 200.0])
    b = record_set(vals.copy(), layout, [100.0, 200.0])
    m = misfit(a, b)
    assert m.value == 0.0


def test_misfit_single_entry():
    layout = StationLayout(sources=(Source((1.0, 1.0), (1.0, 0.0)),),
                           receivers=(Receiver((2.0, 2.0), directions=(0,)),))
    syn = np.zeros((1, 1, 1, 2), dtype=complex)
    syn[0, 0, 0, 0] = 1.0 + 1.0j
    a = record_set(syn, layout, [100.0])
    b = record_set(np.zeros_like(syn), layout, [100.0])
    assert misfit(a, b).value == pytest.approx(2.0)


def test_misfit_two_entries():
    layout = StationLayout(sources=(Source((1.0, 1.0), (1.0, 0.0)),),
                           receivers=(Receiver((2.0, 2.0)),))
    syn = np.zeros((1, 1, 1, 2), dtype=complex)
    syn[0, 0, 0] = [1.0, 1.0j]
    a = record_set(syn, layout, [100.0])
    b = record_set(np.zeros_like(syn), layout, [100.0])
    assert misfit(a, b).value == pytest.approx(2.0)


def test_misfit_quadratic_scaling():
    layout = tiny_layout()
    rng = np.random.default_rng(70)
    syn = rng.normal(size=(1, 1, 2, 2)) + 1j * rng.normal(size=(1, 1, 2, 2))
    obs = rng.normal(size=(1, 1, 2, 2)) + 1j * rng.normal(size=(1, 1, 2, 2))
    m1 = misfit(record_set(obs + (syn - obs), layout, [1.0]),
                record_set(obs, layout, [1.0]))
    m3 = misfit(record_set(obs + 3.0 * (syn - obs), layout, [1.0]),
                record_set(obs, layout, [1.0]))
    assert m3.value == pytest.approx(9.0 * m1.value, rel=1e-12)


def test_misfit_index_mismatch():
    layout = tiny_layout()
    a = record_set(np.zeros((1, 1, 2, 2)), layout, [100.0])
    b = record_set(np.zeros((2, 1, 2, 2)), layout, [100.0, 200.0])
    with pytest.raises(AdjointError):
        misfit(a, b)


def test_residuals_reject_different_frequencies():
    layout = tiny_layout()
    a = record_set(np.zeros((1, 1, 2, 2)), layout, [100.0])
    b = record_set(np.zeros((1, 1, 2, 2)), layout, [200.0])
    for fn in (residuals, misfit):
        with pytest.raises(AdjointError, match="frequency"):
            fn(a, b)


def test_misfit_returns_masked_residuals():
    layout = StationLayout(sources=(Source((1.0, 1.0), (1.0, 0.0)),),
                           receivers=(Receiver((2.0, 2.0), directions=(1,)),))
    syn = np.array([[[[1.0 + 2.0j, 3.0 - 1.0j]]]])
    a = record_set(syn, layout, [100.0])
    b = record_set(np.zeros_like(syn), layout, [100.0])
    m = misfit(a, b)
    np.testing.assert_array_equal(m.residuals, [[[[0.0, 3.0 - 1.0j]]]])
    np.testing.assert_array_equal(m.residuals, residuals(a, b))
    assert m.value == pytest.approx(10.0)


def small_problem(degree=1, pml=0):
    mesh = build_tunnel_mesh(TunnelGeometry(6, 3, 0, 3, 0, pml, 1))
    rng = np.random.default_rng(71)
    vp = 4000.0 * (1 + 0.08 * rng.uniform(-1, 1, mesh.n_nodes))
    vs = 2400.0 * (1 + 0.08 * rng.uniform(-1, 1, mesh.n_nodes))
    model = ModelVector(np.concatenate([vp, vs]))
    cfg = DiscretizationConfig(degree=degree)
    profile = NO_PML if pml == 0 else PmlProfile(c_pml=25000.0, width=float(pml))
    off = float(pml)
    layout = StationLayout(
        sources=(Source((off + 1.0, off + 1.0), (0.0, 1.0)),),
        receivers=(Receiver((off + 4.0, off + 2.0)), Receiver((off + 2.0, off + 4.5))))
    return mesh, model, cfg, profile, layout


def test_adjoint_source_zero_residual():
    mesh, model, cfg, profile, layout = small_problem()
    dm = DofMap(mesh, cfg.degree)
    rhs = adjoint_source(np.zeros((2, 2), dtype=complex), layout, dm)
    np.testing.assert_array_equal(rhs, 0.0)


def test_adjoint_source_nodal_scatter():
    mesh, model, cfg, profile, layout = small_problem()
    dm = DofMap(mesh, 1)
    layout1 = StationLayout(sources=layout.sources,
                            receivers=(Receiver((2.0, 2.0), directions=(0,)),))
    delta = np.zeros((1, 2), dtype=complex)
    delta[0, 0] = 1.0
    rhs = adjoint_source(delta, layout1, dm)
    node = mesh.node_grid[2, 2]
    want = np.zeros(dm.n_dofs, dtype=complex)
    want[2 * node] = -1.0
    np.testing.assert_array_equal(rhs, want)


def test_adjoint_source_additivity():
    mesh, model, cfg, profile, layout = small_problem()
    dm = DofMap(mesh, 2)
    rng = np.random.default_rng(72)
    delta = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    full = adjoint_source(delta, layout, dm)
    parts = np.zeros_like(full)
    for r in range(2):
        only = np.zeros_like(delta)
        only[r] = delta[r]
        parts += adjoint_source(only, layout, dm)
    np.testing.assert_allclose(full, parts, rtol=1e-12, atol=1e-15)


def test_adjoint_field_reuses_factorization_and_duality():
    mesh, model, cfg, profile, layout = small_problem()
    omega = 1400.0
    res = forward_solve(mesh, model, RHO, omega, layout, 1.0, profile, cfg)
    syn = sample_receivers(res.fields[0], mesh, layout)
    delta = syn - (syn + 1.0)  # synthetic residual
    dm = res.system.dof_map
    rhs = adjoint_source(delta, layout, dm)

    before = solver.factorization_count()
    u_adj = adjoint_field(res.factorization, rhs)
    assert solver.factorization_count() == before  # reuse contract

    # duality: u . rhs_adj = -(dchi/du) . u
    lhs = res.fields[0].u @ rhs
    grad_u = -rhs  # rhs is minus the Wirtinger derivative
    assert lhs == pytest.approx(-(grad_u @ res.fields[0].u), rel=1e-12)
    # adjoint field solves the system
    r = res.system.L @ u_adj - rhs
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(rhs)


def kept_field(mesh, model, profile, cfg, omega, dm, u):
    """A kept ``ForwardResult`` that holds the given field u."""
    system = assemble_system(mesh, model, RHO, omega, profile, cfg, dof_map=dm)
    return ForwardResult(fields=[WaveField(u=u, dof_map=dm)],
                         system=system, factorization=None)


def test_zero_adjoint_fields_zero_gradient():
    mesh, model, cfg, profile, layout = small_problem()
    dm = DofMap(mesh, cfg.degree)
    omega = 1000.0
    rng = np.random.default_rng(73)
    u = rng.normal(size=dm.n_dofs) + 1j * rng.normal(size=dm.n_dofs)
    kept = [kept_field(mesh, model, profile, cfg, omega, dm, u)]
    g = accumulate_gradient(kept, [np.zeros((dm.n_dofs, 1), dtype=complex)])
    np.testing.assert_array_equal(g, 0.0)


def _chi_of_model(values, mesh, cfg, profile, layout, omegas, observed):
    model = ModelVector(values)
    total = 0.0
    for fi, omega in enumerate(omegas):
        res = forward_solve(mesh, model, RHO, omega, layout, 1.0, profile, cfg)
        syn = sample_receivers(res.fields[0], mesh, layout)
        delta = (syn - observed[fi]) * layout.direction_mask()
        total += float(np.sum(np.abs(delta) ** 2))
    return total


def adjoint_gradient_unnormalized(mesh, model, cfg, profile, layout, omegas, observed):
    kept, adjoint_fields = [], []
    for fi, omega in enumerate(omegas):
        res = forward_solve(mesh, model, RHO, omega, layout, 1.0, profile, cfg)
        syn = sample_receivers(res.fields[0], mesh, layout)
        delta = (syn - observed[fi]) * layout.direction_mask()
        rhs = adjoint_source(delta, layout, res.system.dof_map)
        kept.append(res)
        adjoint_fields.append(adjoint_field(res.factorization, rhs)[:, None])
    return accumulate_gradient(kept, adjoint_fields), (kept, adjoint_fields)


@pytest.mark.parametrize("pml", [0, 1])
def test_gradient_matches_finite_differences(pml):
    mesh, model, cfg, profile, layout = small_problem(degree=1, pml=pml)
    omegas = [900.0, 1600.0]
    rng = np.random.default_rng(74)
    observed = [rng.normal(size=(2, 2)) * 1e-12 + 1j * rng.normal(size=(2, 2)) * 1e-12
                for _ in omegas]

    grad, _ = adjoint_gradient_unnormalized(
        mesh, model, cfg, profile, layout, omegas, observed)

    step = 1e-2
    fd = np.zeros_like(grad)
    for k in range(len(grad)):
        up = model.values.copy()
        up[k] += step
        dn = model.values.copy()
        dn[k] -= step
        fd[k] = (_chi_of_model(up, mesh, cfg, profile, layout, omegas, observed)
                 - _chi_of_model(dn, mesh, cfg, profile, layout, omegas, observed)
                 ) / (2 * step)
    big = np.abs(grad) > 1e-8 * np.abs(grad).max()
    rel = np.abs(grad[big] - fd[big]) / np.abs(fd[big])
    assert rel.max() < 1e-4


def test_raw_gradient_sum_real_for_real_operator():
    # with a real impedance matrix and real records the bilinear sum is real;
    # complex stretching makes only its real part meaningful
    mesh, model, cfg, profile, layout = small_problem(degree=1, pml=0)
    observed = [np.zeros((2, 2), dtype=complex)]
    _, (kept, adjoint_fields) = adjoint_gradient_unnormalized(
        mesh, model, cfg, profile, layout, [900.0], observed)
    raw = sum(stiffness_derivative_products(res.system, res.fields[0].u[:, None], W)
              for res, W in zip(kept, adjoint_fields))
    residue = np.abs(raw.imag).max() / np.abs(raw.real).max()
    assert residue < 1e-6


def test_gradient_area_normalization():
    mesh, model, cfg, profile, layout = small_problem()
    dm = DofMap(mesh, cfg.degree)
    omega = 1000.0
    rng = np.random.default_rng(75)
    u = rng.normal(size=dm.n_dofs) + 1j * rng.normal(size=dm.n_dofs)
    v = rng.normal(size=dm.n_dofs) + 1j * rng.normal(size=dm.n_dofs)
    kept = [kept_field(mesh, model, profile, cfg, omega, dm, u)]
    raw = accumulate_gradient(kept, [v[:, None]])
    areas = node_areas(mesh)
    g1 = precondition(raw, None, areas)
    doubled = precondition(raw, None, 2.0 * areas)
    np.testing.assert_allclose(doubled, 0.5 * g1, rtol=1e-14)


def test_mask_values():
    mesh = build_tunnel_mesh(TunnelGeometry(40, 10, 0, 10, 0, 0, 1))
    src = Source((10.0, 10.0), (0.0, 1.0))
    layout = StationLayout(sources=(src,), receivers=())
    mask = build_mask(layout, mesh, station_radius=2.5, surface_distance=0.0,
                      station_transition=2.5, surface_transition=0.0)
    node_at = lambda x, y: mesh.node_grid[y, x]
    assert mask[node_at(10, 9)] == 0.0          # 1 m from the source
    assert mask[node_at(10, 10)] == 0.0         # on the source
    d = np.hypot(3.0, 0.0)
    # node 3.75 m away sits mid-ramp at (3.75-2.5)/2.5 = 0.5? use exact 2.5+1.25
    # place a probe via interpolation over factors instead: check monotone ramp
    r = np.array([np.hypot(x - 10.0, 0.0) for x in range(10, 20)])
    f = np.array([mask[node_at(x, 10)] for x in range(10, 20)])
    inside = r <= 2.5
    beyond = r >= 5.0
    assert np.all(f[inside] == 0.0)
    assert np.all(f[beyond] == 1.0)
    ramp = (~inside) & (~beyond)
    np.testing.assert_allclose(f[ramp], (r[ramp] - 2.5) / 2.5, rtol=1e-12)


def test_mask_midpoint_half():
    mesh = build_tunnel_mesh(TunnelGeometry(40, 10, 0, 10, 0, 0, 0.25))
    src = Source((10.0, 10.0), (0.0, 1.0))
    layout = StationLayout(sources=(src,), receivers=())
    mask = build_mask(layout, mesh, 2.5, 0.0, 2.5, 0.0)
    # node at distance 2.5 + 1.25 sits exactly mid-transition
    j = int(10.0 / 0.25)
    i = int((10.0 + 3.75) / 0.25)
    assert mask[mesh.node_grid[j, i]] == pytest.approx(0.5)


def test_mask_far_node_is_one():
    mesh = build_tunnel_mesh(TunnelGeometry(40, 10, 0, 10, 0, 0, 1))
    layout = StationLayout(sources=(Source((5.0, 5.0), (0.0, 1.0)),),
                           receivers=())
    mask = build_mask(layout, mesh, 2.5, 1.75)
    far = mesh.node_grid[10, 30]  # 20+ m from the station, 10 m from surface
    assert mask[far] == 1.0


def test_mask_surface_distance():
    mesh = build_tunnel_mesh(TunnelGeometry(20, 5, 0, 5, 0, 0, 1))
    layout = StationLayout(sources=(), receivers=())
    mask = build_mask(layout, mesh, 0.0, 1.75, 0.0, 1.75)
    H = mesh.ny * mesh.h
    for j, want in ((10, 0.0), (9, 0.0), (8, (2.0 - 1.75) / 1.75), (6, 1.0)):
        got = mask[mesh.node_grid[j, 10]]
        assert got == pytest.approx(want, abs=1e-12)


# the desk inversion's grid, and a tunnel whose void adds free surfaces
@pytest.mark.parametrize("geometry", [TunnelGeometry(40, 12, 0, 12, 0, 3.2, 0.8),
                                      TunnelGeometry(30, 6, 4, 6, 10, 2, 0.5)],
                         ids=["desk", "tunnel"])
@pytest.mark.parametrize("args", [(2.5, 1.75, 2.5, 1.75), (1.0, 0.6, 0.3, 2.0)])
def test_mask_matches_segment_distance_oracle(geometry, args):
    mesh = build_tunnel_mesh(geometry)
    layout = StationLayout(sources=(Source((9.3, 7.1), (1.0, 0.0)),),
                           receivers=(Receiver((18.0, 12.0)), Receiver((11.0, 3.3))))
    mask = build_mask(layout, mesh, *args)
    assert np.any(mask == 0.0) and np.any((0.0 < mask) & (mask < 1.0))
    assert mask.tobytes() == oracles.mask_oracle(layout, mesh, *args).tobytes()


def test_mask_rejects_negative_distance():
    mesh = build_tunnel_mesh(TunnelGeometry(20, 5, 0, 5, 0, 0, 1))
    layout = StationLayout(sources=(), receivers=())
    with pytest.raises(AdjointError):
        build_mask(layout, mesh, -1.0, 0.0)


def test_precondition_entrywise():
    mesh = build_tunnel_mesh(TunnelGeometry(6, 3, 0, 3, 0, 0, 1))
    n = mesh.n_nodes
    rng = np.random.default_rng(76)
    values = rng.normal(size=2 * n)
    areas = rng.uniform(0.5, 2.0, n)
    scaled = values / np.concatenate([areas, areas])
    np.testing.assert_array_equal(precondition(values, None, areas), scaled)

    layout = StationLayout(sources=(), receivers=())
    ones = build_mask(layout, mesh, 0.0, 0.0, 0.0, 0.0)
    np.testing.assert_array_equal(precondition(values, ones, areas), scaled)

    np.testing.assert_array_equal(precondition(values, np.zeros(n), areas), 0.0)

    mixed = rng.uniform(0, 1, n)
    got = precondition(values, mixed, areas)
    want = scaled * np.concatenate([mixed, mixed])
    np.testing.assert_array_equal(got, want)

    with pytest.raises(AdjointError):
        precondition(values, np.zeros(3), areas)
