import gc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from oracles import ROOT, evaluate_field, run_child
from tunnelfwi import assembly as asmmod
from tunnelfwi import solver
from tunnelfwi.assembly import (AssemblyError, DiscretizationConfig, DofMap,
                                shape_functions)
from tunnelfwi.forward import (ForwardError, RecordSet, forward_solve, greens_sweep,
                               sample_receivers, solve_records)
from tunnelfwi.material import ModelVector
from tunnelfwi.mesh import (Receiver, Source, StationLayout, TunnelGeometry,
                            build_tunnel_mesh, build_unbounded_mesh)
from tunnelfwi.pml import PmlProfile

RHO = 2500.0


def small_setup(pml=2, w=12, d=4, degree=2):
    mesh = build_tunnel_mesh(TunnelGeometry(w, d, 0, d, 0, pml, 1))
    model = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    profile = PmlProfile(c_pml=25000.0, width=float(pml)) if pml else \
        PmlProfile(c_pml=0.0, width=1.0)
    cfg = DiscretizationConfig(degree=degree)
    return mesh, model, profile, cfg


def test_zero_amplitude_gives_zero_field():
    mesh, model, profile, cfg = small_setup()
    layout = StationLayout(sources=(Source((8.0, 4.0), (1.0, 0.0)),),
                           receivers=(Receiver((10.0, 5.0)),))
    res = forward_solve(mesh, model, RHO, 1500.0, layout, 0.0, profile, cfg)
    assert np.all(res.fields[0].u == 0.0)
    rec = sample_receivers(res.fields[0], mesh, layout)
    np.testing.assert_array_equal(rec, 0.0)


def test_sample_receivers_rejects_field_of_another_mesh():
    mesh, model, profile, cfg = small_setup()
    other, *_ = small_setup()
    layout = StationLayout(sources=(Source((8.0, 4.0), (1.0, 0.0)),),
                           receivers=(Receiver((10.0, 5.0)),))
    res = forward_solve(other, model, RHO, 1500.0, layout, 1.0, profile, cfg)
    with pytest.raises(AssemblyError, match="another mesh"):
        sample_receivers(res.fields[0], mesh, layout)


def test_evaluate_field_rejects_foreign_dof_map():
    mesh, *_ = small_setup()
    other, *_ = small_setup(w=14)
    dm = DofMap(other, 2)
    with pytest.raises(AssemblyError, match="another mesh"):
        evaluate_field(mesh, dm, np.zeros(dm.n_dofs, dtype=complex), (8.0, 4.0))


def test_sources_share_one_factorization():
    mesh, model, profile, cfg = small_setup()
    layout = StationLayout(sources=(Source((7.0, 4.0), (1.0, 0.0)),
                                    Source((9.0, 5.0), (0.0, 1.0))),
                           receivers=(Receiver((11.0, 4.5)),))
    before = solver.factorization_count()
    joint = forward_solve(mesh, model, RHO, 1500.0, layout, 1.0, profile, cfg)
    assert solver.factorization_count() == before + 1

    for si, src in enumerate(layout.sources):
        alone = forward_solve(mesh, model, RHO, 1500.0,
                              StationLayout(sources=(src,), receivers=()),
                              1.0, profile, cfg)
        np.testing.assert_allclose(joint.fields[si].u, alone.fields[0].u,
                                   rtol=1e-12, atol=1e-30)


def test_receiver_at_node_p1_reads_dof():
    mesh, model, profile, cfg = small_setup(degree=1)
    layout = StationLayout(sources=(Source((8.0, 4.0), (0.0, 1.0)),),
                           receivers=(Receiver((10.0, 5.0)),))
    res = forward_solve(mesh, model, RHO, 1200.0, layout, 1.0, profile, cfg)
    rec = sample_receivers(res.fields[0], mesh, layout)
    node = mesh.node_grid[5, 10]
    assert rec[0, 0] == res.fields[0].u[2 * node]
    assert rec[0, 1] == res.fields[0].u[2 * node + 1]


def test_receiver_interior_matches_local_interpolation():
    mesh, model, profile, cfg = small_setup(degree=3)
    p = (9.3, 4.6)
    layout = StationLayout(sources=(Source((6.0, 4.0), (1.0, 0.0)),),
                           receivers=(Receiver(p),))
    res = forward_solve(mesh, model, RHO, 2000.0, layout, 1.0, profile, cfg)
    rec = sample_receivers(res.fields[0], mesh, layout)

    # independent local evaluation: manual local coordinates + mode sum
    e = mesh.cell_to_element[4, 9]
    x0, y0 = mesh.element_cell[e] * mesh.h
    xi = np.array([2 * (p[0] - x0) - 1, 2 * (p[1] - y0) - 1])
    V, _ = shape_functions(3, xi)
    dofs = res.system.dof_map.element_dofs[e]
    ux = V @ res.fields[0].u[dofs[0::2]]
    uy = V @ res.fields[0].u[dofs[1::2]]
    assert rec[0, 0] == pytest.approx(ux, rel=1e-12)
    assert rec[0, 1] == pytest.approx(uy, rel=1e-12)


def test_record_scaling_with_source_amplitude():
    mesh, model, profile, cfg = small_setup()
    layout = StationLayout(sources=(Source((8.0, 4.0), (0.0, 1.0)),),
                           receivers=(Receiver((10.5, 4.5)),))
    base = forward_solve(mesh, model, RHO, 1500.0, layout, 1.0, profile, cfg)
    c = 3.0 - 2.0j
    scaled = forward_solve(mesh, model, RHO, 1500.0, layout, c, profile, cfg)
    r1 = sample_receivers(base.fields[0], mesh, layout)
    r2 = sample_receivers(scaled.fields[0], mesh, layout)
    np.testing.assert_allclose(r2, c * r1, rtol=1e-12)


def test_reciprocity_heterogeneous():
    # 30 x 20 m heterogeneous model, swapped source/receiver components
    mesh = build_unbounded_mesh(30, 20, 3, 1.0)
    rng = np.random.default_rng(60)
    vp = 4000.0 * (1 + 0.15 * rng.uniform(-1, 1, mesh.n_nodes))
    vs = 2400.0 * (1 + 0.15 * rng.uniform(-1, 1, mesh.n_nodes))
    model = ModelVector(np.concatenate([vp, vs]))
    profile = PmlProfile(c_pml=25000.0, width=3.0)
    cfg = DiscretizationConfig(degree=2)
    omega = 2500.0
    pa = (10.0, 9.0)
    pb = (26.0, 16.0)
    vals = {}
    for (src, rec, d_src, d_rec) in (
            (pa, pb, (1.0, 0.0), 1), (pb, pa, (0.0, 1.0), 0),
            (pa, pb, (0.0, 1.0), 0), (pb, pa, (1.0, 0.0), 1)):
        layout = StationLayout(sources=(Source(src, d_src),),
                               receivers=(Receiver(rec),))
        res = forward_solve(mesh, model, RHO, omega, layout, 1.0, profile, cfg)
        rec_vals = sample_receivers(res.fields[0], mesh, layout)
        vals[(src, rec, d_src, d_rec)] = rec_vals[0, d_rec]
    g_ab = vals[(pa, pb, (1.0, 0.0), 1)]  # y-response at b to x-force at a
    g_ba = vals[(pb, pa, (0.0, 1.0), 0)]  # x-response at a to y-force at b
    assert abs(g_ab - g_ba) / abs(g_ab) < 1e-8
    g_ab2 = vals[(pa, pb, (0.0, 1.0), 0)]
    g_ba2 = vals[(pb, pa, (1.0, 0.0), 1)]
    assert abs(g_ab2 - g_ba2) / abs(g_ab2) < 1e-8


def test_pml_decay_along_ray():
    mesh = build_unbounded_mesh(20, 14, 3, 1.0)
    model = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    profile = PmlProfile(c_pml=25000.0, width=3.0)
    cfg = DiscretizationConfig(degree=3)
    omega = 2 * np.pi * 500.0
    sp = (13.0, 10.0)
    layout = StationLayout(sources=(Source(sp, (0.0, 1.0)),), receivers=())
    res = forward_solve(mesh, model, RHO, omega, layout, 1.0, profile, cfg)
    u, dm = res.fields[0].u, res.system.dof_map
    # horizontal ray to the right: inner edge at x=23, outer boundary at x=26
    a_in = np.linalg.norm(evaluate_field(mesh, dm, u, (23.0, 10.0), allow_pml=True))
    a_90 = np.linalg.norm(evaluate_field(mesh, dm, u, (25.7, 10.0), allow_pml=True))
    a_out = np.linalg.norm(evaluate_field(mesh, dm, u, (26.0, 10.0), allow_pml=True))
    assert a_out <= 1e-3 * a_in
    assert a_90 <= 0.2 * a_in


def test_out_of_memory_names_frequency_and_degree(monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError

    mesh, model, profile, cfg = small_setup()
    layout = StationLayout(sources=(Source((8.0, 4.0), (1.0, 0.0)),),
                           receivers=(Receiver((10.0, 5.0)),))
    monkeypatch.setattr(solver, "splu", no_memory)
    with pytest.raises(solver.SolverMemoryError,
                       match=r"n = \d+, nnz = \d+ at omega = 1500.0, degree 2"):
        forward_solve(mesh, model, RHO, 1500.0, layout, 1.0, profile, cfg)


@pytest.mark.parametrize("target", ["SystemPattern", "_table_product"],
                         ids=["pattern", "element_gemm"])
def test_out_of_memory_in_assembly_names_frequency_and_degree(monkeypatch, target):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    mesh, model, profile, cfg = small_setup()
    src = Source((8.0, 4.0), (1.0, 0.0))
    layout = StationLayout(sources=(src,), receivers=(Receiver((10.0, 5.0)),))
    monkeypatch.setattr(asmmod, target, no_memory)
    n_dofs = DofMap(mesh, 2).n_dofs
    with pytest.raises(solver.SolverMemoryError,
                       match=rf"^out of memory assembling n = {n_dofs} "
                             r"at omega = 1500.0, degree 2$"):
        forward_solve(mesh, model, RHO, 1500.0, layout, 1.0, profile, cfg)
    with pytest.raises(solver.SolverMemoryError,
                       match=rf"^out of memory assembling n = {n_dofs} "
                             r"at omega = 500.0, degree 2$") as info:
        greens_sweep(mesh, model, RHO, src, 500.0, 600.0, 100.0,
                     layout, profile, cfg)
    assert str(info.value).count("omega") == 1


def track_factorizations(monkeypatch):
    """Weak references to every factorization made, and how many of the
    earlier ones were still alive as each ``factorize`` call started."""
    refs, alive = [], []
    factorize = solver.factorize

    def tracked(A):
        alive.append(sum(ref() is not None for ref in refs))
        fact = factorize(A)
        refs.append(weakref.ref(fact))
        return fact

    monkeypatch.setattr(solver, "factorize", tracked)
    return refs, alive


def test_frequency_loops_hold_one_factorization_unless_kept(monkeypatch):
    mesh, model, profile, cfg = small_setup(degree=1)
    src = Source((8.0, 4.0), (0.0, 1.0))
    layout = StationLayout(sources=(src,), receivers=(Receiver((10.0, 4.0)),))
    omegas = [600.0, 800.0, 1000.0]

    refs, alive = track_factorizations(monkeypatch)
    solve_records(mesh, model, RHO, omegas, layout, lambda w: 1.0, profile, cfg)
    assert alive == [0, 0, 0]

    refs, alive = track_factorizations(monkeypatch)
    greens_sweep(mesh, model, RHO, src, 600.0, 1000.0, 200.0, layout, profile, cfg)
    assert alive == [0, 0, 0]

    refs, alive = track_factorizations(monkeypatch)
    _, kept = solve_records(mesh, model, RHO, omegas, layout, lambda w: 1.0,
                            profile, cfg, keep=True)
    assert alive == [0, 1, 2]
    assert [ref() for ref in refs] == [res.factorization for res in kept]


def test_solve_records_shape_and_keep():
    mesh, model, profile, cfg = small_setup()
    layout = StationLayout(sources=(Source((7.0, 4.0), (1.0, 0.0)),
                                    Source((9.0, 4.0), (0.0, 1.0))),
                           receivers=(Receiver((11.0, 4.0)), Receiver((11.0, 5.0))))
    omegas = [800.0, 1600.0]
    records, kept = solve_records(mesh, model, RHO, omegas, layout,
                                  lambda w: 1.0, profile, cfg, keep=True)
    assert records.values.shape == (2, 2, 2, 2)
    assert len(kept) == 2
    assert kept[0].factorization.n == kept[1].factorization.n


def test_greens_sweep_bookkeeping():
    mesh, model, profile, cfg = small_setup(degree=1)
    src = Source((8.0, 4.0), (0.0, 1.0))
    layout = StationLayout(sources=(src,),
                           receivers=(Receiver((10.0, 4.0)), Receiver((10.0, 5.0))))
    omegas, values = greens_sweep(mesh, model, RHO, src, 500.0, 700.0, 100.0,
                                  layout, profile, cfg)
    assert len(omegas) == 3
    assert values.shape == (3, 2, 2)
    # single-frequency sweep equals forward_solve + sample
    o1, v1 = greens_sweep(mesh, model, RHO, src, 600.0, 600.0, 50.0,
                          layout, profile, cfg)
    res = forward_solve(mesh, model, RHO, 600.0, layout, 1.0, profile, cfg)
    rec = sample_receivers(res.fields[0], mesh, layout)
    np.testing.assert_allclose(v1[0], rec, rtol=1e-12)


def test_greens_sweep_paper_count():
    # 100 to 9000 rad/s in steps of 10 spans 891 frequencies
    n = int(np.floor((9000.0 - 100.0) / 10.0 + 1e-9)) + 1
    assert n == 891


def test_greens_sweep_degree_schedule():
    mesh, model, profile, cfg = small_setup(degree=1)
    src = Source((8.0, 4.0), (0.0, 1.0))
    layout = StationLayout(sources=(src,), receivers=(Receiver((10.0, 4.0)),))

    def degree_for(w):
        return 1 if w < 1000.0 else 2

    omegas, values = greens_sweep(mesh, model, RHO, src, 800.0, 1200.0, 400.0,
                                  layout, profile, cfg, degree_for=degree_for)
    # the p=2 result differs from p=1 at the higher frequency
    _, v1 = greens_sweep(mesh, model, RHO, src, 1200.0, 1200.0, 400.0,
                         layout, profile, cfg)
    assert np.abs(values[1] - v1[0]).max() > 0


@pytest.mark.parametrize("raised, expected, message", [
    (MemoryError, solver.SolverMemoryError,
     r"^out of memory factorizing n = \d+, nnz = \d+ at omega = 500.0, degree 1$"),
    (RuntimeError, solver.SingularMatrixError,
     r"^factorization failed.* at omega = 500.0, degree 1$"),
])
def test_greens_sweep_errors_name_omega_once(monkeypatch, raised, expected, message):
    # a solver error keeps its type and gains the frequency and the degree
    def failing(*args, **kwargs):
        raise raised

    mesh, model, profile, cfg = small_setup(degree=1)
    src = Source((8.0, 4.0), (0.0, 1.0))
    layout = StationLayout(sources=(src,), receivers=(Receiver((10.0, 4.0)),))
    monkeypatch.setattr(solver, "splu", failing)
    with pytest.raises(expected, match=message) as info:
        greens_sweep(mesh, model, RHO, src, 500.0, 600.0, 100.0,
                     layout, profile, cfg)
    assert str(info.value).count("omega") == 1


def test_greens_sweep_invalid_range():
    mesh, model, profile, cfg = small_setup(degree=1)
    src = Source((8.0, 4.0), (0.0, 1.0))
    layout = StationLayout(sources=(src,), receivers=())
    before = solver.factorization_count()
    for start, end, step in [(0.0, 100.0, 10.0), (100.0, 50.0, 10.0),
                             (100.0, np.inf, 10.0), (np.nan, 200.0, 10.0),
                             (100.0, np.nan, 10.0), (100.0, 200.0, np.nan),
                             (100.0, 200.0, np.inf), (-np.inf, 200.0, 10.0)]:
        with pytest.raises(ForwardError, match=r"need finite omega_start > 0.*, got "):
            greens_sweep(mesh, model, RHO, src, start, end, step, layout, profile, cfg)
    assert solver.factorization_count() == before


def test_greens_sweep_step_too_small_to_count():
    # (end - start) / step overflows: a ForwardError, not an OverflowError
    mesh, model, profile, cfg = small_setup(degree=1)
    src = Source((8.0, 4.0), (0.0, 1.0))
    layout = StationLayout(sources=(src,), receivers=())
    before = solver.factorization_count()
    for step in (1e-320, 1e-300):
        with pytest.raises(ForwardError, match=f"d_omega = {step} splits 100.0..200.0"):
            greens_sweep(mesh, model, RHO, src, 100.0, 200.0, step, layout, profile, cfg)
    assert solver.factorization_count() == before


def test_nan_source_amplitude_fails_before_any_lu_solve():
    mesh, model, profile, cfg = small_setup(degree=1)
    layout = StationLayout(sources=(Source((8.0, 4.0), (0.0, 1.0)),),
                           receivers=(Receiver((10.0, 4.0)),))
    n_fact, n_fallback = solver.factorization_count(), solver.fallback_count()
    with pytest.raises(solver.SolveError,
                       match="^right-hand side is not finite at omega = 500.0, degree 1$"):
        solve_records(mesh, model, RHO, [500.0, 600.0], layout, lambda w: np.nan,
                      profile, cfg)
    # the one factorization before the solve, and no step down the ladder
    assert solver.factorization_count() == n_fact + 1
    assert solver.fallback_count() == n_fallback


@pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf, 0.0])
def test_non_finite_omega_fails_before_assembly(omega):
    mesh, model, profile, cfg = small_setup(degree=1)
    layout = StationLayout(sources=(Source((8.0, 4.0), (0.0, 1.0)),),
                           receivers=(Receiver((10.0, 4.0)),))
    before = solver.factorization_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AssemblyError,
                           match=f"omega must be finite and > 0, got {omega}"):
            forward_solve(mesh, model, RHO, omega, layout, 1.0, profile, cfg)
        with pytest.raises(AssemblyError, match=f"got {omega}"):
            solve_records(mesh, model, RHO, [800.0, omega], layout, lambda w: 1.0,
                          profile, cfg)
    assert solver.factorization_count() == before + 1  # 800 only


@pytest.mark.parametrize("omega", [np.nan, np.inf, 0.0])
def test_record_set_needs_finite_positive_frequencies(omega):
    layout = StationLayout(sources=(Source((8.0, 4.0), (0.0, 1.0)),),
                           receivers=(Receiver((10.0, 4.0)),))
    with pytest.raises(ForwardError, match="finite and strictly positive"):
        RecordSet(omegas=[500.0, omega], values=np.zeros((2, 1, 1, 2)),
                  mask=layout.direction_mask())


def test_solve_records_degree_rule_matches_fixed_degrees(monkeypatch):
    # each frequency's records equal a fixed-degree run bitwise, and a given
    # dof map serves its own degree: only the p = 1 map is built
    mesh, model, profile, cfg = small_setup(degree=2)
    layout = StationLayout(sources=(Source((7.0, 4.0), (1.0, 0.0)),
                                    Source((9.0, 4.0), (0.0, 1.0))),
                           receivers=(Receiver((11.0, 4.0)), Receiver((11.0, 5.0))))
    omegas = [800.0, 1200.0, 1600.0]
    rule = {800.0: 1, 1200.0: 2, 1600.0: 1}.__getitem__
    amplitude = lambda w: 1.0 + 0.001j * w  # noqa: E731
    dm2 = DofMap(mesh, 2)
    built = []
    init = DofMap.__init__

    def counted(self, mesh, p):
        built.append(p)
        init(self, mesh, p)

    monkeypatch.setattr(DofMap, "__init__", counted)
    records, kept = solve_records(mesh, model, RHO, omegas, layout, amplitude,
                                  profile, cfg, dof_map=dm2, keep=True,
                                  degree_for=rule)
    assert built == [1]
    assert [res.system.dof_map.p for res in kept] == [1, 2, 1]
    assert kept[1].system.dof_map is dm2
    assert kept[0].system.dof_map is kept[2].system.dof_map
    for p in (1, 2):
        fixed = solve_records(mesh, model, RHO, omegas, layout, amplitude, profile,
                              replace(cfg, degree=p, quad_points=None))
        for fi, w in enumerate(omegas):
            if rule(w) == p:
                assert records.values[fi].tobytes() == fixed.values[fi].tobytes()


def test_a_mesh_is_numbered_once_per_degree_and_frees_its_maps(monkeypatch):
    # two sweeps over two degrees build each degree's dof map and pattern
    # once, on the mesh, which frees them with itself
    mesh, model, profile, cfg = small_setup(degree=1)
    src = Source((8.0, 4.0), (0.0, 1.0))
    layout = StationLayout(sources=(src,), receivers=(Receiver((10.0, 4.0)),))

    def degree_for(w):
        return 1 if w < 1000.0 else 2

    def sweep(grid):
        return greens_sweep(grid, model, RHO, src, 800.0, 1200.0, 400.0, layout,
                            profile, cfg, degree_for=degree_for)[1]

    fresh = sweep(small_setup(degree=1)[0])
    built = []
    map_init, pattern_init = DofMap.__init__, asmmod.SystemPattern.__init__

    def counted_map(self, grid, p):
        built.append(("DofMap", p))
        map_init(self, grid, p)

    def counted_pattern(self, dof_map):
        built.append(("SystemPattern", dof_map.p))
        pattern_init(self, dof_map)

    monkeypatch.setattr(DofMap, "__init__", counted_map)
    monkeypatch.setattr(asmmod.SystemPattern, "__init__", counted_pattern)

    for _ in range(2):
        assert sweep(mesh).tobytes() == fresh.tobytes()
    assert sorted(built) == [("DofMap", 1), ("DofMap", 2),
                             ("SystemPattern", 1), ("SystemPattern", 2)]
    assert sorted(mesh.dof_maps) == [1, 2]

    # a given map of a degree the rule never picks stays unused
    unused = DofMap(mesh, 3)
    _, kept = solve_records(mesh, model, RHO, [800.0, 1200.0], layout,
                            lambda w: 1.0, profile, cfg, dof_map=unused, keep=True,
                            degree_for=degree_for)
    assert [res.system.dof_map.p for res in kept] == [1, 2]
    assert all(res.system.dof_map is mesh.dof_maps[res.system.dof_map.p] for res in kept)
    assert built[4:] == [("DofMap", 3)] and unused._system_pattern is None

    ref = weakref.ref(mesh)
    del mesh, unused, kept
    gc.collect()
    assert ref() is None


# One case-study solve at the top schedule frequency: the blindtest mesh at
# p = 3 (72,938 dofs), omega = 5000 rad/s, ambient model, first source.
# Prints the dof count, the degree, the relative residual, the number of
# pivoted fallbacks and the child's own peak RSS (VmHWM, kB).
CASE_SCALE_SOLVE = """
import sys
import numpy as np
from tunnelfwi import assembly, config, forward, material, mesh, solver
cfg = config.load_config(sys.argv[1])
grid = mesh.build_tunnel_mesh(cfg.geometry())
full = cfg.layout()
layout = mesh.StationLayout(sources=full.sources[:1], receivers=full.receivers)
amb = cfg.ambient()
model = material.ModelVector.homogeneous(grid, amb.vp, amb.vs)
disc = cfg.discretization()
res = forward.forward_solve(grid, model, amb.rho, 5000.0, layout, 1.0,
                            cfg.profile(), disc)
src = layout.sources[0]
b = assembly.assemble_point_source(grid, res.system.dof_map, src.position,
                                   src.direction, 1.0)
r = np.linalg.norm(res.system.L @ res.fields[0].u - b) / np.linalg.norm(b)
hwm_kb = [ln.split()[1] for ln in open("/proc/self/status") if ln.startswith("VmHWM")][0]
print(res.system.dof_map.n_dofs, disc.degree, repr(float(r)), solver.fallback_count(),
      hwm_kb)
"""


@pytest.mark.slow
def test_case_scale_top_frequency_fits_in_memory():
    code, out, usage = run_child(CASE_SCALE_SOLVE, ROOT / "configs" / "blindtest.cfg")
    # wait4's ru_maxrss also counts the high-water mark this process had when
    # the child was forked, so the bound is checked on the child's own VmHWM
    assert code == 0, f"exit {code}, ru_maxrss {usage.ru_maxrss / 1024.0:.0f} MB"
    n_dofs, degree, residual, fallbacks, hwm_kb = out.split()
    assert (int(n_dofs), int(degree)) == (72938, 3)
    assert int(hwm_kb) / 1024.0 <= 1024.0
    assert float(residual) <= 1e-10
    assert int(fallbacks) == 0
