import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from tunnelfwi import solver
from tunnelfwi.assembly import (AssemblyError, DiscretizationConfig, DofMap,
                                shape_functions)
from tunnelfwi.forward import (ForwardError, evaluate_field, forward_solve,
                               greens_sweep, sample_receivers, solve_records)
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
    x0, y0 = mesh.element_origin(e)
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


def test_greens_sweep_invalid_range():
    mesh, model, profile, cfg = small_setup(degree=1)
    src = Source((8.0, 4.0), (0.0, 1.0))
    layout = StationLayout(sources=(src,), receivers=())
    with pytest.raises(ForwardError):
        greens_sweep(mesh, model, RHO, src, 0.0, 100.0, 10.0, layout, profile, cfg)
    with pytest.raises(ForwardError):
        greens_sweep(mesh, model, RHO, src, 100.0, 50.0, 10.0, layout, profile, cfg)


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
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen([sys.executable, "-c", CASE_SCALE_SOLVE,
                             str(root / "configs" / "blindtest.cfg")],
                            env=env, stdout=subprocess.PIPE)
    timer = threading.Timer(120.0, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # wait4's ru_maxrss also counts the high-water mark this process had when
    # the child was forked, so the bound is checked on the child's own VmHWM
    assert proc.returncode == 0, \
        f"exit {proc.returncode}, ru_maxrss {usage.ru_maxrss / 1024.0:.0f} MB"
    n_dofs, degree, residual, fallbacks, hwm_kb = out.split()
    assert (int(n_dofs), int(degree)) == (72938, 3)
    assert int(hwm_kb) / 1024.0 <= 1024.0
    assert float(residual) <= 1e-10
    assert int(fallbacks) == 0
