import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import oracles
from tunnelfwi import assembly as asmmod
from tunnelfwi import mesh as meshmod
from tunnelfwi import pml as pmlmod
from tunnelfwi.assembly import (AssemblyError, DiscretizationConfig, DofMap,
                                _batch_matrices, _batch_quadrature,
                                assemble_point_source, assemble_system,
                                node_areas, shape_functions,
                                stiffness_derivative_products,
                                stiffness_direction_product)
from tunnelfwi.material import ModelVector
from tunnelfwi.mesh import TunnelGeometry, build_tunnel_mesh
from tunnelfwi.pml import PmlProfile

RHO = 2500.0
NO_PML = PmlProfile(c_pml=0.0, width=3.0)
PML = PmlProfile(c_pml=25000.0, width=3.0)


def box_mesh(w=2, d=1, pml=0):
    return build_tunnel_mesh(TunnelGeometry(w, d, 0, d, 0, pml, 1))


def random_model(mesh, seed=0, spread=0.1):
    rng = np.random.default_rng(seed)
    vp = 4000.0 * (1 + spread * rng.uniform(-1, 1, mesh.n_nodes))
    vs = 2400.0 * (1 + spread * rng.uniform(-1, 1, mesh.n_nodes))
    return ModelVector(np.concatenate([vp, vs]))


# -- shape functions ----------------------------------------------------------

def test_vertex_modes_nodal_property():
    corners = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
    for p in (1, 2, 3):
        for c, corner in enumerate(corners):
            V, _ = shape_functions(p, np.array(corner))
            for c2 in range(4):
                assert V[c2] == pytest.approx(1.0 if c2 == c else 0.0, abs=1e-14)


def test_vertex_partition_of_unity():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, size=(50, 2))
    for p in (1, 2, 3):
        V, _ = shape_functions(p, pts)
        np.testing.assert_allclose(V[:, :4].sum(axis=1), 1.0, atol=1e-14)


def test_higher_modes_vanish_at_corners():
    corners = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
    for p in (2, 3):
        V, _ = shape_functions(p, corners)
        assert np.max(np.abs(V[:, 4:])) < 1e-14


def test_edge_modes_vanish_on_other_edges():
    p = 3
    ts = np.linspace(-1, 1, 7)
    bottom = np.column_stack([ts, -np.ones_like(ts)])
    V, _ = shape_functions(p, bottom)
    n_edge = p - 1
    # right/top/left edge modes and interior modes vanish on the bottom edge
    assert np.max(np.abs(V[:, 4 + n_edge:4 + 4 * n_edge])) < 1e-14
    assert np.max(np.abs(V[:, 4 + 4 * n_edge:])) < 1e-14


def test_hierarchy_mode_values_stable():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(20, 2))
    V1, G1 = shape_functions(1, pts)
    V2, G2 = shape_functions(2, pts)
    V3, G3 = shape_functions(3, pts)
    np.testing.assert_array_equal(V2[:, :4], V1)
    # p=3 contains every p=2 mode, possibly at a different position
    m2 = {tuple(np.round(V2[:, i], 12)) for i in range(V2.shape[1])}
    m3 = {tuple(np.round(V3[:, i], 12)) for i in range(V3.shape[1])}
    assert m2 <= m3


def test_mode_counts():
    for p in (1, 2, 3):
        V, G = shape_functions(p, np.zeros((1, 2)))
        assert V.shape[1] == (p + 1) ** 2
        assert G.shape == (1, (p + 1) ** 2, 2)


def test_degree_out_of_range():
    with pytest.raises(AssemblyError):
        shape_functions(4, np.zeros(2))
    with pytest.raises(AssemblyError):
        DiscretizationConfig(degree=0)
    with pytest.raises(AssemblyError):
        DiscretizationConfig(degree=2, quad_points=2)


@pytest.mark.parametrize("make", [
    lambda: DiscretizationConfig(degree=2.5),
    lambda: replace(DiscretizationConfig(degree=2), degree=2.5),
], ids=["direct", "replace"])
def test_discretization_degree_must_be_an_integer(make):
    with pytest.raises(AssemblyError, match=r"^polynomial degree must be an integer "
                                            r"in \[1, 3\], got 2.5$"):
        make()


@pytest.mark.parametrize("make", [
    lambda: DiscretizationConfig(degree=1, quad_points=2.5),
    lambda: replace(DiscretizationConfig(degree=1), quad_points=2.5),
    lambda: replace(DiscretizationConfig(degree=2, quad_points=3), degree=3),
], ids=["direct", "replace", "replace-degree"])
def test_discretization_quad_points_must_be_an_integer_above_the_degree(make):
    with pytest.raises(AssemblyError, match="integer of at least degree [+] 1 quadrature"):
        make()


@pytest.mark.parametrize("p", [0, 4, 2.5])
def test_dof_map_rejects_a_degree_it_cannot_number(p):
    with pytest.raises(AssemblyError, match=rf"integer in \[1, 3\], got {p}$"):
        DofMap(box_mesh(), p)


def _stored_map_then_true():
    mesh = box_mesh()
    DofMap.of(mesh, 1)
    return DofMap.of(mesh, True)


@pytest.mark.parametrize("make", [
    lambda: DiscretizationConfig(degree=True),
    lambda: DofMap(box_mesh(), True),
    _stored_map_then_true,
], ids=["config", "dof_map", "stored_dof_map"])
def test_a_bool_is_not_a_degree(make):
    # True == 1, so a bool would otherwise number the mesh at degree 1
    with pytest.raises(AssemblyError, match=r"integer in \[1, 3\], got True$"):
        make()


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.9, 0.9, size=(10, 2))
    eps = 1e-6
    for p in (1, 2, 3):
        V, G = shape_functions(p, pts)
        Vx1, _ = shape_functions(p, pts + [eps, 0.0])
        Vx0, _ = shape_functions(p, pts - [eps, 0.0])
        Vy1, _ = shape_functions(p, pts + [0.0, eps])
        Vy0, _ = shape_functions(p, pts - [0.0, eps])
        np.testing.assert_allclose(G[:, :, 0], (Vx1 - Vx0) / (2 * eps), atol=1e-8)
        np.testing.assert_allclose(G[:, :, 1], (Vy1 - Vy0) / (2 * eps), atol=1e-8)


# -- dof map -------------------------------------------------------------------

def test_dofmap_counts():
    mesh = box_mesh(2, 1)  # 2x2 elements
    for p in (1, 2, 3):
        dm = DofMap(mesh, p)
        n_edges = 12  # 2x2 grid
        want = mesh.n_nodes + n_edges * (p - 1) + mesh.n_elements * (p - 1) ** 2
        assert dm.n_modes == want
        assert dm.n_dofs == 2 * want


def test_dofmap_shared_edge_modes():
    mesh = box_mesh(2, 1)
    dm = DofMap(mesh, 3)
    # elements 0 and 1 share a vertical edge: local edge 1 (right) of 0
    # equals local edge 3 (left) of 1
    m0 = dm.element_modes[0]
    m1 = dm.element_modes[1]
    n_edge = 2
    right_of_0 = m0[4 + 1 * n_edge:4 + 2 * n_edge]
    left_of_1 = m1[4 + 3 * n_edge:4 + 4 * n_edge]
    np.testing.assert_array_equal(right_of_0, left_of_1)


def loop_numbering(mesh, p):
    """(element_modes, element_dofs) numbered element by element."""
    n_edge = p - 1
    n_int = n_edge ** 2
    edges, elem_edges = {}, np.empty((mesh.n_elements, 4), dtype=int)
    for e, (n0, n1, n2, n3) in enumerate(mesh.elements):
        for loc, (a, b) in enumerate(((n0, n1), (n1, n2), (n3, n2), (n0, n3))):
            elem_edges[e, loc] = edges.setdefault((min(a, b), max(a, b)), len(edges))
    nv = mesh.n_nodes
    base = nv + len(edges) * n_edge
    modes = np.empty((mesh.n_elements, (p + 1) ** 2), dtype=int)
    for e in range(mesh.n_elements):
        modes[e, :4] = mesh.elements[e]
        for loc in range(4):
            for i in range(n_edge):
                modes[e, 4 + loc * n_edge + i] = nv + elem_edges[e, loc] * n_edge + i
        for i in range(n_int):
            modes[e, 4 + 4 * n_edge + i] = base + e * n_int + i
    dofs = np.empty((mesh.n_elements, 2 * modes.shape[1]), dtype=int)
    for e in range(mesh.n_elements):
        for m in range(modes.shape[1]):
            dofs[e, 2 * m] = 2 * modes[e, m]
            dofs[e, 2 * m + 1] = 2 * modes[e, m] + 1
    return modes, dofs


def test_dofmap_numbering_equals_element_loop():
    mesh = build_tunnel_mesh(TunnelGeometry(6, 2, 1, 2, 3, 1, 1))
    for p in (1, 2, 3):
        dm = DofMap(mesh, p)
        modes, dofs = loop_numbering(mesh, p)
        assert np.array_equal(dm.element_modes, modes)
        assert np.array_equal(dm.element_dofs, dofs)


def test_interface_continuity_random_field():
    # a random dof vector must be single-valued across a shared edge
    mesh = box_mesh(2, 1)
    dm = DofMap(mesh, 3)
    rng = np.random.default_rng(8)
    u = rng.normal(size=dm.n_dofs) + 1j * rng.normal(size=dm.n_dofs)
    for y in np.linspace(0.05, 1.95, 9):
        p = (1.0, y)  # on the edge between cells (0,.) and (1,.)
        e_left = mesh.cell_to_element[int(y), 0]
        e_right = mesh.cell_to_element[int(y), 1]
        vals = []
        for e in (e_left, e_right):
            x0, y0 = mesh.element_cell[e] * mesh.h
            xi = (2 * (p[0] - x0) / mesh.h - 1, 2 * (p[1] - y0) / mesh.h - 1)
            V, _ = shape_functions(3, np.asarray(xi))
            dofs = dm.element_dofs[e]
            vals.append(np.array([V @ u[dofs[0::2]], V @ u[dofs[1::2]]]))
        np.testing.assert_allclose(vals[0], vals[1], rtol=1e-12, atol=1e-12)


# -- element matrices -----------------------------------------------------------

def element_system(mesh, e, model, rho, omega, profile, cfg):
    """(K_e, M_e) of one element through the production batch path."""
    stretched = profile.c_pml > 0.0 and mesh.element_region[e] != meshmod.INTERIOR
    K, M = _batch_matrices(*_batch_quadrature(mesh, np.array([e]), model, omega,
                                              profile, cfg, stretched), rho)
    return K[0], M[0]


def test_element_mass_conservation():
    mesh = box_mesh()
    model = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    cfg = DiscretizationConfig(degree=1)
    _, M = element_system(mesh, 0, model, RHO, 1000.0, NO_PML, cfg)
    # sum over the x-displacement block equals rho * area
    total = M[0::2, 0::2].sum()
    assert total.real == pytest.approx(RHO * 1.0, rel=1e-12)
    assert abs(total.imag) < 1e-9


def test_element_rigid_translation_annihilated():
    mesh = box_mesh()
    model = random_model(mesh, 4)
    for p in (1, 2, 3):
        cfg = DiscretizationConfig(degree=p)
        K, _ = element_system(mesh, 0, model, RHO, 800.0, NO_PML, cfg)
        n = K.shape[0] // 2
        tx = np.zeros(2 * n)
        tx[0:8:2] = 1.0  # unit x at the four vertices, higher modes zero
        ty = np.zeros(2 * n)
        ty[1:8:2] = 1.0
        scale = np.abs(K).max()
        assert np.abs(K @ tx).max() / scale < 1e-9
        assert np.abs(K @ ty).max() / scale < 1e-9


def test_pml_element_with_zero_amplitude_bitwise_equal():
    mesh = box_mesh(4, 2, pml=2)
    model = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    cfg = DiscretizationConfig(degree=2)
    e_pml = mesh.cell_to_element[2, 0]
    e_int = mesh.cell_to_element[2, 3]
    assert mesh.element_region[e_pml] != meshmod.INTERIOR
    assert mesh.element_region[e_int] == meshmod.INTERIOR
    K1, M1 = element_system(mesh, e_pml, model, RHO, 900.0, NO_PML, cfg)
    K2, M2 = element_system(mesh, e_int, model, RHO, 900.0, NO_PML, cfg)
    assert np.array_equal(K1, K2)
    assert np.array_equal(M1, M2)


def test_element_symmetry_with_pml():
    mesh = box_mesh(4, 2, pml=2)
    model = random_model(mesh, 5)
    cfg = DiscretizationConfig(degree=3)
    e = mesh.cell_to_element[0, 0]  # corner PML element
    K, M = element_system(mesh, e, model, RHO, 1200.0, PML, cfg)
    np.testing.assert_allclose(K, K.T, rtol=1e-12, atol=1e-3)
    np.testing.assert_allclose(M, M.T, rtol=1e-12, atol=1e-12)


def test_quadrature_convergence_interior():
    mesh = box_mesh()
    homog = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    hetero = random_model(mesh, 6)
    for p in (1, 2, 3):
        # constant material: the (p+1)-point rule already integrates exactly
        base = DiscretizationConfig(degree=p)
        fine = DiscretizationConfig(degree=p, quad_points=p + 3)
        K1, M1 = element_system(mesh, 0, homog, RHO, 700.0, NO_PML, base)
        K2, M2 = element_system(mesh, 0, homog, RHO, 700.0, NO_PML, fine)
        assert np.abs(K1 - K2).max() / np.abs(K1).max() < 1e-10
        assert np.abs(M1 - M2).max() / np.abs(M1).max() < 1e-10
        # bilinear material squares to degree 2p+2: exact from p+2 points on
        mid = DiscretizationConfig(degree=p, quad_points=p + 2)
        K1, M1 = element_system(mesh, 0, hetero, RHO, 700.0, NO_PML, mid)
        K2, M2 = element_system(mesh, 0, hetero, RHO, 700.0, NO_PML, fine)
        assert np.abs(K1 - K2).max() / np.abs(K1).max() < 1e-10
        assert np.abs(M1 - M2).max() / np.abs(M1).max() < 1e-10


# -- dense oracle ----------------------------------------------------------------

def dense_oracle_system(mesh, model, rho, omega, profile, cfg):
    """Textbook assembly: tensor contraction loops at every quadrature point."""
    from numpy.polynomial.legendre import leggauss
    dm = DofMap(mesh, cfg.degree)
    n = dm.n_dofs
    K = np.zeros((n, n), dtype=complex)
    M = np.zeros((n, n), dtype=complex)
    for e in range(mesh.n_elements):
        stretched = profile.c_pml > 0 and mesh.element_region[e] != meshmod.INTERIOR
        nq = cfg.n_quad_pml if stretched else cfg.n_quad
        x1, w1 = leggauss(nq)
        x0, y0 = mesh.element_cell[e] * mesh.h
        dofs = dm.element_dofs[e]
        corners = mesh.elements[e]
        vp_c = model.vp[corners]
        vs_c = model.vs[corners]
        for qa in range(nq):
            for qb in range(nq):
                xi = np.array([x1[qa], x1[qb]])
                V, G = shape_functions(cfg.degree, xi)
                G = G * (2.0 / mesh.h)
                w = w1[qa] * w1[qb] * mesh.h ** 2 / 4.0
                gp = (x0 + 0.5 * (xi[0] + 1) * mesh.h,
                      y0 + 0.5 * (xi[1] + 1) * mesh.h)
                vp = V[:4] @ vp_c
                vs = V[:4] @ vs_c
                C = oracles.isotropic_stiffness(vp, vs, rho)
                ex, ey = 1.0 + 0.0j, 1.0 + 0.0j
                if stretched:
                    ex, ey = (pmlmod.stretching(s, omega, profile)
                              for s in oracles.pml_local_coordinate(mesh, e, gp))
                Ct = oracles.stretched_stiffness(C, ex, ey)
                nm = len(V)
                for a in range(nm):
                    for i in range(2):
                        for b in range(nm):
                            for k in range(2):
                                kv = 0.0 + 0.0j
                                for j in range(2):
                                    for l in range(2):
                                        kv += G[a, j] * Ct[i, j, k, l] * G[b, l]
                                K[dofs[2 * a + i], dofs[2 * b + k]] += w * kv
                                if i == k:
                                    M[dofs[2 * a + i], dofs[2 * b + k]] += (
                                        w * ex * ey * rho * V[a] * V[b])
    clamped = dm.clamped
    K[clamped, :] = 0.0
    K[:, clamped] = 0.0
    M[clamped, :] = 0.0
    M[:, clamped] = 0.0
    K[clamped, clamped] = 1.0
    return K, M, K - omega ** 2 * M


def test_assembled_system_matches_dense_oracle():
    mesh = box_mesh(2, 1)  # 2x2 elements, no PML
    model = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    cfg = DiscretizationConfig(degree=1)
    omega = 1000.0
    sys_ = assemble_system(mesh, model, RHO, omega, NO_PML, cfg)
    K, _, _ = oracles.coo_system(mesh, model, RHO, omega, NO_PML, cfg, sys_.dof_map)
    Kd, Md, Ld = dense_oracle_system(mesh, model, RHO, omega, NO_PML, cfg)
    np.testing.assert_allclose(sys_.L.toarray(), Ld, rtol=1e-12, atol=1e-3)
    np.testing.assert_allclose(K.toarray(), Kd, rtol=1e-12, atol=1e-3)


def test_assembled_system_matches_dense_oracle_pml_p2():
    mesh = box_mesh(4, 2, pml=2)
    model = random_model(mesh, 7)
    cfg = DiscretizationConfig(degree=2)
    omega = 2000.0
    sys_ = assemble_system(mesh, model, RHO, omega, PML, cfg)
    Kd, Md, Ld = dense_oracle_system(mesh, model, RHO, omega, PML, cfg)
    np.testing.assert_allclose(sys_.L.toarray(), Ld, rtol=1e-11, atol=1e-2)


def test_assembled_system_matches_dense_oracle_pml_p3():
    mesh = box_mesh(2, 1, pml=1)
    model = random_model(mesh, 19)
    cfg = DiscretizationConfig(degree=3)
    omega = 2500.0
    sys_ = assemble_system(mesh, model, RHO, omega, PML, cfg)
    Kd, Md, Ld = dense_oracle_system(mesh, model, RHO, omega, PML, cfg)
    np.testing.assert_allclose(sys_.L.toarray(), Ld, rtol=1e-11, atol=1e-2)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("profile", [NO_PML, PML], ids=["no_pml", "pml"])
def test_pattern_scatter_matches_coo_oracle(p, profile):
    mesh = build_tunnel_mesh(TunnelGeometry(6, 2, 1, 2, 3, 2, 1))
    model = random_model(mesh, 20)
    cfg = DiscretizationConfig(degree=p)
    dm = DofMap(mesh, p)
    assert dm.clamped.any()
    L = assemble_system(mesh, model, RHO, 1300.0, profile, cfg, dof_map=dm).L
    _, _, L_coo = oracles.coo_system(mesh, model, RHO, 1300.0, profile, cfg, dm)
    assert L.has_sorted_indices
    assert abs(L - L_coo).max() <= 1e-14 * abs(L_coo).max()
    # clamped rows and columns hold only their unit diagonal
    fixed = np.flatnonzero(dm.clamped)
    block = L[:, fixed]
    assert block.nnz == len(fixed)
    np.testing.assert_array_equal(block.toarray()[fixed], np.eye(len(fixed)))


PATTERN_MESHES = {
    "tunnel": lambda: build_tunnel_mesh(TunnelGeometry(6, 2, 1, 2, 3, 2, 1)),
    "pml_box": lambda: meshmod.build_unbounded_mesh(4, 3, 2, 1.0),
    "plain_box": lambda: box_mesh(4, 2, pml=0),
}


# a block of 1 makes every block a single column, 5 several multi-column
# blocks and a last partial one, 10**9 one block over all columns
@pytest.mark.parametrize("block", [1, 5, 10 ** 9])
@pytest.mark.parametrize("kind, p", [(kind, p) for kind in sorted(PATTERN_MESHES)
                                     for p in (1, 2, 3)] + [("desk", 2)])
def test_pattern_blocks_match_whole_array_build(kind, p, block):
    # "desk" is the desk inversion's grid: h = 1 with a 3 m absorbing layer
    desk = lambda: build_tunnel_mesh(TunnelGeometry(40, 12, 0, 12, 0, 3.0, 1.0))
    dm = DofMap({**PATTERN_MESHES, "desk": desk}[kind](), p)
    assert dm.clamped.any() == (kind != "plain_box")
    new, old = asmmod.SystemPattern(dm), oracles.system_pattern_oracle(dm)
    assert (new.shape, new.nnz) == (old.shape, old.nnz)
    for k in ("indices", "indptr", "fixed", "slots"):
        a, b = getattr(new, k), getattr(old, k)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b, strict=True)

    # without the oracle: every live entry's slot, and every fixed slot,
    # lies in the slot range of its column's block and holds its row
    n, dofs = new.shape[0], dm.element_dofs
    rows = np.repeat(dofs, dofs.shape[1], axis=1).ravel()
    cols = np.tile(dofs, (1, dofs.shape[1])).ravel()
    slots = new.slots.ravel().astype(np.int64)
    live = slots < new.nnz
    assert live.sum() == (~dm.clamped[rows] & ~dm.clamped[cols]).sum()
    fixed = np.flatnonzero(dm.clamped)
    rows = np.concatenate([rows[live], fixed])
    cols = np.concatenate([cols[live], fixed])
    slots = np.concatenate([slots[live], new.fixed])
    edges = new.indptr[np.minimum(np.arange(0, n + block, block), n)]
    start = cols // block
    assert np.all((edges[start] <= slots) & (slots < edges[start + 1]))
    np.testing.assert_array_equal(new.indices[slots], rows)


@pytest.mark.parametrize("profile", [NO_PML, PML], ids=["no_pml", "pml"])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(PATTERN_MESHES))
def test_slot_sums_match_csr_summation_bitwise(kind, p, profile):
    mesh = PATTERN_MESHES[kind]()
    model = random_model(mesh, 23)
    cfg = DiscretizationConfig(degree=p)
    dm = DofMap(mesh, p)
    L = assemble_system(mesh, model, RHO, 1300.0, profile, cfg, dof_map=dm).L
    values = oracles.element_values(mesh, model, RHO, 1300.0, profile, cfg)
    assert np.any(values.imag != 0) == (profile is PML and kind != "plain_box")
    old = oracles.summation_oracle(dm, values, profile)
    for k in ("data", "indices", "indptr"):
        a, b = getattr(L, k), getattr(old, k)
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


# one element per batch, and three
@pytest.mark.parametrize("per_batch", [1, 3])
@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("profile", [NO_PML, PML], ids=["no_pml", "pml"])
def test_slot_sums_bitwise_over_many_ranges(monkeypatch, profile, p, per_batch):
    monkeypatch.setattr(asmmod, "ENTRY_BUDGET", per_batch * (2 * asmmod.n_modes(p)) ** 2)
    mesh = PATTERN_MESHES["tunnel"]()
    batches = list(asmmod._batches(mesh, profile, p))
    elems = np.concatenate([e for e, _ in batches])
    np.testing.assert_array_equal(np.sort(elems), np.arange(mesh.n_elements))
    np.testing.assert_array_equal(elems, oracles.batch_order(mesh, profile))
    for e, flag in batches:
        assert 1 <= len(e) <= per_batch
        # one rule per batch: all stretched (PML under a live profile) or none
        stretched = (mesh.element_region[e] != meshmod.INTERIOR) & (profile is PML)
        assert np.all(stretched == flag)
    n_stretched = np.count_nonzero((mesh.element_region != meshmod.INTERIOR)
                                   & (profile is PML))
    assert (n_stretched > 0) == (profile is PML)
    assert len(batches) == (-(-(mesh.n_elements - n_stretched) // per_batch)
                            - (-n_stretched // per_batch))
    test_slot_sums_match_csr_summation_bitwise("tunnel", p, profile)


# Assembly memory at the case-study scale: the blindtest mesh at p = 3 and
# its pattern, then L at omega = 300 and 1000 rad/s, the first L dropped.
# Prints the degree, the second L's value bytes and VmRSS (kB) before the
# first and after the second assembly.
CASE_SCALE_ASSEMBLY = """
import sys
from tunnelfwi import assembly, config, material, mesh
def rss_kb():
    return int([ln.split()[1] for ln in open("/proc/self/status")
                if ln.startswith("VmRSS")][0])
cfg = config.load_config(sys.argv[1])
grid = mesh.build_tunnel_mesh(cfg.geometry())
amb = cfg.ambient()
model = material.ModelVector.homogeneous(grid, amb.vp, amb.vs)
disc = cfg.discretization()
dm = assembly.DofMap(grid, disc.degree)
dm.system_pattern()
before = rss_kb()
for omega in (300.0, 1000.0):
    L = None
    L = assembly.assemble_system(grid, model, amb.rho, omega, cfg.profile(), disc,
                                 dof_map=dm).L
print(disc.degree, L.data.nbytes, before, rss_kb())
"""


def test_case_scale_assembly_keeps_no_whole_mesh_temporaries():
    code, out, _ = oracles.run_child(CASE_SCALE_ASSEMBLY,
                                     oracles.ROOT / "configs" / "blindtest.cfg")
    assert code == 0
    degree, nbytes, before_kb, after_kb = map(int, out.split())
    assert degree == 3
    # L's values and 32 MB of slack; whole-mesh element matrix stacks that
    # stay on the heap after an assembly take about 100 MB more
    growth = (after_kb - before_kb) * 1024
    assert growth <= nbytes + 32 * 2 ** 20, \
        f"RSS grew {growth / 2 ** 20:.1f} MB, L's values take {nbytes / 2 ** 20:.1f} MB"


def test_dofmap_builds_its_pattern_once(monkeypatch):
    built = []

    class CountingPattern(asmmod.SystemPattern):
        def __init__(self, dof_map):
            built.append(dof_map)
            super().__init__(dof_map)

    monkeypatch.setattr(asmmod, "SystemPattern", CountingPattern)
    mesh = box_mesh(4, 2, pml=1)
    model = random_model(mesh, 21)
    cfg = DiscretizationConfig(degree=2)
    dm = DofMap(mesh, 2)
    assert built == []
    for omega in (800.0, 1600.0):
        assemble_system(mesh, model, RHO, omega, PML, cfg, dof_map=dm)
    assert built == [dm]


def test_dof_map_of_another_mesh_or_degree_rejected():
    mesh = box_mesh(4, 2, pml=1)
    other = build_tunnel_mesh(TunnelGeometry(4, 2, 0, 2, 0, 1, 0.5))
    model = random_model(mesh, 22)
    cfg = DiscretizationConfig(degree=3)
    with pytest.raises(AssemblyError, match="another mesh"):
        assemble_system(mesh, model, RHO, 900.0, PML, cfg, dof_map=DofMap(other, 3))
    with pytest.raises(AssemblyError, match="degree 2"):
        assemble_system(mesh, model, RHO, 900.0, PML, cfg, dof_map=DofMap(mesh, 2))


def test_point_operator_rows_follow_the_per_point_reference():
    mesh = box_mesh(4, 2, pml=1)
    dm = DofMap(mesh, 3)
    W, H = mesh.extent
    pts = np.vstack([np.random.default_rng(4).uniform(0.0, (W, H), (20, 2)),
                     [(1.0, 1.0), (W, 0.0), (2.5, H)]])
    R = asmmod.point_operator(dm, pts, allow_pml=True).toarray()
    for k, p in enumerate(pts):
        e, xi = oracles.reference_locate(mesh, p)
        V, _ = shape_functions(3, np.asarray(xi))
        want = np.zeros((2, dm.n_dofs))
        for d in (0, 1):
            dofs = dm.element_dofs[e, d::2]
            want[d, dofs] = V * ~dm.clamped[dofs]
        assert np.array_equal(R[2 * k:2 * k + 2], want)


@pytest.mark.parametrize("allow_pml", [False, True])
def test_point_operator_of_no_points(allow_pml):
    mesh = box_mesh(4, 2, pml=1)  # a map holds its mesh weakly
    dm = DofMap(mesh, 2)
    R = asmmod.point_operator(dm, [], allow_pml)
    assert R.shape == (0, dm.n_dofs) and R.nnz == 0
    assert dm.station_operator([]).shape == (0, dm.n_dofs)


def test_point_source_rejects_foreign_dof_map():
    mesh, other = box_mesh(2, 1), box_mesh(2, 1)
    dm = DofMap(other, 1)
    with pytest.raises(AssemblyError, match="another mesh"):
        assemble_point_source(mesh, dm, (1.0, 1.0), (1.0, 0.0), 1.0)


def test_a_mesh_and_its_stored_maps_die_on_del_without_the_cycle_collector():
    # a map holds its mesh weakly: mesh.dof_maps forms no reference cycle
    mesh = box_mesh(4, 2, pml=1)
    for p in (1, 2):
        DofMap.of(mesh, p).system_pattern()
    alone = DofMap(mesh, 3)
    refs = [weakref.ref(x) for x in (mesh, *mesh.dof_maps.values())]
    gc.disable()
    try:
        del mesh
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()
    with pytest.raises(AssemblyError, match="^the mesh this dof map numbers "
                                            "has been freed$"):
        alone.mesh


def test_global_symmetry_heterogeneous_pml():
    mesh = box_mesh(6, 3, pml=2)
    model = random_model(mesh, 8)
    cfg = DiscretizationConfig(degree=2)
    sys_ = assemble_system(mesh, model, RHO, 1500.0, PML, cfg)
    d = sys_.L - sys_.L.T
    assert abs(d).max() / abs(sys_.L).max() < 1e-12


def test_omega_identity_pml_free():
    mesh = box_mesh(3, 2)
    model = random_model(mesh, 9)
    cfg = DiscretizationConfig(degree=2)
    omega = 700.0
    s2 = assemble_system(mesh, model, RHO, 2 * omega, NO_PML, cfg)
    K1, _, _ = oracles.coo_system(mesh, model, RHO, omega, NO_PML, cfg, s2.dof_map)
    _, M2, _ = oracles.coo_system(mesh, model, RHO, 2 * omega, NO_PML, cfg, s2.dof_map)
    lhs = (s2.L + 4 * omega ** 2 * M2).toarray()
    np.testing.assert_allclose(lhs, K1.toarray(), rtol=1e-12, atol=1e-3)


def test_sparsity_pattern_stable_across_omega():
    mesh = box_mesh(3, 2, pml=1)
    model = random_model(mesh, 10)
    cfg = DiscretizationConfig(degree=2)
    s1 = assemble_system(mesh, model, RHO, 500.0, PML, cfg)
    s2 = assemble_system(mesh, model, RHO, 3000.0, PML, cfg)
    assert np.array_equal(s1.L.indptr, s2.L.indptr)
    assert np.array_equal(s1.L.indices, s2.L.indices)


# -- point sources ---------------------------------------------------------------

def test_point_source_at_vertex():
    mesh = box_mesh(2, 1)
    dm = DofMap(mesh, 1)
    node = mesh.node_grid[1, 1]
    rhs = assemble_point_source(mesh, dm, (1.0, 1.0), (1.0, 0.0), 1.0)
    want = np.zeros(dm.n_dofs, dtype=complex)
    want[2 * node] = 1.0
    np.testing.assert_allclose(rhs, want, atol=1e-14)


def test_point_source_at_center():
    mesh = box_mesh(2, 1)
    dm = DofMap(mesh, 1)
    rhs = assemble_point_source(mesh, dm, (0.5, 0.5), (0.0, 1.0), 1.0)
    nz = np.flatnonzero(np.abs(rhs) > 0)
    assert len(nz) == 4
    np.testing.assert_allclose(rhs[nz], 0.25, atol=1e-14)
    assert np.all(nz % 2 == 1)  # y-direction dofs


def test_point_source_partition_of_unity():
    mesh = box_mesh(4, 2)
    for p in (1, 2, 3):
        dm = DofMap(mesh, p)
        f = 2.0 - 1.0j
        rhs = assemble_point_source(mesh, dm, (1.3, 2.7), (1.0, 0.0), f)
        # vertex modes reproduce constants: their sum carries the full force
        assert rhs[0::2][:mesh.n_nodes].sum() == pytest.approx(f, rel=1e-12)
        assert abs(rhs[1::2].sum()) < 1e-14


def test_point_source_in_pml_rejected():
    mesh = box_mesh(4, 2, pml=2)
    dm = DofMap(mesh, 1)
    with pytest.raises(Exception):
        assemble_point_source(mesh, dm, (0.5, 2.5), (1.0, 0.0), 1.0)


# -- model derivative of the impedance matrix -------------------------------------

def test_dL_dm_zero_adjoint():
    mesh = box_mesh(2, 1)
    model = random_model(mesh, 11)
    cfg = DiscretizationConfig(degree=1)
    dm = DofMap(mesh, 1)
    rng = np.random.default_rng(12)
    u = rng.normal(size=dm.n_dofs) + 1j * rng.normal(size=dm.n_dofs)
    system = assemble_system(mesh, model, RHO, 900.0, NO_PML, cfg, dof_map=dm)
    val = stiffness_derivative_products(system, u[:, None],
                                        np.zeros((dm.n_dofs, 1), dtype=complex))[3]
    assert val == 0.0


def test_dL_dm_matches_explicit_matrix():
    # build dK/dm_k by finite differences of the dense oracle in the model entry
    mesh = box_mesh(2, 1)
    model = random_model(mesh, 13)
    cfg = DiscretizationConfig(degree=1)
    dm = DofMap(mesh, 1)
    omega = 1100.0
    rng = np.random.default_rng(14)
    u = rng.normal(size=dm.n_dofs) + 1j * rng.normal(size=dm.n_dofs)
    v = rng.normal(size=dm.n_dofs) + 1j * rng.normal(size=dm.n_dofs)
    u[dm.clamped] = 0.0
    v[dm.clamped] = 0.0
    step = 1e-3
    system = assemble_system(mesh, model, RHO, omega, NO_PML, cfg, dof_map=dm)
    for k in (0, 5, mesh.n_nodes + 2, 2 * mesh.n_nodes - 1):
        got = stiffness_derivative_products(system, u[:, None], v[:, None])[k]
        mp = model.values.copy()
        mp[k] += step
        mm = model.values.copy()
        mm[k] -= step
        _, _, Lp = dense_oracle_system(mesh, ModelVector(mp), RHO, omega, NO_PML, cfg)
        _, _, Lm = dense_oracle_system(mesh, ModelVector(mm), RHO, omega, NO_PML, cfg)
        fd = u @ ((Lp - Lm) / (2 * step)) @ v
        assert got == pytest.approx(fd, rel=1e-6)


def test_dL_dm_matches_fd_with_pml():
    mesh = box_mesh(4, 2, pml=1)
    model = random_model(mesh, 15)
    cfg = DiscretizationConfig(degree=2)
    dm = DofMap(mesh, 2)
    omega = 1700.0
    rng = np.random.default_rng(16)
    u = rng.normal(size=dm.n_dofs) + 1j * rng.normal(size=dm.n_dofs)
    v = rng.normal(size=dm.n_dofs) + 1j * rng.normal(size=dm.n_dofs)
    u[dm.clamped] = 0.0
    v[dm.clamped] = 0.0
    step = 1e-2
    system = assemble_system(mesh, model, RHO, omega, PML, cfg, dof_map=dm)
    for k in (2, mesh.n_nodes + 7):
        got = stiffness_derivative_products(system, u[:, None], v[:, None])[k]
        mp = model.values.copy(); mp[k] += step
        mm = model.values.copy(); mm[k] -= step
        Lp = assemble_system(mesh, ModelVector(mp), RHO, omega, PML, cfg, dof_map=dm).L
        Lm = assemble_system(mesh, ModelVector(mm), RHO, omega, PML, cfg, dof_map=dm).L
        fd = u @ ((Lp - Lm) / (2 * step)) @ v
        assert got == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("profile", [NO_PML, PML], ids=["no_pml", "pml"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_derivative_products_match_oracle(p, profile):
    # the transposed table product against the per-pair gradient kernel
    mesh = build_tunnel_mesh(TunnelGeometry(6, 2, 1, 2, 3, 1, 1))
    model = random_model(mesh, 19)
    cfg = DiscretizationConfig(degree=p)
    dm = DofMap(mesh, p)
    rng = np.random.default_rng(20 + p)
    pairs = [tuple(rng.normal(size=dm.n_dofs) + 1j * rng.normal(size=dm.n_dofs)
                   for _ in range(2)) for _ in range(3)]
    args = (mesh, model, RHO, 1300.0, profile, cfg, dm)
    system = assemble_system(*args[:-1], dof_map=dm)
    U, W = (np.stack(columns, axis=1) for columns in zip(*pairs))
    np.testing.assert_allclose(stiffness_derivative_products(system, U, W),
                               oracles.derivative_products_oracle(pairs, *args),
                               rtol=1e-12)


@pytest.mark.parametrize("profile", [NO_PML, PML], ids=["no_pml", "pml"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_direction_product_matches_oracle(p, profile):
    # L is quadratic in the model, so the central difference of two
    # assembled systems is exact up to rounding
    mesh = build_tunnel_mesh(TunnelGeometry(6, 2, 1, 2, 3, 1, 1))
    model = random_model(mesh, 21)
    cfg = DiscretizationConfig(degree=p)
    dm = DofMap(mesh, p)
    assert dm.clamped.any()
    rng = np.random.default_rng(30 + p)
    # the clamped entries of U are not zero, and must not count
    U = rng.normal(size=(dm.n_dofs, 3)) + 1j * rng.normal(size=(dm.n_dofs, 3))
    direction = rng.normal(size=2 * mesh.n_nodes)
    args = (mesh, model, RHO, 1300.0, profile, cfg, dm)
    got = stiffness_direction_product(assemble_system(*args[:-1], dof_map=dm), U,
                                      direction)
    want = oracles.direction_product_oracle(U, direction, *args, eps=10.0)
    assert got.shape == U.shape
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert np.all(got[dm.clamped] == 0.0)


def test_node_areas():
    mesh = box_mesh(2, 1)  # 2x2 grid of unit elements
    areas = node_areas(mesh)
    # corner nodes 0.25, edge nodes 0.5, center 1.0
    center = mesh.node_grid[1, 1]
    assert areas[center] == pytest.approx(1.0)
    assert areas[mesh.node_grid[0, 0]] == pytest.approx(0.25)
    assert areas[mesh.node_grid[0, 1]] == pytest.approx(0.5)
    assert areas.sum() == pytest.approx(mesh.n_elements * mesh.h ** 2)


def test_hierarchy_element_matrices():
    # rows/cols of retained modes unchanged when raising p with the same rule
    mesh = box_mesh(2, 1)
    model = random_model(mesh, 18)
    K2, M2 = element_system(mesh, 0, model, RHO, 600.0, NO_PML,
                            DiscretizationConfig(degree=2, quad_points=5))
    K3, M3 = element_system(mesh, 0, model, RHO, 600.0, NO_PML,
                            DiscretizationConfig(degree=3, quad_points=5))
    # p=2 modes: 4 vertices + 4 edges + 1 interior; find them inside p=3 order
    idx2 = list(range(4)) + [4, 6, 8, 10] + [12]  # p=3 local positions
    dofs2 = []
    for m in idx2:
        dofs2 += [2 * m, 2 * m + 1]
    np.testing.assert_allclose(K3[np.ix_(dofs2, dofs2)], K2, rtol=1e-12, atol=1e-3)
    np.testing.assert_allclose(M3[np.ix_(dofs2, dofs2)], M2, rtol=1e-12, atol=1e-12)
