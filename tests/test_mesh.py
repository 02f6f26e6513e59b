import numpy as np
import pytest

from oracles import dump_mesh, local_to_global
from tunnelfwi import mesh as meshmod
from tunnelfwi.mesh import (INTERIOR, PML_CORNER, PML_X, PML_Y, MeshError,
                            PointNotFoundError, Source, StationLayout,
                            TunnelGeometry, build_tunnel_mesh,
                            build_unbounded_mesh, locate_point,
                            pml_local_coordinate)


def blindtest_geometry():
    return TunnelGeometry(domain_width=100, depth_above_tunnel=15,
                          tunnel_height=6, depth_below_tunnel=15,
                          tunnel_length=20, pml_width=3, element_size=1)


def test_blindtest_element_count():
    mesh = build_tunnel_mesh(blindtest_geometry())
    assert mesh.n_elements == 3996


def test_plain_box_no_pml():
    geo = TunnelGeometry(10, 5, 0, 5, 0, 0, 1)
    mesh = build_tunnel_mesh(geo)
    assert mesh.n_elements == 100
    assert np.all(mesh.element_region == INTERIOR)


def test_box_with_side_pml():
    geo = TunnelGeometry(10, 5, 0, 5, 0, 3, 1)
    mesh = build_tunnel_mesh(geo)
    assert mesh.n_elements == 16 * 13


def test_nonconforming_element_size_rejected():
    with pytest.raises(MeshError, match="does not divide"):
        build_tunnel_mesh(TunnelGeometry(10, 5, 0, 5, 0, 3, 0.7))


def test_tunnel_needs_cover():
    with pytest.raises(MeshError, match="strictly between"):
        build_tunnel_mesh(TunnelGeometry(10, 0, 2, 5, 4, 0, 1))


def test_region_partition_and_corner_rule():
    mesh = build_tunnel_mesh(blindtest_geometry())
    left, right, bottom, top = mesh.pml_cells
    for e in range(mesh.n_elements):
        i, j = mesh.element_cell[e]
        in_x = i < left or i >= mesh.nx - right
        in_y = j < bottom
        want = (PML_CORNER if in_x and in_y else PML_X if in_x
                else PML_Y if in_y else INTERIOR)
        assert mesh.element_region[e] == want
    # corner iff pml in both axes
    corners = mesh.element_region == PML_CORNER
    ref = np.isfinite(mesh.pml_ref)
    assert np.array_equal(corners, ref[:, 0] & ref[:, 1])


def test_area_identity():
    # sum of element areas equals domain area minus void area, exact in counts
    mesh = build_tunnel_mesh(blindtest_geometry())
    total_cells = mesh.nx * mesh.ny
    i0, i1, j0, j1 = mesh.void_cells
    assert mesh.n_elements == total_cells - (i1 - i0) * (j1 - j0)
    assert mesh.n_elements * mesh.h ** 2 == 106 * 39 - 23 * 6


def test_free_surface_edges_unique_owner():
    mesh = build_tunnel_mesh(blindtest_geometry())
    for a, b in mesh.free_surface_edges:
        key = (min(a, b), max(a, b))
        assert mesh.edge_counts[key] == 1


def test_free_surface_only_on_surface_and_tunnel():
    mesh = build_tunnel_mesh(blindtest_geometry())
    H = mesh.ny * mesh.h
    i0, i1, j0, j1 = mesh.void_cells
    for a, b in mesh.free_surface_edges:
        ya, yb = mesh.nodes[a, 1], mesh.nodes[b, 1]
        xa, xb = mesh.nodes[a, 0], mesh.nodes[b, 0]
        on_surface = min(ya, yb) == H
        on_tunnel = (max(xa, xb) <= i1 * mesh.h and
                     j0 * mesh.h <= min(ya, yb) and max(ya, yb) <= j1 * mesh.h)
        assert on_surface or on_tunnel


def test_outer_edges_belong_to_pml_elements():
    mesh = build_tunnel_mesh(blindtest_geometry())
    W, H = mesh.extent
    for a, b in mesh.outer_pml_edges:
        xs = mesh.nodes[[a, b], 0]
        ys = mesh.nodes[[a, b], 1]
        assert (xs.max() <= 0 or xs.min() >= W or ys.max() <= 0 or ys.min() >= H)


def test_locate_corner_node():
    mesh = build_tunnel_mesh(TunnelGeometry(10, 5, 0, 5, 0, 0, 1))
    e, (xi, eta) = locate_point(mesh, (0.0, 0.0))
    assert e == 0
    assert xi == -1.0 and eta == -1.0


def test_locate_centroid():
    mesh = build_tunnel_mesh(TunnelGeometry(10, 5, 0, 5, 0, 0, 1))
    e, (xi, eta) = locate_point(mesh, (3.5, 4.5))
    assert (xi, eta) == (0.0, 0.0)
    assert tuple(mesh.element_cell[e]) == (3, 4)


def test_locate_tie_breaks_to_lowest_id():
    mesh = build_tunnel_mesh(TunnelGeometry(10, 5, 0, 5, 0, 0, 1))
    # interior grid node shared by four elements -> lower-left element wins
    e, _ = locate_point(mesh, (4.0, 4.0))
    assert tuple(mesh.element_cell[e]) == (3, 3)


def test_locate_in_void_fails():
    mesh = build_tunnel_mesh(blindtest_geometry())
    with pytest.raises(PointNotFoundError):
        locate_point(mesh, (10.0, 20.0))  # inside the tunnel void
    with pytest.raises(PointNotFoundError):
        locate_point(mesh, (-5.0, 5.0))


def test_locate_roundtrip_random_points():
    rng = np.random.default_rng(42)
    mesh = build_tunnel_mesh(blindtest_geometry())
    W, H = mesh.extent
    found = 0
    while found < 100:
        p = (rng.uniform(0, W), rng.uniform(0, H))
        try:
            e, xi = locate_point(mesh, p)
        except PointNotFoundError:
            continue
        back = local_to_global(mesh, e, xi)
        assert abs(back[0] - p[0]) < 1e-10 and abs(back[1] - p[1]) < 1e-10
        found += 1


def test_pml_local_coordinate_values():
    mesh = build_tunnel_mesh(TunnelGeometry(10, 5, 0, 5, 0, 3, 1))
    # left PML element at cell (0, 5): inner edge at x = 3
    e = mesh.cell_to_element[5, 0]
    assert mesh.element_region[e] == PML_X
    assert pml_local_coordinate(mesh, e, (3.0, 5.5)) == (0.0, 0.0)
    sx, sy = pml_local_coordinate(mesh, e, (0.0, 5.5))
    assert sx == 3.0 and sy == 0.0
    e2 = mesh.cell_to_element[5, 1]
    sx, _ = pml_local_coordinate(mesh, e2, (1.8, 5.5))
    assert abs(sx - 1.2) < 1e-12


def test_pml_local_coordinate_interior_rejected():
    mesh = build_tunnel_mesh(TunnelGeometry(10, 5, 0, 5, 0, 3, 1))
    e = mesh.cell_to_element[5, 8]
    assert mesh.element_region[e] == INTERIOR
    with pytest.raises(MeshError):
        pml_local_coordinate(mesh, e, (8.5, 5.5))


def test_unbounded_mesh_all_sides_pml():
    mesh = build_unbounded_mesh(10, 8, 2, 1.0)
    assert mesh.n_elements == 14 * 12
    assert len(mesh.free_surface_edges) == 0
    # boundary edge count: full perimeter
    assert len(mesh.outer_pml_edges) == 2 * (14 + 12)


def test_tunnel_mouth_reaches_outer_boundary():
    mesh = build_tunnel_mesh(blindtest_geometry())
    # no elements in the void columns at x < 23 between y = 18 and 24
    assert mesh.cell_to_element[18, 0] == -1
    assert mesh.cell_to_element[23, 22] == -1
    assert mesh.cell_to_element[18, 23] >= 0  # face column exists


def test_station_layout_validation():
    mesh = build_tunnel_mesh(blindtest_geometry())
    good = StationLayout(sources=(Source((30.0, 18.0), (0.0, 1.0)),),
                         receivers=(meshmod.Receiver((40.0, 24.0)),))
    meshmod.validate_layout(good, mesh)
    inside_pml = StationLayout(sources=(Source((1.0, 30.0), (0.0, 1.0)),),
                               receivers=())
    with pytest.raises(PointNotFoundError):
        meshmod.validate_layout(inside_pml, mesh)


def test_mesh_dump_runs(tmp_path):
    mesh = build_tunnel_mesh(TunnelGeometry(4, 2, 0, 2, 0, 0, 1))
    path = tmp_path / "mesh.txt"
    dump_mesh(mesh, path)
    text = path.read_text()
    assert "element 0" in text and "node 0" in text
