"""Structured quadrilateral grids for a shallow 2D tunnel domain.

The grid is axis aligned with square elements of uniform size.  Absorbing
layers (PML) can be attached to any subset of the four sides, the Earth's
surface stays free on top of the tunnel variant, and the tunnel itself is a
rectangular void that reaches through the left absorbing layer so that the
tunnel mouth touches the outer boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# element region tags
INTERIOR = 0
PML_X = 1
PML_Y = 2
PML_CORNER = 3

_SNAP = 1e-9  # relative snap tolerance for points sitting on grid lines


class MeshError(ValueError):
    """Invalid geometry or non-conforming discretization."""


class PointNotFoundError(LookupError):
    """Raised when a point lies in the void or outside the grid."""


def _check_conforming(extent, h, name):
    if extent < 0:
        raise MeshError(f"{name} must be >= 0, got {extent}")
    cells = extent / h
    if abs(cells - round(cells)) > 1e-9 * max(1.0, cells):
        raise MeshError(f"element_size {h} does not divide {name} = {extent} evenly")
    return int(round(cells))


@dataclass(frozen=True)
class TunnelGeometry:
    """Extents of the tunnel domain in meters.

    ``domain_width`` covers the represented tunnel section plus the ground in
    front of the tunnel face.  A zero ``tunnel_height`` describes a plain box
    without a void.
    """

    domain_width: float
    depth_above_tunnel: float
    tunnel_height: float
    depth_below_tunnel: float
    tunnel_length: float
    pml_width: float
    element_size: float

    def validate(self):
        h = self.element_size
        if h <= 0:
            raise MeshError(f"element_size must be > 0, got {h}")
        if self.domain_width <= 0:
            raise MeshError("domain_width must be > 0")
        for name in ("domain_width", "depth_above_tunnel", "tunnel_height",
                     "depth_below_tunnel", "tunnel_length", "pml_width"):
            _check_conforming(getattr(self, name), h, name)
        if self.tunnel_height > 0:
            if self.depth_above_tunnel <= 0 or self.depth_below_tunnel <= 0:
                raise MeshError("tunnel void must lie strictly between the "
                                "Earth's surface and the bottom boundary")
            if self.tunnel_length >= self.domain_width:
                raise MeshError("tunnel_length must be smaller than domain_width")


@dataclass(frozen=True)
class Source:
    position: tuple
    direction: tuple  # unit vector (dx, dy)

    def validate(self):
        d = np.asarray(self.direction, dtype=float)
        if abs(np.linalg.norm(d) - 1.0) > 1e-9:
            raise MeshError(f"source direction {self.direction} is not a unit vector")


@dataclass(frozen=True)
class Receiver:
    position: tuple
    directions: tuple = (0, 1)  # recorded displacement components


@dataclass(frozen=True)
class StationLayout:
    sources: tuple
    receivers: tuple

    @property
    def n_sources(self):
        return len(self.sources)

    @property
    def n_receivers(self):
        return len(self.receivers)

    def direction_mask(self):
        """Boolean (n_receivers, 2) mask of recorded components."""
        mask = np.zeros((len(self.receivers), 2), dtype=bool)
        for r, rec in enumerate(self.receivers):
            for d in rec.directions:
                mask[r, d] = True
        return mask

    def station_points(self):
        pts = [s.position for s in self.sources] + [r.position for r in self.receivers]
        return np.asarray(pts, dtype=float).reshape(-1, 2)


class Mesh:
    """Immutable structured quad mesh with region and boundary tags."""

    def __init__(self, nx, ny, h, pml_cells, void_cells=None, free_top=True):
        self.nx = nx
        self.ny = ny
        self.h = float(h)
        self.pml_cells = pml_cells  # (left, right, bottom, top) in cells
        self.void_cells = void_cells  # (i0, i1, j0, j1) half-open cell ranges
        self.free_top = free_top
        self._build()

    # -- construction -----------------------------------------------------

    def _in_void(self, i, j):
        if self.void_cells is None:
            return False
        i0, i1, j0, j1 = self.void_cells
        return i0 <= i < i1 and j0 <= j < j1

    def _build(self):
        nx, ny, h = self.nx, self.ny, self.h
        left, right, bottom, top = self.pml_cells

        node_grid = -np.ones((ny + 1, nx + 1), dtype=int)
        cell_to_element = -np.ones((ny, nx), dtype=int)

        elements = []
        cells = []
        regions = []
        pml_ref = []
        for j in range(ny):
            for i in range(nx):
                if self._in_void(i, j):
                    continue
                cell_to_element[j, i] = len(elements)
                elements.append((i, j))
                cells.append((i, j))
                in_x = i < left or i >= nx - right
                in_y = j < bottom or j >= ny - top
                if in_x and in_y:
                    regions.append(PML_CORNER)
                elif in_x:
                    regions.append(PML_X)
                elif in_y:
                    regions.append(PML_Y)
                else:
                    regions.append(INTERIOR)
                rx = np.nan
                ry = np.nan
                if i < left:
                    rx = left * h
                elif i >= nx - right:
                    rx = (nx - right) * h
                if j < bottom:
                    ry = bottom * h
                elif j >= ny - top:
                    ry = (ny - top) * h
                pml_ref.append((rx, ry))

        # number retained nodes in grid order
        used = np.zeros((ny + 1, nx + 1), dtype=bool)
        for (i, j) in elements:
            used[j:j + 2, i:i + 2] = True
        n_nodes = 0
        coords = []
        for j in range(ny + 1):
            for i in range(nx + 1):
                if used[j, i]:
                    node_grid[j, i] = n_nodes
                    coords.append((i * h, j * h))
                    n_nodes += 1

        conn = np.empty((len(elements), 4), dtype=int)
        for e, (i, j) in enumerate(elements):
            conn[e] = (node_grid[j, i], node_grid[j, i + 1],
                       node_grid[j + 1, i + 1], node_grid[j + 1, i])

        self.nodes = np.asarray(coords, dtype=float)
        self.elements = conn
        self.element_cell = np.asarray(cells, dtype=int)
        self.element_region = np.asarray(regions, dtype=np.int8)
        self.pml_ref = np.asarray(pml_ref, dtype=float).reshape(-1, 2)
        self.node_grid = node_grid
        self.cell_to_element = cell_to_element
        self._tag_edges()

    def _tag_edges(self):
        """Classify boundary edges (edges owned by exactly one element)."""
        nx, ny = self.nx, self.ny
        counts = {}
        owner = {}
        for e in range(len(self.elements)):
            n0, n1, n2, n3 = self.elements[e]
            for a, b in ((n0, n1), (n1, n2), (n3, n2), (n0, n3)):
                key = (a, b) if a < b else (b, a)
                counts[key] = counts.get(key, 0) + 1
                owner[key] = e

        free, outer = [], []
        w = nx * self.h
        htop = ny * self.h
        for key, c in counts.items():
            if c != 1:
                continue
            xa, ya = self.nodes[key[0]]
            xb, yb = self.nodes[key[1]]
            on_outer = (min(xa, xb) >= w - 1e-12 or max(xa, xb) <= 1e-12 or
                        min(ya, yb) >= htop - 1e-12 or max(ya, yb) <= 1e-12)
            on_surface = min(ya, yb) >= htop - 1e-12
            if on_surface and self.free_top:
                free.append(key)
            elif on_outer:
                if self.element_region[owner[key]] != INTERIOR:
                    outer.append(key)
                # outer edges of interior elements (pml width 0) stay untagged
            else:
                free.append(key)  # tunnel walls and faces

        self.edge_counts = counts
        self.free_surface_edges = np.asarray(sorted(free), dtype=int).reshape(-1, 2)
        self.outer_pml_edges = np.asarray(sorted(outer), dtype=int).reshape(-1, 2)

    # -- queries -----------------------------------------------------------

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_elements(self):
        return len(self.elements)

    @property
    def extent(self):
        return self.nx * self.h, self.ny * self.h

    def element_origin(self, e):
        i, j = self.element_cell[e]
        return i * self.h, j * self.h

    def candidate_cells(self, p):
        """Cells whose closure contains p, ordered by ascending element id."""
        x, y = float(p[0]), float(p[1])
        h = self.h
        cand_i = _axis_candidates(x / h, self.nx)
        cand_j = _axis_candidates(y / h, self.ny)
        cells = []
        for j in cand_j:
            for i in cand_i:
                e = self.cell_to_element[j, i]
                if e >= 0:
                    cells.append(e)
        return cells

    def interior_box(self):
        """Coordinate bounds (x0, x1, y0, y1) of the unstretched region."""
        left, right, bottom, top = self.pml_cells
        return (left * self.h, (self.nx - right) * self.h,
                bottom * self.h, (self.ny - top) * self.h)


def _axis_candidates(u, n_cells):
    """Cell indices along one axis whose closed interval contains u (in cells)."""
    if u < -_SNAP or u > n_cells + _SNAP:
        return []
    r = round(u)
    if abs(u - r) <= _SNAP * max(1.0, abs(u)) + 1e-12:
        out = []
        if r - 1 >= 0:
            out.append(int(r - 1))
        if r <= n_cells - 1:
            out.append(int(r))
        return out
    i = int(np.floor(u))
    return [i] if 0 <= i <= n_cells - 1 else []


def build_tunnel_mesh(geometry: TunnelGeometry) -> Mesh:
    """Grid over the tunnel domain plus PML collars on left/right/bottom.

    The Earth's surface stays free; the tunnel void reaches through the left
    PML so its mouth touches the outer boundary.
    """
    geometry.validate()
    h = geometry.element_size
    pml = _check_conforming(geometry.pml_width, h, "pml_width")
    wi = _check_conforming(geometry.domain_width, h, "domain_width")
    above = _check_conforming(geometry.depth_above_tunnel, h, "depth_above_tunnel")
    tun_h = _check_conforming(geometry.tunnel_height, h, "tunnel_height")
    below = _check_conforming(geometry.depth_below_tunnel, h, "depth_below_tunnel")
    tun_l = _check_conforming(geometry.tunnel_length, h, "tunnel_length")

    nx = wi + 2 * pml
    ny = above + tun_h + below + pml
    void = None
    if tun_h > 0 and pml + tun_l > 0:
        void = (0, pml + tun_l, pml + below, pml + below + tun_h)
    return Mesh(nx, ny, h, (pml, pml, pml, 0), void_cells=void, free_top=True)


def build_unbounded_mesh(width, height, pml_width, element_size) -> Mesh:
    """Plain box with PML on all four sides, used for calibration runs."""
    h = element_size
    if h <= 0:
        raise MeshError("element_size must be > 0")
    pml = _check_conforming(pml_width, h, "pml_width")
    wi = _check_conforming(width, h, "width")
    hi = _check_conforming(height, h, "height")
    return Mesh(wi + 2 * pml, hi + 2 * pml, h, (pml, pml, pml, pml),
                void_cells=None, free_top=False)


def locate_point(mesh: Mesh, p):
    """Return (element id, local coordinates in [-1, 1]^2) containing p.

    Points on shared edges resolve to the lowest element id.
    """
    cells = mesh.candidate_cells(p)
    if not cells:
        raise PointNotFoundError(f"point {tuple(p)} lies in the void or outside the grid")
    e = cells[0]
    return e, _local_coordinates(mesh, e, p)


def locate_station(mesh: Mesh, p):
    """Like locate_point but prefers non-PML elements among candidates.

    Stations may sit exactly on the interface between the unstretched region
    and the PML; in that case the interior element wins.
    """
    cells = mesh.candidate_cells(p)
    if not cells:
        raise PointNotFoundError(f"station {tuple(p)} lies in the void or outside the grid")
    interior = [e for e in cells if mesh.element_region[e] == INTERIOR]
    if not interior:
        raise PointNotFoundError(f"station {tuple(p)} lies inside the PML")
    e = interior[0]
    return e, _local_coordinates(mesh, e, p)


def _local_coordinates(mesh: Mesh, e, p):
    """(xi, eta) of p in element e, clamped to [-1, 1]^2."""
    x0, y0 = mesh.element_origin(e)
    xi = 2.0 * (p[0] - x0) / mesh.h - 1.0
    eta = 2.0 * (p[1] - y0) / mesh.h - 1.0
    return min(1.0, max(-1.0, xi)), min(1.0, max(-1.0, eta))


def pml_local_coordinate(mesh: Mesh, e, p):
    """Distance of p from the inner PML edge, one value per stretched axis."""
    if mesh.element_region[e] == INTERIOR:
        raise MeshError(f"element {e} is not a PML element")
    rx, ry = mesh.pml_ref[e]
    sx = abs(p[0] - rx) if np.isfinite(rx) else 0.0
    sy = abs(p[1] - ry) if np.isfinite(ry) else 0.0
    return sx, sy


def validate_layout(layout: StationLayout, mesh: Mesh):
    """Every station must be locatable outside the PML."""
    for s in layout.sources:
        s.validate()
        locate_station(mesh, s.position)
    for r in layout.receivers:
        locate_station(mesh, r.position)
