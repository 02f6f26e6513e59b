"""Structured quadrilateral grids for a shallow 2D tunnel domain.

The grid is axis aligned with square elements of uniform size.  Absorbing
layers (PML) can be attached to any subset of the four sides, the Earth's
surface stays free on top of the tunnel variant, and the tunnel itself is a
rectangular void that reaches through the left absorbing layer so that the
tunnel mouth touches the outer boundary.  ``TunnelGeometry`` and ``Source``
check themselves when made.
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
    """Cells of size h along extent; a bad value raises naming its field."""
    for field, value in (("element_size", h), (name, extent)):
        if not np.isfinite(value):
            raise MeshError(f"{field} must be finite, got {value}")
    if h <= 0:
        raise MeshError(f"element_size must be > 0, got {h}")
    if extent < 0:
        raise MeshError(f"{name} must be >= 0, got {extent}")
    cells = float(extent) / float(h)  # Python floats overflow to inf silently
    if cells == np.inf:
        raise MeshError(f"{name} = {extent} spans too many cells of element_size {h}")
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

    def __post_init__(self):
        if self.domain_width <= 0:
            raise MeshError(f"domain_width must be > 0, got {self.domain_width}")
        for name in ("domain_width", "depth_above_tunnel", "tunnel_height",
                     "depth_below_tunnel", "tunnel_length", "pml_width"):
            _check_conforming(getattr(self, name), self.element_size, name)
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

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if not abs(np.linalg.norm(d) - 1.0) <= 1e-9:  # NaN fails too
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
        self.dof_maps = {}  # degree -> assembly.DofMap, filled by DofMap.of
        self._build()

    # -- construction -----------------------------------------------------

    def _build(self):
        nx, ny, h = self.nx, self.ny, self.h
        left, right, bottom, top = self.pml_cells

        # elements are the non-void cells in row-major order (j outer)
        jj, ii = np.divmod(np.arange(nx * ny), nx)
        keep = np.ones(nx * ny, dtype=bool)
        if self.void_cells is not None:
            i0, i1, j0, j1 = self.void_cells
            keep = ~((i0 <= ii) & (ii < i1) & (j0 <= jj) & (jj < j1))
        ii, jj = ii[keep], jj[keep]
        cell_to_element = -np.ones(nx * ny, dtype=int)
        cell_to_element[keep] = np.arange(len(ii))

        lo_x, hi_x = ii < left, ii >= nx - right
        lo_y, hi_y = jj < bottom, jj >= ny - top
        in_x, in_y = lo_x | hi_x, lo_y | hi_y
        regions = np.select([in_x & in_y, in_x, in_y], [PML_CORNER, PML_X, PML_Y], INTERIOR)
        rx = np.where(lo_x, left * h, np.where(hi_x, (nx - right) * h, np.nan))
        ry = np.where(lo_y, bottom * h, np.where(hi_y, (ny - top) * h, np.nan))

        # number retained nodes in grid order
        cells = keep.reshape(ny, nx)
        used = np.zeros((ny + 1, nx + 1), dtype=bool)
        used[:-1, :-1] |= cells
        used[:-1, 1:] |= cells
        used[1:, 1:] |= cells
        used[1:, :-1] |= cells
        node_grid = -np.ones((ny + 1, nx + 1), dtype=int)
        node_grid[used] = np.arange(np.count_nonzero(used))
        nj, ni = np.nonzero(used)

        self.nodes = np.stack([ni * h, nj * h], axis=1)
        self.elements = node_grid[jj[:, None] + [0, 0, 1, 1], ii[:, None] + [0, 1, 1, 0]]
        self.element_cell = np.stack([ii, jj], axis=1)
        self.element_region = regions.astype(np.int8)
        self.pml_ref = np.stack([rx, ry], axis=1)
        self.node_grid = node_grid
        self.cell_to_element = cell_to_element.reshape(ny, nx)
        self._tag_edges()

    def _tag_edges(self):
        """Number the element edges and classify the boundary ones.

        ``edges`` holds each edge's sorted node pair, numbered in first-seen
        order over the elements' local edges (bottom, right, top, left);
        ``element_edges`` gives every element's four edge ids and
        ``edge_owners`` how many elements share an edge.  Boundary edges
        (one owner) are free on the surface and tunnel walls, and outer
        where they bound a PML element.
        """
        n0, n1, n2, n3 = self.elements.T
        ends = np.sort(np.stack([n0, n1, n1, n2, n3, n2, n0, n3], axis=1)
                       .reshape(-1, 2), axis=1)
        # np.unique sorts the pairs; renumber them in first-seen order
        _, first, inverse, counts = np.unique(ends @ [self.n_nodes, 1],
                                              return_index=True, return_inverse=True,
                                              return_counts=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self.edges = ends[first[order]]
        self.element_edges = rank[inverse].reshape(-1, 4)
        self.edge_owners = counts[order]

        # boundary edges in sorted pair order, with their one owner
        keys = ends[first[counts == 1]]
        owner = first[counts == 1] // 4
        (xa, ya), (xb, yb) = self.nodes[keys[:, 0]].T, self.nodes[keys[:, 1]].T
        w, htop = self.extent
        on_surface = np.minimum(ya, yb) >= htop - 1e-12
        on_outer = (on_surface | (np.minimum(xa, xb) >= w - 1e-12)
                    | (np.maximum(xa, xb) <= 1e-12) | (np.maximum(ya, yb) <= 1e-12))
        surface = on_surface & self.free_top
        # outer edges of interior elements (pml width 0) stay untagged
        outer = ~surface & on_outer & (self.element_region[owner] != INTERIOR)
        self.free_surface_edges = keys[surface | ~on_outer]
        self.outer_pml_edges = keys[outer]

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

    def interior_box(self):
        """Coordinate bounds (x0, x1, y0, y1) of the unstretched region."""
        left, right, bottom, top = self.pml_cells
        return (left * self.h, (self.nx - right) * self.h,
                bottom * self.h, (self.ny - top) * self.h)


def build_tunnel_mesh(geometry: TunnelGeometry) -> Mesh:
    """Grid over the tunnel domain plus PML collars on left/right/bottom.

    The Earth's surface stays free; the tunnel void reaches through the left
    PML so its mouth touches the outer boundary.
    """
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
    pml = _check_conforming(pml_width, element_size, "pml_width")
    wi = _check_conforming(width, element_size, "width")
    hi = _check_conforming(height, element_size, "height")
    return Mesh(wi + 2 * pml, hi + 2 * pml, element_size, (pml, pml, pml, pml),
                void_cells=None, free_top=False)


def _locate(mesh: Mesh, points, station):
    """Element ids and local coordinates in [-1, 1]^2 of (k, 2) points.

    Along each axis a coordinate within ``_SNAP`` of a grid line has the
    cells on both sides as candidates, any other the cell containing it.
    A point takes its lowest-id candidate element, a station its lowest-id
    interior one; the first point without one raises.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = np.array([mesh.nx, mesh.ny])
    u = np.minimum(np.maximum(pts / mesh.h, -1.0), n + 1.0)  # cells; no inf - inf below
    r = np.rint(u)
    snapped = np.abs(u - r) <= _SNAP * np.maximum(1.0, np.abs(u)) + 1e-12
    lo = np.where(snapped, r - 1.0, np.floor(u))
    cells = np.stack([lo, lo + snapped], axis=2)  # (k, axis, 2)
    on_grid = (((u >= -_SNAP) & (u <= n + _SNAP))[..., None] & (cells >= 0)
               & (cells <= n[:, None] - 1))
    cells = np.where(on_grid, cells, -1).astype(int)
    # candidates j-major, so in ascending element id
    ic, jc = cells[:, 0, [0, 1, 0, 1]], cells[:, 1, [0, 0, 1, 1]]
    cand = np.where((jc >= 0) & (ic >= 0), mesh.cell_to_element[jc, ic], -1)
    found = cand >= 0
    ok = (found & (mesh.element_region[cand] == INTERIOR)) if station else found
    hit = ok.any(axis=1)
    if not hit.all():
        k = int(np.argmin(hit))
        where = ("inside the PML" if found[k].any()
                 else "in the void or outside the grid")
        raise PointNotFoundError(f"{'station' if station else 'point'} "
                                 f"{tuple(pts[k].tolist())} lies {where}")
    e = cand[np.arange(len(pts)), np.argmax(ok, axis=1)]
    xi = 2.0 * (pts - mesh.element_cell[e] * mesh.h) / mesh.h - 1.0
    return e, np.minimum(np.maximum(xi, -1.0), 1.0)


def locate_point(mesh: Mesh, points):
    """(element ids, (k, 2) local coordinates in [-1, 1]^2) of (k, 2) points.

    Points on shared edges resolve to the lowest element id.
    """
    return _locate(mesh, points, station=False)


def locate_station(mesh: Mesh, points):
    """Like locate_point but takes the lowest-id non-PML element.

    Stations may sit exactly on the interface between the unstretched region
    and the PML; in that case the interior element wins.
    """
    return _locate(mesh, points, station=True)


def validate_layout(layout: StationLayout, mesh: Mesh):
    """Every station must be locatable outside the PML."""
    locate_station(mesh, layout.station_points())
