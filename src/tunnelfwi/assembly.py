"""Hierarchical quadrilateral shape functions and system assembly.

The basis on [-1,1]^2 is the full tensor-product space of degree p built
from integrated Legendre polynomials: 4 bilinear vertex modes, p-1 modes per
edge and (p-1)^2 face-interior modes.  Raising p only appends modes, it never
changes existing ones.  Every mode carries two displacement dofs (x, y),
interleaved per mode; globally the vertex modes come first, then edge modes,
then element-interior modes.

The assembled impedance matrix is L = K - omega^2 M with
K = integral of B^T Ctilde B and M = integral of eps_x eps_y rho N^T N.
Dofs on the outer PML boundary are clamped to zero, which is where the
absorbed field is assumed to have died out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.polynomial import legendre as npleg

from . import mesh as meshmod
from . import pml as pmlmod

MAX_DEGREE = 3


class AssemblyError(ValueError):
    pass


@dataclass(frozen=True)
class DiscretizationConfig:
    degree: int = 1
    quad_points: int = None  # per axis; defaults to degree + 1

    def validate(self):
        if not 1 <= self.degree <= MAX_DEGREE:
            raise AssemblyError(f"polynomial degree must be in [1, {MAX_DEGREE}]")
        if self.quad_points is not None and self.quad_points < self.degree + 1:
            raise AssemblyError("need at least degree + 1 quadrature points per axis")

    @property
    def n_quad(self):
        return self.quad_points if self.quad_points is not None else self.degree + 1

    @property
    def n_quad_pml(self):
        # the stretch is not polynomial, use an elevated rule
        return self.n_quad + 2


# -- 1D hierarchical basis --------------------------------------------------

def _legendre(n, x):
    c = np.zeros(n + 1)
    c[n] = 1.0
    return npleg.legval(x, c)


def _kernel_value(i, x):
    """Integrated Legendre mode phi_i (i >= 2), zero at both endpoints."""
    return (_legendre(i, x) - _legendre(i - 2, x)) / np.sqrt(2.0 * (2.0 * i - 1.0))


def _kernel_deriv(i, x):
    return np.sqrt((2.0 * i - 1.0) / 2.0) * _legendre(i - 1, x)


def shape_functions(p, xi):
    """Mode values and local gradients at points xi in [-1,1]^2.

    Returns (values, grads) with shapes (nq, n_modes) and (nq, n_modes, 2)
    for xi of shape (nq, 2); scalar points are promoted.  Mode order: vertices
    counterclockwise from (-1,-1), then bottom/right/top/left edge modes of
    ascending degree, then face-interior modes.
    """
    if not 1 <= p <= MAX_DEGREE:
        raise AssemblyError(f"polynomial degree must be in [1, {MAX_DEGREE}]")
    pts = np.atleast_2d(np.asarray(xi, dtype=float))
    if pts.shape[1] != 2:
        raise AssemblyError("local points must have two coordinates")
    x, y = pts[:, 0], pts[:, 1]

    lx = [0.5 * (1 - x), 0.5 * (1 + x)]
    ly = [0.5 * (1 - y), 0.5 * (1 + y)]
    dlx = [np.full_like(x, -0.5), np.full_like(x, 0.5)]
    dly = [np.full_like(y, -0.5), np.full_like(y, 0.5)]
    kx = {i: _kernel_value(i, x) for i in range(2, p + 1)}
    ky = {i: _kernel_value(i, y) for i in range(2, p + 1)}
    dkx = {i: _kernel_deriv(i, x) for i in range(2, p + 1)}
    dky = {i: _kernel_deriv(i, y) for i in range(2, p + 1)}

    vals, grads = [], []

    def add(v, gx, gy):
        vals.append(v)
        grads.append(np.stack([gx, gy], axis=-1))

    # vertex modes: (-1,-1), (1,-1), (1,1), (-1,1)
    for ax, ay in ((0, 0), (1, 0), (1, 1), (0, 1)):
        add(lx[ax] * ly[ay], dlx[ax] * ly[ay], lx[ax] * dly[ay])
    # edge modes: bottom (eta=-1), right (xi=+1), top (eta=+1), left (xi=-1)
    for i in range(2, p + 1):
        add(kx[i] * ly[0], dkx[i] * ly[0], kx[i] * dly[0])
    for i in range(2, p + 1):
        add(ky[i] * lx[1], dlx[1] * ky[i], lx[1] * dky[i])
    for i in range(2, p + 1):
        add(kx[i] * ly[1], dkx[i] * ly[1], kx[i] * dly[1])
    for i in range(2, p + 1):
        add(ky[i] * lx[0], dlx[0] * ky[i], lx[0] * dky[i])
    # interior modes
    for i in range(2, p + 1):
        for j in range(2, p + 1):
            add(kx[i] * ky[j], dkx[i] * ky[j], kx[i] * dky[j])

    V = np.stack(vals, axis=-1)
    G = np.stack(grads, axis=-2)
    if np.ndim(xi) == 1:
        return V[0], G[0]
    return V, G


def n_modes(p):
    return (p + 1) ** 2


# -- quadrature tables ------------------------------------------------------

_TABLES = {}


def quad_table(p, nq):
    """Cached (points, weights, values, local gradients) for a tensor rule."""
    key = (p, nq)
    if key not in _TABLES:
        x1, w1 = npleg.leggauss(nq)
        X, Y = np.meshgrid(x1, x1, indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        w = np.outer(w1, w1).ravel()
        V, G = shape_functions(p, pts)
        _TABLES[key] = (pts, w, V, G)
    return _TABLES[key]


# -- dof map ----------------------------------------------------------------

class DofMap:
    """Global numbering of modes and their two displacement dofs."""

    def __init__(self, mesh, p):
        self.mesh = mesh
        self.p = int(p)
        n_edge = self.p - 1
        n_int = n_edge ** 2

        edges = {}
        elem_edges = np.empty((mesh.n_elements, 4), dtype=int)
        for e in range(mesh.n_elements):
            n0, n1, n2, n3 = mesh.elements[e]
            # bottom, right, top, left; canonical key = sorted node pair
            for loc, (a, b) in enumerate(((n0, n1), (n1, n2), (n3, n2), (n0, n3))):
                key = (a, b) if a < b else (b, a)
                if key not in edges:
                    edges[key] = len(edges)
                elem_edges[e, loc] = edges[key]
        self.edge_ids = edges
        self.n_edges = len(edges)

        nv = mesh.n_nodes
        ne = self.n_edges
        self.n_vertex_modes = nv
        self.n_edge_modes = ne * n_edge
        self.n_interior_modes = mesh.n_elements * n_int
        self.n_modes = nv + self.n_edge_modes + self.n_interior_modes
        self.n_dofs = 2 * self.n_modes

        modes = np.empty((mesh.n_elements, n_modes(self.p)), dtype=int)
        modes[:, :4] = mesh.elements
        for loc in range(4):
            for i in range(n_edge):
                modes[:, 4 + loc * n_edge + i] = nv + elem_edges[:, loc] * n_edge + i
        base = nv + ne * n_edge
        for e in range(mesh.n_elements):
            modes[e, 4 + 4 * n_edge:] = base + e * n_int + np.arange(n_int)
        self.element_modes = modes

        dofs = np.empty((mesh.n_elements, 2 * modes.shape[1]), dtype=int)
        dofs[:, 0::2] = 2 * modes
        dofs[:, 1::2] = 2 * modes + 1
        self.element_dofs = dofs

        self.clamped = self._clamped_mask()
        self._station_operators = {}

    def station_operator(self, points):
        """``point_operator`` of station points, built once per point set."""
        key = tuple((float(x), float(y)) for x, y in points)
        if key not in self._station_operators:
            self._station_operators[key] = point_operator(self, key)
        return self._station_operators[key]

    def _clamped_mask(self):
        """Dofs fixed to zero on the outer PML boundary."""
        clamped = np.zeros(self.n_dofs, dtype=bool)
        n_edge = self.p - 1
        nv = self.mesh.n_nodes
        for a, b in self.mesh.outer_pml_edges:
            for node in (a, b):
                clamped[2 * node:2 * node + 2] = True
            if n_edge:
                eid = self.edge_ids[(a, b) if a < b else (b, a)]
                for i in range(n_edge):
                    m = nv + eid * n_edge + i
                    clamped[2 * m:2 * m + 2] = True
        return clamped


# -- element matrices --------------------------------------------------------

def _axis_stretch(coord, ref, omega, profile):
    """Stretch factor along one axis at (E, q) coordinates.

    Rows whose element has no reference edge on this axis (``ref`` is NaN)
    stay exactly one.
    """
    eps = np.ones(coord.shape, dtype=complex)
    live = np.isfinite(ref)
    if np.any(live):
        eps[live] = pmlmod.stretching(np.abs(coord[live] - ref[live, None]),
                                      omega, profile)
    return eps


def _batch_quadrature(mesh, elems, model, omega, profile, cfg, stretched):
    """Vectorized per-element quadrature data for a batch sharing one rule.

    Returns (wq, V, G, vp, vs, ex, ey) with element-by-point material and
    stretch arrays; V/G/wq are shared across the batch (uniform squares).
    """
    nq = cfg.n_quad_pml if stretched else cfg.n_quad
    pts, w, V, G = quad_table(cfg.degree, nq)
    h = mesh.h
    wq = w * (h * h / 4.0)
    Gg = G * (2.0 / h)

    corners = mesh.elements[elems]
    vp = model.vp[corners] @ V[:, :4].T  # (E, q)
    vs = model.vs[corners] @ V[:, :4].T

    if stretched:
        origins = mesh.element_cell[elems] * h  # (E, 2)
        ex, ey = (_axis_stretch(x0[:, None] + 0.5 * (x + 1.0)[None, :] * h, ref,
                                omega, profile)
                  for x0, x, ref in zip(origins.T, pts.T, mesh.pml_ref[elems].T))
    else:
        ex = np.ones((len(elems), len(wq)))
        ey = np.ones((len(elems), len(wq)))
    return wq, V, Gg, vp, vs, ex, ey


def _stretch_factor(ex, ey):
    """F[..., i, k] = eps_x*eps_y / (eps_i*eps_k) with eps_0=ex, eps_1=ey."""
    F = np.empty(np.shape(ex) + (2, 2), dtype=complex)
    F[..., 0, 0] = ey / ex
    F[..., 0, 1] = 1.0
    F[..., 1, 0] = 1.0
    F[..., 1, 1] = ex / ey
    return F


def _batch_matrices(wq, V, G, vp, vs, ex, ey, rho):
    """Complex symmetric (K_e, M_e) stacks of one batch, dofs interleaved per mode."""
    lam = rho * (vp ** 2 - 2.0 * vs ** 2)
    mu = rho * vs ** 2
    n = V.shape[1]
    nel = vp.shape[0]
    F = _stretch_factor(ex, ey)

    # lambda term and the first mu term carry 1/(eps_i eps_k) factors that
    # coincide for both index conventions; the second mu term weights the
    # gradient dot product by the derivative direction (eps_y/eps_x, eps_x/eps_y)
    wl = wq[None, :] * lam
    wm = wq[None, :] * mu
    K = np.einsum("eq,eqik,qai,qbk->eaibk", wl, F, G, G, optimize=True)
    K += np.einsum("eq,eqik,qak,qbi->eaibk", wm, F, G, G, optimize=True)
    Fdiag = F[:, :, (0, 1), (0, 1)]
    Dw = np.einsum("eq,eqj,qaj,qbj->eab", wm, Fdiag, G, G, optimize=True)
    K[:, :, 0, :, 0] += Dw
    K[:, :, 1, :, 1] += Dw
    K = K.reshape(nel, 2 * n, 2 * n)

    wmass = wq[None, :] * (ex * ey) * rho
    Mab = np.einsum("eq,qa,qb->eab", wmass, V, V, optimize=True)
    M = np.zeros((nel, n, 2, n, 2), dtype=complex)
    M[:, :, 0, :, 0] = Mab
    M[:, :, 1, :, 1] = Mab
    return K, M.reshape(nel, 2 * n, 2 * n)


@dataclass
class AssembledSystem:
    """Impedance system L = K - omega^2 M on the clamped dof set."""

    L: sp.csc_matrix
    K: sp.csc_matrix
    M: sp.csc_matrix
    dof_map: DofMap
    omega: float


def assemble_system(mesh, model, rho, omega, profile, cfg, dof_map=None):
    """Scatter all element contributions and apply the boundary clamp.

    Clamped rows/columns are dropped and replaced by a unit diagonal in K
    (zero in M) so that L = K - omega^2 M holds entrywise.
    """
    cfg.validate()
    profile.validate()
    if omega <= 0:
        raise AssemblyError(f"omega must be > 0, got {omega}")
    if dof_map is None:
        dof_map = DofMap(mesh, cfg.degree)

    stretched_mask = (profile.c_pml > 0.0) & (mesh.element_region != meshmod.INTERIOR)
    rows, cols, kvals, mvals = [], [], [], []
    for flag in (False, True):
        elems = np.flatnonzero(stretched_mask == flag)
        if not len(elems):
            continue
        data = _batch_quadrature(mesh, elems, model, omega, profile, cfg, flag)
        K_b, M_b = _batch_matrices(*data, rho)
        dofs = dof_map.element_dofs[elems]  # (E, 2n)
        width = dofs.shape[1]
        rows.append(np.repeat(dofs, width, axis=1).ravel())
        cols.append(np.tile(dofs, (1, width)).ravel())
        kvals.append(K_b.ravel())
        mvals.append(M_b.ravel())

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    kvals = np.concatenate(kvals)
    mvals = np.concatenate(mvals)

    clamped = dof_map.clamped
    keep = ~(clamped[rows] | clamped[cols])
    rows, cols = rows[keep], cols[keep]
    kvals, mvals = kvals[keep], mvals[keep]

    fixed = np.flatnonzero(clamped)
    rows = np.concatenate([rows, fixed])
    cols = np.concatenate([cols, fixed])
    kvals = np.concatenate([kvals, np.ones(len(fixed), dtype=complex)])
    mvals = np.concatenate([mvals, np.zeros(len(fixed), dtype=complex)])

    shape = (dof_map.n_dofs, dof_map.n_dofs)
    K = sp.coo_matrix((kvals, (rows, cols)), shape=shape).tocsc()
    M = sp.coo_matrix((mvals, (rows, cols)), shape=shape).tocsc()
    L = (K - omega ** 2 * M).tocsc()
    return AssembledSystem(L=L, K=K, M=M, dof_map=dof_map, omega=float(omega))


def point_operator(dof_map, points, allow_pml=False):
    """Sparse (2 n_points, n_dofs) R whose row 2k+d samples direction d at point k.

    Records are ``R @ u``; ``R.T`` scatters point forces and adjoint sources,
    and clamped dofs carry zero weight so that it also keeps the clamp.
    Points must lie outside the PML unless ``allow_pml`` is set (probes).
    """
    locate = meshmod.locate_point if allow_pml else meshmod.locate_station
    located = [locate(dof_map.mesh, p) for p in points]
    elems = np.array([e for e, _ in located], dtype=int)
    V, _ = shape_functions(dof_map.p, np.reshape([xi for _, xi in located], (-1, 2)))
    dofs = dof_map.element_dofs[elems]
    cols = np.stack([dofs[:, 0::2], dofs[:, 1::2]], axis=1)  # (point, direction, mode)
    data = V[:, None, :] * ~dof_map.clamped[cols]
    indptr = np.arange(cols.shape[0] * 2 + 1) * V.shape[1]
    return sp.csr_matrix((data.ravel(), cols.ravel(), indptr),
                         shape=(2 * len(elems), dof_map.n_dofs))


def assemble_point_source(mesh, dof_map, s, direction, f_omega):
    """Right-hand side of a point force: ``S.T`` times the force at s."""
    S = dof_map.station_operator([s])
    return S.T @ np.multiply(f_omega, direction, dtype=complex)


# -- derivative of the impedance matrix with respect to the model ------------

def stiffness_derivative_products(fields, mesh, model, rho, omega, profile, cfg, dof_map):
    """Element-wise sum of u . (dK/dm_k) . u_adj over all coefficients.

    ``fields`` is a list of (u, u_adj) dof-vector pairs sharing one omega.
    Density is constant, so these are also the products with dL/dm_k.
    Returns a complex vector aligned with the model vector.
    """
    n = model.n_nodes
    out = np.zeros(2 * n, dtype=complex)
    stretched_mask = (profile.c_pml > 0.0) & (mesh.element_region != meshmod.INTERIOR)
    for flag in (False, True):
        elems = np.flatnonzero(stretched_mask == flag)
        if not len(elems):
            continue
        wq, V, G, vp, vs, ex, ey = _batch_quadrature(
            mesh, elems, model, omega, profile, cfg, flag)
        F = _stretch_factor(ex, ey)
        Fdiag = F[:, :, (0, 1), (0, 1)]
        phi = V[:, :4]
        dofs = dof_map.element_dofs[elems]
        corners = mesh.elements[elems]
        for u, u_adj in fields:
            U = u[dofs].reshape(len(elems), -1, 2)
            W = u_adj[dofs].reshape(len(elems), -1, 2)
            A = np.einsum("emi,qmj->eqij", U, G, optimize=True)
            B = np.einsum("emi,qmj->eqij", W, G, optimize=True)
            S_lam = np.einsum("eqik,eqii,eqkk->eq", F, A, B, optimize=True)
            S_mu = np.einsum("eqik,eqik,eqki->eq", F, A, B, optimize=True)
            S_mu += np.einsum("eqj,eqij,eqij->eq", Fdiag, A, B, optimize=True)
            c_vp = np.einsum("q,eq,qa->ea", wq, 2.0 * rho * vp * S_lam, phi,
                             optimize=True)
            c_vs = np.einsum("q,eq,qa->ea", wq,
                             rho * vs * (2.0 * S_mu - 4.0 * S_lam), phi,
                             optimize=True)
            np.add.at(out, corners, c_vp)
            np.add.at(out, n + corners, c_vs)
    return out


def node_areas(mesh):
    """Lumped support area of every bilinear hat (integral of the hat)."""
    areas = np.zeros(mesh.n_nodes)
    np.add.at(areas, mesh.elements, mesh.h * mesh.h / 4.0)
    return areas
