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
absorbed field is assumed to have died out.  Element matrices are products
of per-point coefficients with cached real tables; the model derivative of
u . K . u_adj runs the stiffness product backwards through the same table,
and the change of L along a model direction runs it forwards on the
coefficients' changes.
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
    """Global numbering of modes and their two displacement dofs.

    Operators that depend only on the numbering (station operators, the
    system pattern) are built on first use and kept here.
    """

    def __init__(self, mesh, p):
        self.mesh = mesh
        self.p = int(p)
        n_edge = self.p - 1
        n_int = n_edge ** 2

        nv = mesh.n_nodes
        ne = len(mesh.edges)
        self.n_vertex_modes = nv
        self.n_edge_modes = ne * n_edge
        self.n_interior_modes = mesh.n_elements * n_int
        self.n_modes = nv + self.n_edge_modes + self.n_interior_modes
        self.n_dofs = 2 * self.n_modes

        modes = np.empty((mesh.n_elements, n_modes(self.p)), dtype=int)
        modes[:, :4] = mesh.elements
        modes[:, 4:4 + 4 * n_edge] = nv + (mesh.element_edges[:, :, None] * n_edge
                                           + np.arange(n_edge)).reshape(mesh.n_elements, -1)
        base = nv + ne * n_edge
        modes[:, 4 + 4 * n_edge:] = (base + np.arange(mesh.n_elements)[:, None] * n_int
                                     + np.arange(n_int))
        self.element_modes = modes

        dofs = np.empty((mesh.n_elements, 2 * modes.shape[1]), dtype=int)
        dofs[:, 0::2] = 2 * modes
        dofs[:, 1::2] = 2 * modes + 1
        self.element_dofs = dofs

        self.clamped = self._clamped_mask()
        self._station_operators = {}
        self._system_pattern = None

    def station_operator(self, points):
        """``point_operator`` of station points, built once per point set."""
        key = tuple((float(x), float(y)) for x, y in points)
        if key not in self._station_operators:
            self._station_operators[key] = point_operator(self, key)
        return self._station_operators[key]

    def system_pattern(self):
        """``SystemPattern`` of the clamped system, built on first use."""
        if self._system_pattern is None:
            self._system_pattern = SystemPattern(self)
        return self._system_pattern

    def _clamped_mask(self):
        """Dofs fixed to zero on the outer PML boundary."""
        mesh = self.mesh
        n_edge = self.p - 1
        nv = mesh.n_nodes
        outer = mesh.outer_pml_edges
        clamped = np.zeros(self.n_modes, dtype=bool)
        clamped[outer] = True
        eids = np.flatnonzero(np.isin(mesh.edges @ [nv, 1], outer @ [nv, 1]))
        clamped[nv + (eids[:, None] * n_edge + np.arange(n_edge)).ravel()] = True
        return np.repeat(clamped, 2)


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

    Returns (rule, h, vp, vs, ex, ey): ``rule`` = (degree, points per axis)
    keys ``quad_table`` and ``_product_tables``, which every element of the
    batch shares (uniform squares of side h); the rest are element-by-point
    material and stretch arrays, real ones where unstretched.
    """
    rule = (cfg.degree, cfg.n_quad_pml if stretched else cfg.n_quad)
    pts, _, V, _ = quad_table(*rule)
    h = mesh.h

    corners = mesh.elements[elems]
    vp = model.vp[corners] @ V[:, :4].T  # (E, q)
    vs = model.vs[corners] @ V[:, :4].T

    if stretched:
        origins = mesh.element_cell[elems] * h  # (E, 2)
        ex, ey = (_axis_stretch(x0[:, None] + 0.5 * (x + 1.0)[None, :] * h, ref,
                                omega, profile)
                  for x0, x, ref in zip(origins.T, pts.T, mesh.pml_ref[elems].T))
    else:
        ex = np.ones((len(elems), len(pts)))
        ey = np.ones((len(elems), len(pts)))
    return rule, h, vp, vs, ex, ey


def _stretch_factor(ex, ey):
    """F[..., i, k] = eps_x*eps_y / (eps_i*eps_k) with eps_0=ex, eps_1=ey."""
    F = np.empty(np.shape(ex) + (2, 2), dtype=np.result_type(ex, ey))
    F[..., 0, 0] = ey / ex
    F[..., 0, 1] = 1.0
    F[..., 1, 0] = 1.0
    F[..., 1, 1] = ex / ey
    return F


_PRODUCT_TABLES = {}


def _product_tables(p, nq):
    """Cached real tables (TK, TM) that turn quadrature coefficients into
    element matrices.

    Columns run over the (a, i, b, k) entries of an element matrix, dofs
    interleaved per mode.  TK rows run over (point, lambda or mu, i, k):
    lambda couples G_ai G_bk into block (i, k); mu couples G_ak G_bi into
    block (i, k), and its i = k row also adds G_ai G_bi to both diagonal
    blocks.  TM rows run over points: V_a V_b on the diagonal blocks.
    """
    key = (p, nq)
    if key not in _PRODUCT_TABLES:
        _, _, V, G = quad_table(p, nq)
        nqq, n = V.shape
        d = np.eye(2)
        GG = np.einsum("qai,qbk->qikab", G, G)
        TK = np.empty((nqq, 2, 2, 2, n, 2, n, 2))
        TK[:, 0] = np.einsum("qikab,ij,kl->qikajbl", GG, d, d)
        TK[:, 1] = (np.einsum("qkiab,ij,kl->qikajbl", GG, d, d)
                    + np.einsum("qiiab,ik,jl->qikajbl", GG, d, d))
        TM = np.einsum("qa,qb,ik->qaibk", V, V, d)
        _PRODUCT_TABLES[key] = (TK.reshape(nqq * 8, -1), TM.reshape(nqq, -1))
    return _PRODUCT_TABLES[key]


def _table_product(coef, table):
    """coef @ table for a real table: one real GEMM, with real and imaginary
    parts of complex coefficients stacked as rows."""
    if not np.iscomplexobj(coef):
        return coef @ table
    re, im = np.split(np.concatenate([coef.real, coef.imag]) @ table, 2)
    return re + 1j * im


def _batch_stiffness(rule, lam, mu, ex, ey):
    """K_e stack of one batch from per-point (lambda, mu), dofs interleaved
    per mode: one product of (lambda w F, mu w F) with the stiffness table
    of ``_product_tables``; real where the batch is unstretched and complex
    symmetric otherwise."""
    _, w, V, _ = quad_table(*rule)
    TK, _ = _product_tables(*rule)
    width = 2 * V.shape[1]
    # the stiffness integrand scales as h^2/4 (4/h^2) = 1 in 2D
    cK = (np.stack([lam, mu], axis=2) * w[:, None])[..., None, None] \
        * _stretch_factor(ex, ey)[:, :, None]
    return _table_product(cK.reshape(len(lam), -1), TK).reshape(-1, width, width)


def _batch_matrices(rule, h, vp, vs, ex, ey, rho):
    """(K_e, M_e) stacks of one batch, dofs interleaved per mode.

    Both are linear in per-point coefficients (lambda w F, mu w F and
    eps_x eps_y rho w), so each is one product with ``_product_tables``.
    """
    _, w, _, _ = quad_table(*rule)
    _, TM = _product_tables(*rule)
    K = _batch_stiffness(rule, rho * (vp ** 2 - 2.0 * vs ** 2), rho * vs ** 2,
                         ex, ey)
    cM = (w * (h * h / 4.0) * rho) * ex * ey
    return K, _table_product(cM, TM).reshape(K.shape)


class SystemPattern:
    """CSC structure of the clamped impedance matrix, and the CSC slot of
    every element matrix entry.

    The structure is that of E^T E, with E the (n_elements, n_dofs)
    incidence of the live (unclamped) element dofs, plus a unit diagonal on
    every clamped dof; L is symmetric, so CSR and CSC arrays coincide.
    ``slots[e, a * w + b]`` is the slot that entry (a, b) of element e's
    w x w matrix adds into: the rank of its key col * n + row among the
    structure's sorted keys.  Entries on a clamped row or column go to the
    discard bin ``nnz``, and the clamped diagonal sits at slots ``fixed``.
    Nothing here depends on the model, omega or which elements are
    stretched.
    """

    def __init__(self, dof_map):
        dofs = dof_map.element_dofs
        nel, width = dofs.shape
        n = dof_map.n_dofs
        clamped = dof_map.clamped
        fixed = np.flatnonzero(clamped)
        # one incidence row per element over its live dofs and one per
        # clamped dof, whose E^T E entry is its unit diagonal
        live = ~clamped[dofs]
        rows = np.concatenate([np.nonzero(live)[0], nel + np.arange(len(fixed))])
        E = sp.csr_matrix((np.ones(len(rows), dtype=bool),
                           (rows, np.concatenate([dofs[live], fixed]))),
                          shape=(nel + len(fixed), n))
        A = (E.T @ E).tocsc()
        A.sort_indices()
        self.shape = (n, n)
        self.nnz = A.nnz
        self.indices = A.indices.astype(np.int32, copy=False)
        self.indptr = A.indptr.astype(np.int32, copy=False)
        del A, E
        # every assembled L shares these two arrays
        self.indices.flags.writeable = False
        self.indptr.flags.writeable = False

        keys = np.repeat(np.arange(n), np.diff(self.indptr)) * n + self.indices
        self.fixed = np.searchsorted(keys, fixed * (n + 1))
        slots = np.searchsorted(keys, dofs[:, None, :] * n + dofs[:, :, None])
        slots[~(live[:, :, None] & live[:, None, :])] = self.nnz
        self.slots = slots.astype(np.int32).reshape(nel, width * width)

    def matrix(self, real, stretched=None):
        """CSC matrix that sums (n_elements, w, w) element matrices.

        ``real`` holds every element's real part; ``stretched`` is None or
        (elements, imaginary parts) of the only elements whose matrices are
        complex.  Each slot adds its entries in ascending element order.
        """
        bins = self.nnz + 1
        data = np.zeros(bins, dtype=complex)
        data.real = np.bincount(self.slots.ravel(), real.ravel(), bins)
        if stretched is not None:
            elems, imag = stretched
            data.imag = np.bincount(self.slots[elems].ravel(), imag.ravel(), bins)
        data = data[:-1]
        data[self.fixed] = 1.0
        return sp.csc_matrix((data, self.indices, self.indptr), shape=self.shape)


@dataclass
class AssembledSystem:
    """Impedance matrix L = K - omega^2 M on the clamped dof set, with the
    model and discretization it was assembled from.

    Clamped rows and columns are zero except for a unit diagonal.  K and M
    are never formed globally: element matrices are combined first, and
    ``np.bincount`` sums their entries by the slot ids of the dof map's
    ``SystemPattern``.
    """

    L: sp.csc_matrix
    dof_map: DofMap
    omega: float
    model: object
    rho: float
    profile: pmlmod.PmlProfile
    cfg: DiscretizationConfig


def check_dof_map(dof_map, mesh, degree=None):
    """Raise AssemblyError unless ``dof_map`` numbers ``mesh`` (at ``degree``)."""
    if dof_map.mesh is not mesh:
        raise AssemblyError(
            f"dof map belongs to another mesh ({_describe(dof_map.mesh)}) "
            f"than the one given ({_describe(mesh)})")
    if degree is not None and dof_map.p != degree:
        raise AssemblyError(f"dof map has degree {dof_map.p}, "
                            f"the discretization asks for degree {degree}")


def _describe(mesh):
    return f"{mesh.n_elements} elements, {mesh.n_nodes} nodes, h = {mesh.h:g}"


def _batches(mesh, profile):
    """(element indices, stretched) for the unstretched and stretched batch."""
    stretched = (profile.c_pml > 0.0) & (mesh.element_region != meshmod.INTERIOR)
    for flag in (False, True):
        elems = np.flatnonzero(stretched == flag)
        if len(elems):
            yield elems, flag


def assemble_system(mesh, model, rho, omega, profile, cfg, dof_map=None):
    """Form every element's K_e - omega^2 M_e and sum them by slot id.

    Clamped rows/columns are dropped and replaced by a unit diagonal.
    """
    cfg.validate()
    profile.validate()
    if omega <= 0:
        raise AssemblyError(f"omega must be > 0, got {omega}")
    if dof_map is None:
        dof_map = DofMap(mesh, cfg.degree)
    check_dof_map(dof_map, mesh, cfg.degree)

    width = dof_map.element_dofs.shape[1]
    real = np.empty((mesh.n_elements, width, width))
    stretched = None
    for elems, flag in _batches(mesh, profile):
        K, M = _batch_matrices(*_batch_quadrature(mesh, elems, model, omega,
                                                  profile, cfg, flag), rho)
        M *= omega ** 2
        K -= M
        real[elems] = K.real
        if flag:  # the only complex batch: keep its imaginary parts alone
            stretched = (elems, K.imag.copy())
        del K, M
    L = dof_map.system_pattern().matrix(real, stretched)
    return AssembledSystem(L=L, dof_map=dof_map, omega=float(omega), model=model,
                           rho=rho, profile=profile, cfg=cfg)


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
    check_dof_map(dof_map, mesh)
    S = dof_map.station_operator([s])
    return S.T @ np.multiply(f_omega, direction, dtype=complex)


# -- derivative of the impedance matrix with respect to the model ------------
#
# u_e . K_e . w_e = vec(u_e w_e^T) . vec(K_e), and vec(K_e) is the row of
# per-point coefficients (lambda w F, mu w F) times TK.  Summing the columns'
# outer products P_e first and multiplying once by TK^T therefore gives the
# derivative of the summed products with respect to every coefficient; the
# chain rule carries it through lambda = rho (vp^2 - 2 vs^2), mu = rho vs^2
# and the bilinear velocity interpolation to the corner nodes.

def _system_batches(system):
    """(rule, vp, vs, ex, ey, element dofs, corner nodes) of every element
    batch of an assembled system, as ``_batch_quadrature`` gives them."""
    mesh = system.dof_map.mesh
    for elems, flag in _batches(mesh, system.profile):
        rule, _, vp, vs, ex, ey = _batch_quadrature(
            mesh, elems, system.model, system.omega, system.profile, system.cfg, flag)
        yield rule, vp, vs, ex, ey, system.dof_map.element_dofs[elems], mesh.elements[elems]


def stiffness_derivative_products(system, U, W):
    """Sum over columns j of U_j . (dK/dm_k) . W_j for every model coefficient.

    ``U`` and ``W`` are (n_dofs, k) field and adjoint columns of ``system``.
    Density is constant, so these are also the products with dL/dm_k.
    Each element batch costs one product with the transposed stiffness
    table of ``_product_tables``, whatever k.  Returns a complex vector
    aligned with the model vector.
    """
    n, rho = system.model.n_nodes, system.rho
    out = np.zeros(2 * n, dtype=complex)
    for rule, vp, vs, ex, ey, dofs, corners in _system_batches(system):
        _, w, V, _ = quad_table(*rule)
        TK, _ = _product_tables(*rule)
        P = U[dofs] @ W[dofs].transpose(0, 2, 1)
        D = _table_product(P.reshape(len(dofs), -1), TK.T)
        # d(u K u_adj)/d(lambda, mu) at every point
        S = np.einsum("eqlik,eqik->eql", D.reshape(len(dofs), len(w), 2, 2, 2),
                      _stretch_factor(ex, ey)) * w[:, None]
        np.add.at(out, corners, (2.0 * rho * vp * S[..., 0]) @ V[:, :4])
        np.add.at(out, n + corners,
                  (2.0 * rho * vs * (S[..., 1] - 2.0 * S[..., 0])) @ V[:, :4])
    return out


def stiffness_direction_product(system, U, direction):
    """(dL/dm . direction) @ U for dof columns U of shape (n_dofs, k).

    lambda = rho (vp^2 - 2 vs^2) and mu = rho vs^2 are quadratic in the
    corner velocities and M is model-free, so dL/dm . d is the stiffness
    of d lambda = 2 rho (vp dvp - 2 vs dvs) and d mu = 2 rho vs dvs, with
    dvp and dvs interpolated from ``direction`` like the velocities.
    Clamped rows and columns are zero.  Returns a complex (n_dofs, k) array.
    """
    n, rho = system.model.n_nodes, system.rho
    live = ~system.dof_map.clamped
    U = np.where(live[:, None], U, 0.0).astype(complex, copy=False)
    out = np.zeros(U.shape, dtype=complex)
    parts = out.view(float)  # real and imaginary parts as columns
    for rule, vp, vs, ex, ey, dofs, corners in _system_batches(system):
        _, _, V, _ = quad_table(*rule)
        dvp = direction[:n][corners] @ V[:, :4].T
        dvs = direction[n:][corners] @ V[:, :4].T
        dK = _batch_stiffness(rule, 2.0 * rho * (vp * dvp - 2.0 * vs * dvs),
                              2.0 * rho * vs * dvs, ex, ey)
        if np.iscomplexobj(dK):
            Y = dK @ U[dofs]
        else:  # one real product over the real and imaginary parts
            Y = (dK @ U[dofs].view(float)).view(complex)
        Y = Y.reshape(-1, U.shape[1]).view(float)
        for c in range(parts.shape[1]):
            parts[:, c] += np.bincount(dofs.ravel(), Y[:, c], len(out))
    out[~live] = 0.0
    return out


def node_areas(mesh):
    """Lumped support area of every bilinear hat (integral of the hat)."""
    areas = np.zeros(mesh.n_nodes)
    np.add.at(areas, mesh.elements, mesh.h * mesh.h / 4.0)
    return areas
