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
of per-point coefficients with the real tables of one cached ``quad_rule``,
formed one bounded single-rule batch of elements at a time and added into
L's values in place; the model derivative of u . K . u_adj runs the
stiffness product backwards through the same table, and the change of L
along a model direction runs it forwards on the coefficients' changes.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from numpy.polynomial import legendre as npleg

from . import mesh as meshmod
from . import pml as pmlmod

MAX_DEGREE = 3


class AssemblyError(ValueError):
    pass


def _is_int(n):
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _check_degree(p):
    if not (_is_int(p) and 1 <= p <= MAX_DEGREE):
        raise AssemblyError(f"polynomial degree must be an integer in "
                            f"[1, {MAX_DEGREE}], got {p!r}")


@dataclass(frozen=True)
class DiscretizationConfig:
    degree: int = 1
    quad_points: int = None  # per axis; defaults to degree + 1

    def __post_init__(self):
        _check_degree(self.degree)
        q = self.quad_points
        if q is not None and not (_is_int(q) and q >= self.degree + 1):
            raise AssemblyError(f"need an integer of at least degree + 1 "
                                f"quadrature points per axis, got {q!r}")

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


def _modes_1d(p, x):
    """Values and derivatives of the 1D modes [l0, l1, phi_2..phi_p] at x."""
    k = range(2, p + 1)
    vals = [0.5 * (1 - x), 0.5 * (1 + x)] + [_kernel_value(i, x) for i in k]
    ders = [np.full_like(x, -0.5), np.full_like(x, 0.5)] + [_kernel_deriv(i, x) for i in k]
    return np.stack(vals, axis=1), np.stack(ders, axis=1)


def _mode_axes(p):
    """1D mode indices (a, b) along x and y of every 2D mode, in mode order."""
    k = range(2, p + 1)
    pairs = ([(0, 0), (1, 0), (1, 1), (0, 1)]            # vertices
             + [(i, 0) for i in k] + [(1, i) for i in k]  # bottom, right edges
             + [(i, 1) for i in k] + [(0, i) for i in k]  # top, left edges
             + [(i, j) for i in k for j in k])            # interior
    return np.array(pairs).T


def shape_functions(p, xi):
    """Mode values and local gradients at points xi in [-1,1]^2.

    Returns (values, grads) with shapes (nq, n_modes) and (nq, n_modes, 2)
    for xi of shape (nq, 2); scalar points are promoted.  Mode order: vertices
    counterclockwise from (-1,-1), then bottom/right/top/left edge modes of
    ascending degree, then face-interior modes.  Each mode is the product
    X_a(x) Y_b(y) of two 1D modes.
    """
    _check_degree(p)
    pts = np.atleast_2d(np.asarray(xi, dtype=float))
    if pts.shape[1] != 2:
        raise AssemblyError("local points must have two coordinates")
    X, dX = _modes_1d(p, pts[:, 0])
    Y, dY = _modes_1d(p, pts[:, 1])
    a, b = _mode_axes(p)
    V = X[:, a] * Y[:, b]
    G = np.stack([dX[:, a] * Y[:, b], X[:, a] * dY[:, b]], axis=-1)
    if np.ndim(xi) == 1:
        return V[0], G[0]
    return V, G


def n_modes(p):
    return (p + 1) ** 2


# -- quadrature rule -------------------------------------------------------

class QuadRule(NamedTuple):
    """Tensor Gauss ``points`` and ``weights``, the degree-p mode values V and
    local gradients G there, and the real tables TK and TM that turn
    per-point coefficients into element matrices.

    Table columns run over the (a, i, b, k) entries of an element matrix,
    dofs interleaved per mode.  TK rows run over (point, lambda or mu, i, k):
    lambda couples G_ai G_bk into block (i, k); mu couples G_ak G_bi into
    block (i, k), and its i = k row also adds G_ai G_bi to both diagonal
    blocks.  TM rows run over points: V_a V_b on the diagonal blocks.
    """

    points: np.ndarray
    weights: np.ndarray
    V: np.ndarray
    G: np.ndarray
    TK: np.ndarray
    TM: np.ndarray


@functools.cache
def quad_rule(p, nq):
    """The ``QuadRule`` of degree p with nq points per axis, built once."""
    x1, w1 = npleg.leggauss(nq)
    X, Y = np.meshgrid(x1, x1, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    V, G = shape_functions(p, pts)
    nqq, n = V.shape
    d = np.eye(2)
    GG = np.einsum("qai,qbk->qikab", G, G)
    TK = np.empty((nqq, 2, 2, 2, n, 2, n, 2))
    TK[:, 0] = np.einsum("qikab,ij,kl->qikajbl", GG, d, d)
    TK[:, 1] = (np.einsum("qkiab,ij,kl->qikajbl", GG, d, d)
                + np.einsum("qiiab,ik,jl->qikajbl", GG, d, d))
    TM = np.einsum("qa,qb,ik->qaibk", V, V, d)
    return QuadRule(pts, np.outer(w1, w1).ravel(), V, G,
                    TK.reshape(nqq * 8, -1), TM.reshape(nqq, -1))


# -- dof map ----------------------------------------------------------------

class DofMap:
    """Global numbering of modes and their two displacement dofs.

    Operators that depend only on the numbering (station operators, the
    system pattern) are built on first use and kept here.  ``DofMap.of``
    gives a mesh's one map of a degree, kept in ``mesh.dof_maps`` and so
    freed with the mesh; a map built directly lives as long as its holder.
    A map holds its mesh weakly, so a mesh and its stored maps form no
    reference cycle and go as soon as the last reference to the mesh does.
    """

    @staticmethod
    def of(mesh, p):
        """The mesh's one dof map of degree p, built on first request."""
        _check_degree(p)  # else True, equal to 1, would find the degree-1 map
        if p not in mesh.dof_maps:
            mesh.dof_maps[p] = DofMap(mesh, p)
        return mesh.dof_maps[p]

    def __init__(self, mesh, p):
        _check_degree(p)
        self._mesh = weakref.ref(mesh)
        self.p = int(p)
        n_edge = self.p - 1
        n_int = n_edge ** 2

        nv = mesh.n_nodes
        ne = len(mesh.edges)
        self.n_modes = nv + ne * n_edge + mesh.n_elements * n_int
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

    @property
    def mesh(self):
        mesh = self._mesh()
        if mesh is None:
            raise AssemblyError("the mesh this dof map numbers has been freed")
        return mesh

    def station_operator(self, points):
        """``point_operator`` of station points, built once per point set."""
        key = tuple((float(x), float(y)) for x, y in points)
        if key not in self._station_operators:
            self._station_operators[key] = point_operator(self, key)
        return self._station_operators[key]

    @functools.cached_property
    def system_pattern(self):
        """``SystemPattern`` of the clamped system, built on first use."""
        return SystemPattern(self)

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

    Returns (rule, vp, vs, ex, ey): ``rule`` is the ``quad_rule`` that every
    element of the batch shares (uniform squares of side ``mesh.h``); the
    rest are element-by-point material and stretch arrays, real ones where
    unstretched.
    """
    rule = quad_rule(cfg.degree, cfg.n_quad_pml if stretched else cfg.n_quad)
    pts, h = rule.points, mesh.h

    corners = mesh.elements[elems]
    vp = model.vp[corners] @ rule.V[:, :4].T  # (E, q)
    vs = model.vs[corners] @ rule.V[:, :4].T

    if stretched:
        origins = mesh.element_cell[elems] * h  # (E, 2)
        ex, ey = (_axis_stretch(x0[:, None] + 0.5 * (x + 1.0)[None, :] * h, ref,
                                omega, profile)
                  for x0, x, ref in zip(origins.T, pts.T, mesh.pml_ref[elems].T))
    else:
        ex = np.ones((len(elems), len(pts)))
        ey = np.ones((len(elems), len(pts)))
    return rule, vp, vs, ex, ey


def _stretch_factor(ex, ey):
    """F[..., i, k] = eps_x*eps_y / (eps_i*eps_k) with eps_0=ex, eps_1=ey."""
    F = np.empty(np.shape(ex) + (2, 2), dtype=np.result_type(ex, ey))
    F[..., 0, 0] = ey / ex
    F[..., 0, 1] = 1.0
    F[..., 1, 0] = 1.0
    F[..., 1, 1] = ex / ey
    return F


def _table_product(coef, table):
    """coef @ table for a real table: one real GEMM, with real and imaginary
    parts of complex coefficients stacked as rows."""
    if not np.iscomplexobj(coef):
        return coef @ table
    re, im = np.split(np.concatenate([coef.real, coef.imag]) @ table, 2)
    return re + 1j * im


def _batch_stiffness(rule, lam, mu, ex, ey):
    """K_e stack of one batch from per-point (lambda, mu), dofs interleaved
    per mode: one product of (lambda w F, mu w F) with the rule's TK; real
    where the batch is unstretched and complex symmetric otherwise."""
    width = 2 * rule.V.shape[1]
    # the stiffness integrand scales as h^2/4 (4/h^2) = 1 in 2D
    cK = (np.stack([lam, mu], axis=2) * rule.weights[:, None])[..., None, None] \
        * _stretch_factor(ex, ey)[:, :, None]
    return _table_product(cK.reshape(len(lam), -1), rule.TK).reshape(-1, width, width)


def _batch_matrices(rule, vp, vs, ex, ey, rho, h):
    """(K_e, M_e) stacks of one batch of side-h elements, dofs interleaved
    per mode.

    Both are linear in per-point coefficients (lambda w F, mu w F and
    eps_x eps_y rho w), so each is one product with the rule's TK or TM.
    """
    K = _batch_stiffness(rule, rho * (vp ** 2 - 2.0 * vs ** 2), rho * vs ** 2,
                         ex, ey)
    cM = (rule.weights * (h * h / 4.0) * rho) * ex * ey
    return K, _table_product(cM, rule.TM).reshape(K.shape)


class SystemPattern:
    """CSC structure of the clamped impedance matrix, and the CSC slot of
    every element matrix entry.

    The structure is that of E^T E, with E the (n_elements, n_dofs)
    incidence of the live (unclamped) element dofs, plus a unit diagonal on
    every clamped dof; L is symmetric, so CSR and CSC arrays coincide.
    ``slots[e, a * w + b]`` is the slot of L's values that entry (a, b) of
    element e's w x w matrix adds into: the rank of its key col * n + row
    among the structure's sorted keys.  Entries on a clamped row or column
    go to the discard bin ``nnz``, one past the last value, and the clamped
    diagonal sits at slots ``fixed``.  Nothing here depends on the model,
    omega or which elements are stretched.
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


@dataclass
class AssembledSystem:
    """Impedance matrix L = K - omega^2 M on the clamped dof set, with the
    model and discretization it was assembled from.

    Clamped rows and columns are zero except for a unit diagonal.  K and M
    are never formed globally: element matrices are combined first, one
    bounded single-rule batch of elements at a time, and ``np.add.at`` adds
    each batch's entries into L's values by the slot ids of the dof map's
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


# element matrix entries per batch: 2,048, 404 and 128 elements at p = 1, 2
# and 3, which bounds the per-frequency temporaries
ENTRY_BUDGET = 2 ** 17


def _batches(mesh, profile, degree):
    """Element batches that share one quadrature rule, each of at most
    ``ENTRY_BUDGET`` element matrix entries (and at least one element).

    Yields (element ids, stretched): the unstretched elements first, then
    the stretched ones, each in ascending id order.
    """
    stretched = (profile.c_pml > 0.0) & (mesh.element_region != meshmod.INTERIOR)
    size = max(1, ENTRY_BUDGET // (2 * n_modes(degree)) ** 2)
    for flag in (False, True):
        elems = np.flatnonzero(stretched == flag)
        for first in range(0, len(elems), size):
            yield elems[first:first + size], flag


def assemble_system(mesh, model, rho, omega, profile, cfg, dof_map=None):
    """Form K_e - omega^2 M_e batch by batch and add them into L by slot id.

    Each slot adds its entries in batch order; only stretched batches add
    imaginary parts.  Clamped rows/columns are dropped and replaced by a
    unit diagonal.
    """
    if not 0 < omega < np.inf:
        raise AssemblyError(f"omega must be finite and > 0, got {omega}")
    dof_map = DofMap.of(mesh, cfg.degree) if dof_map is None else dof_map
    check_dof_map(dof_map, mesh, cfg.degree)

    pattern = dof_map.system_pattern
    data = np.zeros(pattern.nnz + 1, dtype=complex)  # last bin: clamped entries
    for elems, flag in _batches(mesh, profile, cfg.degree):
        K, M = _batch_matrices(*_batch_quadrature(mesh, elems, model, omega,
                                                  profile, cfg, flag), rho, mesh.h)
        M *= omega ** 2
        K -= M
        # one-dimensional operands keep np.add.at on its fast path
        slots = pattern.slots[elems].ravel()
        np.add.at(data.real, slots, K.real.ravel())
        if flag:
            np.add.at(data.imag, slots, K.imag.ravel())
    data = data[:-1]
    data[pattern.fixed] = 1.0
    L = sp.csc_matrix((data, pattern.indices, pattern.indptr), shape=pattern.shape)
    return AssembledSystem(L=L, dof_map=dof_map, omega=float(omega), model=model,
                           rho=rho, profile=profile, cfg=cfg)


def point_operator(dof_map, points, allow_pml=False):
    """Sparse (2 n_points, n_dofs) R whose row 2k+d samples direction d at point k.

    Records are ``R @ u``; ``R.T`` scatters point forces and adjoint sources,
    and clamped dofs carry zero weight so that it also keeps the clamp.
    Points must lie outside the PML unless ``allow_pml`` is set (probes).
    """
    locate = meshmod.locate_point if allow_pml else meshmod.locate_station
    elems, xi = locate(dof_map.mesh, points)
    V, _ = shape_functions(dof_map.p, xi)
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
    for elems, flag in _batches(mesh, system.profile, system.cfg.degree):
        yield (*_batch_quadrature(mesh, elems, system.model, system.omega,
                                  system.profile, system.cfg, flag),
               system.dof_map.element_dofs[elems], mesh.elements[elems])


def stiffness_derivative_products(system, U, W):
    """Sum over columns j of U_j . (dK/dm_k) . W_j for every model coefficient.

    ``U`` and ``W`` are (n_dofs, k) field and adjoint columns of ``system``.
    Density is constant, so these are also the products with dL/dm_k.
    Each element batch costs one product with its rule's transposed TK,
    whatever k.  Returns a complex vector aligned with the model vector.
    """
    n, rho = system.model.n_nodes, system.rho
    out = np.zeros(2 * n, dtype=complex)
    for rule, vp, vs, ex, ey, dofs, corners in _system_batches(system):
        w, V = rule.weights, rule.V
        P = U[dofs] @ W[dofs].transpose(0, 2, 1)
        D = _table_product(P.reshape(len(dofs), -1), rule.TK.T)
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
        dvp = direction[:n][corners] @ rule.V[:, :4].T
        dvs = direction[n:][corners] @ rule.V[:, :4].T
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
