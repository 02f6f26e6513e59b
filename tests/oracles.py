"""Reference formulas, assembly paths and helpers that only the tests use.

The stiffness tensor and its PML stretch are the textbook forms the dense
assembly oracle in ``test_assembly.py`` contracts at every quadrature
point; ``coo_system`` is the COO -> CSC assembly that the production
one-pass ``SystemPattern`` scatter replaced, and the only place that forms
the global K and M; ``derivative_products_oracle`` is the per-pair gradient
kernel that the production transposed table product replaced.
``system_pattern_oracle`` is the key sort that the production E^T E
pattern build replaced, ``summation_oracle`` the CSR sum of
complex ``element_values`` that the slot-id ``bincount`` replaced, and
``reference_mesh_arrays`` the per-cell loops that the production
array-operation mesh build replaced.  ``direction_product_oracle``
differences two assembled systems for the change of L along a model
direction.  ``lame_parameters``,
``velocities_from_lame``, ``evaluate_velocities``, ``evaluate_field``,
``pml_local_coordinate``, ``local_to_global``, ``ricker_spectrum`` and
``dump_mesh`` convert, evaluate or print what the program computes.
"""

from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from tunnelfwi import assembly as asmmod
from tunnelfwi.material import InvalidMaterialError, ModelVector
from tunnelfwi.mesh import (INTERIOR, PML_CORNER, PML_X, PML_Y, Mesh, MeshError,
                            locate_point)
from tunnelfwi.signal import Spectrum, dft_many, sample_ricker

REGION_NAMES = {INTERIOR: "interior", PML_X: "pml-x", PML_Y: "pml-y",
                PML_CORNER: "pml-corner"}


def lame_parameters(vp, vs, rho):
    """First and second Lame parameter from wave velocities."""
    mu = rho * vs ** 2
    lam = rho * vp ** 2 - 2.0 * mu
    if np.any(np.asarray(lam) <= 0):
        raise InvalidMaterialError(f"lambda <= 0 for vp={vp}, vs={vs}")
    return lam, mu


def velocities_from_lame(lam, mu, rho):
    return np.sqrt((lam + 2.0 * mu) / rho), np.sqrt(mu / rho)


def evaluate_velocities(model: ModelVector, mesh, p):
    """Bilinear (vp, vs) at an arbitrary point."""
    e, (xi, eta) = locate_point(mesh, p)
    w = _bilinear(xi, eta)
    corners = mesh.elements[e]
    return float(w @ model.vp[corners]), float(w @ model.vs[corners])


def _bilinear(xi, eta):
    return 0.25 * np.array([(1 - xi) * (1 - eta), (1 + xi) * (1 - eta),
                            (1 + xi) * (1 + eta), (1 - xi) * (1 + eta)])


def pml_local_coordinate(mesh: Mesh, e, p):
    """Distance of p from the inner PML edge, one value per stretched axis."""
    if mesh.element_region[e] == INTERIOR:
        raise MeshError(f"element {e} is not a PML element")
    rx, ry = mesh.pml_ref[e]
    sx = abs(p[0] - rx) if np.isfinite(rx) else 0.0
    sy = abs(p[1] - ry) if np.isfinite(ry) else 0.0
    return sx, sy


def evaluate_field(mesh, dof_map, u, p, allow_pml=False):
    """Displacement vector at an arbitrary point via shape evaluation.

    Receiver sampling refuses PML points; pass allow_pml=True to probe the
    decay inside the absorbing layer.
    """
    asmmod.check_dof_map(dof_map, mesh)
    return asmmod.point_operator(dof_map, [p], allow_pml) @ u


def ricker_spectrum(f_peak, omegas) -> Spectrum:
    return dft_many(sample_ricker(f_peak), omegas)


def local_to_global(mesh: Mesh, e, xi):
    x0, y0 = mesh.element_origin(e)
    return (x0 + 0.5 * (xi[0] + 1.0) * mesh.h,
            y0 + 0.5 * (xi[1] + 1.0) * mesh.h)


def dump_mesh(mesh: Mesh, path):
    """Plain-text node/element/tag tables for debugging."""
    with open(path, "w") as f:
        f.write(f"# mesh nx={mesh.nx} ny={mesh.ny} h={float(mesh.h)!r}\n")
        f.write(f"# nodes {mesh.n_nodes}\n")
        for n, (x, y) in enumerate(mesh.nodes):
            f.write(f"node {n} {float(x)!r} {float(y)!r}\n")
        f.write(f"# elements {mesh.n_elements}\n")
        for e in range(mesh.n_elements):
            quad = " ".join(str(n) for n in mesh.elements[e])
            f.write(f"element {e} {quad} {REGION_NAMES[mesh.element_region[e]]}\n")
        for a, b in mesh.free_surface_edges:
            f.write(f"edge {a} {b} free-surface\n")
        for a, b in mesh.outer_pml_edges:
            f.write(f"edge {a} {b} outer-pml\n")


def isotropic_stiffness(vp, vs, rho):
    """Fourth-order isotropic stiffness tensor (2D, shape (2, 2, 2, 2))."""
    lam = rho * (vp ** 2 - 2.0 * vs ** 2)
    mu = rho * vs ** 2
    d = np.eye(2)
    C = (lam * np.einsum("ij,kl->ijkl", d, d)
         + mu * (np.einsum("il,jk->ijkl", d, d) + np.einsum("ik,jl->ijkl", d, d)))
    return C


def stretched_stiffness(C, eps_x, eps_y):
    """Apply the coordinate stretch to a stiffness tensor.

    Each entry is scaled by eps_x*eps_y divided by the stretch factors of
    the two derivative slots (the indices contracted with the gradients in
    the weak form).  Attaching the factors to the derivative directions is
    what keeps the layer reflection-free; weighting the displacement
    components instead produces an impedance jump at the inner edge.  Major
    symmetry survives, minor symmetry generally does not.
    """
    eps = np.array([eps_x, eps_y], dtype=complex)
    F = (eps_x * eps_y) / np.outer(eps, eps)
    return F[None, :, None, :] * np.asarray(C)


def mass_weight(eps_x, eps_y):
    """Multiplier on the density in the mass integrand (eps_z = 1 in 2D)."""
    return eps_x * eps_y


def coo_system(mesh, model, rho, omega, profile, cfg, dof_map):
    """(K, M, L) in CSC through COO triplets of the production element batches.

    Clamped rows/columns are dropped and replaced by a unit diagonal in K
    (zero in M) so that L = K - omega^2 M holds entrywise.
    """
    rows, cols, kvals, mvals = [], [], [], []
    for elems, flag in asmmod._batches(mesh, profile):
        K_b, M_b = asmmod._batch_matrices(*asmmod._batch_quadrature(
            mesh, elems, model, omega, profile, cfg, flag), rho)
        dofs = dof_map.element_dofs[elems]
        width = dofs.shape[1]
        rows.append(np.repeat(dofs, width, axis=1).ravel())
        cols.append(np.tile(dofs, (1, width)).ravel())
        kvals.append(K_b.ravel())
        mvals.append(M_b.ravel())
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    kvals, mvals = np.concatenate(kvals), np.concatenate(mvals)

    clamped = dof_map.clamped
    keep = ~(clamped[rows] | clamped[cols])
    fixed = np.flatnonzero(clamped)
    rows = np.concatenate([rows[keep], fixed])
    cols = np.concatenate([cols[keep], fixed])
    kvals = np.concatenate([kvals[keep], np.ones(len(fixed))])
    mvals = np.concatenate([mvals[keep], np.zeros(len(fixed))])

    shape = (dof_map.n_dofs, dof_map.n_dofs)
    K = sp.coo_matrix((kvals.astype(complex), (rows, cols)), shape=shape).tocsc()
    M = sp.coo_matrix((mvals.astype(complex), (rows, cols)), shape=shape).tocsc()
    return K, M, (K - omega ** 2 * M).tocsc()


def derivative_products_oracle(fields, mesh, model, rho, omega, profile, cfg, dof_map):
    """``stiffness_derivative_products`` contracted pair by pair.

    Each (u, u_adj) pair's displacement gradients A and B at the quadrature
    points give the lambda product (F_ik A_ii B_kk) and the mu product
    (F_ik A_ik B_ki plus the diagonal F_jj A_ij B_ij) directly, without
    the element tables; the chain rule to the corner velocities is the same.
    """
    asmmod.check_dof_map(dof_map, mesh, cfg.degree)
    n = model.n_nodes
    out = np.zeros(2 * n, dtype=complex)
    for elems, flag in asmmod._batches(mesh, profile):
        rule, h, vp, vs, ex, ey = asmmod._batch_quadrature(
            mesh, elems, model, omega, profile, cfg, flag)
        _, w, V, G = asmmod.quad_table(*rule)
        wq = w * (h * h / 4.0)
        G = G * (2.0 / h)
        F = asmmod._stretch_factor(ex, ey)
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


def _whole_array_sort(dof_map):
    """Every live element entry and clamped diagonal in one column-major key
    sort: (flat entry ids, the sort order, each sorted key's slot, the
    unique keys, which sorted keys are entries)."""
    dofs = dof_map.element_dofs
    width = dofs.shape[1]
    n = dof_map.n_dofs
    clamped = dof_map.clamped
    # visit the entries column by column: the (element, local column)
    # occurrences of each dof in dof order, each element's rows ascending,
    # so that the key sort below only merges short sorted runs
    occ = np.argsort(dofs.ravel(), kind="stable")
    e, b = np.divmod(occ, width)
    a = np.argsort(dofs, axis=1)[e]
    rows = np.take_along_axis(dofs[e], a, axis=1)
    cols = dofs.ravel()[occ]
    live = ~(clamped[rows] | clamped[cols][:, None])
    entries = ((e[:, None] * width + a) * width + b[:, None])[live]
    keys = np.concatenate([(cols[:, None] * n + rows)[live],
                           np.flatnonzero(clamped) * (n + 1)])
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    new = np.concatenate([[True], sorted_keys[1:] != sorted_keys[:-1]])
    return entries, order, np.cumsum(new) - 1, sorted_keys[new], order < len(entries)


def system_pattern_oracle(dof_map):
    """``SystemPattern`` built over whole arrays at once, in one key sort.

    Returns the same ``shape``, ``nnz``, ``indices``, ``indptr``, ``fixed``
    and ``slots`` that the production build reads off E^T E.
    """
    nel, width = dof_map.element_dofs.shape
    n = dof_map.n_dofs
    entries, order, slot, unique, is_entry = _whole_array_sort(dof_map)
    nnz = len(unique)
    slots = np.full(nel * width * width, nnz, dtype=np.int32)
    slots[entries[order[is_entry]]] = slot[is_entry]
    return SimpleNamespace(
        shape=(n, n), nnz=nnz,
        indices=(unique % n).astype(np.int32),
        indptr=np.searchsorted(unique // n, np.arange(n + 1)).astype(np.int32),
        fixed=slot[~is_entry],
        slots=slots.reshape(nel, width * width))


def summation_oracle(dof_map, values):
    """L from complex (n_elements, w, w) element matrices through a
    (nnz, n_elements w^2) CSR operator of ones, the sparse sum that
    ``SystemPattern.matrix`` replaced: row s sums the entries, in element
    order, that land on slot s."""
    pattern = system_pattern_oracle(dof_map)
    entries, order, slot, _, is_entry = _whole_array_sort(dof_map)
    per_slot = np.bincount(slot[is_entry], minlength=pattern.nnz)
    summation = sp.csr_matrix(
        (np.ones(len(entries)), entries[order[is_entry]].astype(np.int32),
         np.concatenate([[0], np.cumsum(per_slot)]).astype(np.int32)),
        shape=(pattern.nnz, values.size))
    # real and imaginary parts as two columns of one real product
    pairs = np.ascontiguousarray(values, dtype=complex).view(float)
    data = (summation @ pairs.reshape(-1, 2)).view(complex).ravel()
    data[pattern.fixed] = 1.0
    return sp.csc_matrix((data, pattern.indices, pattern.indptr), shape=pattern.shape)


def element_values(mesh, model, rho, omega, profile, cfg):
    """Complex (n_elements, w, w) stack of every K_e - omega^2 M_e."""
    width = 2 * asmmod.n_modes(cfg.degree)
    values = np.empty((mesh.n_elements, width, width), dtype=complex)
    for elems, flag in asmmod._batches(mesh, profile):
        K, M = asmmod._batch_matrices(*asmmod._batch_quadrature(
            mesh, elems, model, omega, profile, cfg, flag), rho)
        values[elems] = K - omega ** 2 * M
    return values


def direction_product_oracle(U, direction, mesh, model, rho, omega, profile, cfg,
                             dof_map, eps):
    """(L(m + eps d) - L(m - eps d)) / (2 eps) @ U from two assembled systems.

    L is quadratic in the model, so the central difference is exact up to
    rounding whatever ``eps``; the clamped unit diagonals cancel.
    """
    L_plus, L_minus = (asmmod.assemble_system(
        mesh, ModelVector(model.values + s * eps * direction), rho, omega,
        profile, cfg, dof_map=dof_map).L for s in (1.0, -1.0))
    return ((L_plus - L_minus) @ U) / (2.0 * eps)


MESH_ARRAYS = ("nodes", "elements", "element_cell", "element_region", "pml_ref",
               "node_grid", "cell_to_element", "edges", "element_edges",
               "edge_owners", "free_surface_edges", "outer_pml_edges")


def reference_mesh_arrays(mesh: Mesh):
    """``mesh``'s arrays rebuilt by loops over its cells and nodes.

    Elements are the non-void cells in row-major order (j outer) and nodes
    the used grid nodes in grid order; the edge tables come from the
    production ``_tag_edges`` on these arrays.  Returns a dict keyed by
    ``MESH_ARRAYS``.
    """
    nx, ny, h = mesh.nx, mesh.ny, mesh.h
    left, right, bottom, top = mesh.pml_cells
    void = mesh.void_cells or (0, 0, 0, 0)

    node_grid = -np.ones((ny + 1, nx + 1), dtype=int)
    cell_to_element = -np.ones((ny, nx), dtype=int)
    cells, regions, pml_ref = [], [], []
    for j in range(ny):
        for i in range(nx):
            if void[0] <= i < void[1] and void[2] <= j < void[3]:
                continue
            cell_to_element[j, i] = len(cells)
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
            rx = ry = np.nan
            if i < left:
                rx = left * h
            elif i >= nx - right:
                rx = (nx - right) * h
            if j < bottom:
                ry = bottom * h
            elif j >= ny - top:
                ry = (ny - top) * h
            pml_ref.append((rx, ry))

    used = np.zeros((ny + 1, nx + 1), dtype=bool)
    for (i, j) in cells:
        used[j:j + 2, i:i + 2] = True
    coords = []
    for j in range(ny + 1):
        for i in range(nx + 1):
            if used[j, i]:
                node_grid[j, i] = len(coords)
                coords.append((i * h, j * h))

    conn = np.empty((len(cells), 4), dtype=int)
    for e, (i, j) in enumerate(cells):
        conn[e] = (node_grid[j, i], node_grid[j, i + 1],
                   node_grid[j + 1, i + 1], node_grid[j + 1, i])

    ref = Mesh.__new__(Mesh)
    ref.nx, ref.ny, ref.h, ref.free_top = nx, ny, h, mesh.free_top
    ref.nodes = np.asarray(coords, dtype=float)
    ref.elements = conn
    ref.element_cell = np.asarray(cells, dtype=int)
    ref.element_region = np.asarray(regions, dtype=np.int8)
    ref.pml_ref = np.asarray(pml_ref, dtype=float).reshape(-1, 2)
    ref.node_grid = node_grid
    ref.cell_to_element = cell_to_element
    ref._tag_edges()
    return {name: getattr(ref, name) for name in MESH_ARRAYS}
