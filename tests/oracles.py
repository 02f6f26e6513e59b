"""Reference formulas, assembly paths and helpers that only the tests use.

The stiffness tensor and its PML stretch are the textbook forms the dense
assembly oracle in ``test_assembly.py`` contracts at every quadrature
point; ``coo_system`` is the COO -> CSC assembly that the production
one-pass ``SystemPattern`` scatter replaced, and the only place that forms
the global K and M.  ``velocities_from_lame``, ``local_to_global`` and
``dump_mesh`` invert or print what the program computes.
"""

import numpy as np
import scipy.sparse as sp

from tunnelfwi import assembly as asmmod
from tunnelfwi.mesh import INTERIOR, PML_CORNER, PML_X, PML_Y, Mesh

REGION_NAMES = {INTERIOR: "interior", PML_X: "pml-x", PML_Y: "pml-y",
                PML_CORNER: "pml-corner"}


def velocities_from_lame(lam, mu, rho):
    return np.sqrt((lam + 2.0 * mu) / rho), np.sqrt(mu / rho)


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
