"""Misfit, adjoint fields, model gradients and gradient preconditioning.

The data misfit is the squared modulus of the record residuals summed over
frequencies, sources, receivers and directions.  Its model gradient comes
from one multi-column solve per frequency (a column per source) on the
kept forward solve, whose assembled system also gives the model, omega and
discretization to differentiate.  The bilinear form u . dL/dm . u_adj is
the transpose of the table product that assembles L: the element outer
products of all columns are summed first and multiplied once by the
stiffness table.  ``linearized_records`` gives the records' first-order
change along a model direction from one more solve on that factorization.
``accumulate_gradient`` returns the plain derivative of the misfit with
respect to the model vector; ``precondition`` turns it into the gradient
that drives L-BFGS: divided by the lumped nodal areas and masked to zero
near stations and free surfaces with a linear ramp back to one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly as asmmod
from . import solver as solvermod


class AdjointError(ValueError):
    pass


@dataclass(frozen=True)
class Misfit:
    value: float
    residuals: np.ndarray  # masked record residuals, (n_f, n_s, n_r, 2)


def residuals(synthetic, observed):
    """Masked record residuals, shape (n_f, n_s, n_r, 2)."""
    if synthetic.values.shape != observed.values.shape:
        raise AdjointError(f"record shapes differ: {synthetic.values.shape} "
                           f"vs {observed.values.shape}")
    if not np.array_equal(synthetic.omegas, observed.omegas):
        raise AdjointError("record frequency lists differ")
    return (synthetic.values - observed.values) * synthetic.mask[None, None, :, :]


def misfit(synthetic, observed) -> Misfit:
    """Least-squares record misfit."""
    delta = residuals(synthetic, observed)
    per_fs = np.sum((delta * delta.conj()).real, axis=(2, 3))
    return Misfit(value=float(per_fs.sum()), residuals=delta)


def adjoint_source(delta_u, layout, dof_map):
    """Right-hand side ``-R.T conj(residual)`` at the recorded directions.

    ``delta_u`` is one source's (n_receivers, 2) residual slice, or an
    (n_sources, n_receivers, 2) stack that gives a column per source.
    """
    delta_u = np.asarray(delta_u)
    if delta_u.shape[-2:] != (layout.n_receivers, 2) or delta_u.ndim > 3:
        raise AdjointError(f"residual slice has shape {delta_u.shape}, "
                           f"expected ([n_sources,] {layout.n_receivers}, 2)")
    R = dof_map.station_operator([r.position for r in layout.receivers])
    weights = -np.conj(delta_u * layout.direction_mask())
    return R.T @ weights.reshape(delta_u.shape[:-2] + (-1,)).T


def adjoint_field(fact: solvermod.Factorization, rhs):
    """Adjoint wave field from the reused forward factorization."""
    return fact.solve(rhs)


def linearized_records(result, direction, layout):
    """First-order change J d of one frequency's records along ``direction``.

    ``result`` is the frequency's ``ForwardResult``, kept with its
    factorization.  J d = -R L^-1 (dL/dm . d) U over its fields U, one
    multi-column solve.  Returns the (n_sources, n_receivers, 2) change,
    masked to the recorded directions like ``residuals``, so that
    2 Re sum(conj(residuals) J d) is the misfit's slope along d.
    """
    U = np.stack([f.u for f in result.fields], axis=1)
    dLU = asmmod.stiffness_direction_product(result.system, U, direction)
    R = result.system.dof_map.station_operator([r.position for r in layout.receivers])
    dU = result.factorization.solve(dLU)
    return -(R @ dU).T.reshape(len(result.fields), -1, 2) * layout.direction_mask()


def accumulate_gradient(kept, adjoint_fields):
    """Misfit derivative with respect to the model vector of the kept solves.

    ``kept`` holds each frequency's ``ForwardResult`` and ``adjoint_fields``
    its (n_dofs, n_sources) adjoint solve.  The entries are
    2 Re(u . dL/dm_k . u_adj) summed over sources, then over frequencies in
    ascending omega.  The factor two is the derivative of |residual|^2 with
    respect to the real model parameters; the finite-difference oracle in
    the tests pins this convention.
    """
    by_omega = sorted(zip(kept, adjoint_fields), key=lambda pair: pair[0].system.omega)
    raw = sum(asmmod.stiffness_derivative_products(
        res.system, np.stack([f.u for f in res.fields], axis=1), W) for res, W in by_omega)
    return 2.0 * raw.real


def _nearest_distances(points, targets):
    """Distance of every point to the nearest of ``targets``."""
    d2 = (points[:, 0, None] - targets[:, 0]) ** 2
    d2 += (points[:, 1, None] - targets[:, 1]) ** 2
    return np.sqrt(d2.min(axis=1))


def _ramp(d, inner, width):
    """0 inside the exclusion distance, linear to 1 across the transition."""
    if width <= 0:
        return (d > inner).astype(float)
    return np.clip((d - inner) / width, 0.0, 1.0)


def build_mask(layout, mesh, station_radius, surface_distance,
               station_transition=None, surface_transition=None):
    """Per-node gradient scale: zero at stations/free surfaces, ramped to one."""
    if station_radius < 0 or surface_distance < 0:
        raise AdjointError("mask distances must be >= 0")
    if station_transition is None:
        station_transition = station_radius
    if surface_transition is None:
        surface_transition = surface_distance

    nodes = mesh.nodes
    factors = np.ones(mesh.n_nodes)

    stations = layout.station_points()
    if len(stations) and (station_radius > 0 or station_transition > 0):
        d = _nearest_distances(nodes, stations)
        factors = np.minimum(factors, _ramp(d, station_radius, station_transition))

    if len(mesh.free_surface_edges) and (surface_distance > 0 or surface_transition > 0):
        # the point of a grid edge nearest to a grid node is one of its ends
        d = _nearest_distances(nodes, nodes[np.unique(mesh.free_surface_edges)])
        factors = np.minimum(factors, _ramp(d, surface_distance, surface_transition))

    return factors


def precondition(values, mask, areas):
    """L-BFGS gradient from dchi/dm: divided by the lumped nodal areas, then
    scaled by the per-node ``mask`` (None: no mask); both velocity blocks
    share the nodal factors."""
    grad = values / np.concatenate([areas, areas])
    if mask is not None:
        grad = grad * np.concatenate([mask, mask])
    return grad
