"""Frequency-domain wave fields, receiver sampling and frequency sweeps.

All sources of one frequency share a single factorization of the impedance
matrix; sweeps may raise the polynomial degree with frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import assembly as asmmod
from . import mesh as meshmod
from . import solver as solvermod


class ForwardError(RuntimeError):
    pass


@dataclass(frozen=True)
class WaveField:
    u: np.ndarray
    omega: float
    dof_map: asmmod.DofMap


@dataclass
class RecordSet:
    """Complex displacements indexed (frequency, source, receiver, direction)."""

    omegas: np.ndarray
    values: np.ndarray  # (n_f, n_s, n_r, 2)
    mask: np.ndarray    # (n_r, 2) recorded directions
    layout: meshmod.StationLayout

    def __post_init__(self):
        self.omegas = np.asarray(self.omegas, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if np.any(self.omegas <= 0):
            raise ForwardError("record frequencies must be strictly positive")
        nf, ns, nr, nd = self.values.shape
        if nf != len(self.omegas) or nd != 2:
            raise ForwardError("record array shape does not match its index ranges")


@dataclass
class ForwardResult:
    fields: list
    system: asmmod.AssembledSystem
    factorization: solvermod.Factorization


def forward_solve(mesh, model, rho, omega, layout, f_omega, profile, cfg,
                  dof_map=None) -> ForwardResult:
    """One wave field per source, all from one multi-column solve.

    ``f_omega`` is the complex source amplitude, either a scalar shared by
    all sources or one value per source.
    """
    system = asmmod.assemble_system(mesh, model, rho, omega, profile, cfg, dof_map=dof_map)
    dm, n_s = system.dof_map, layout.n_sources
    amps = np.broadcast_to(np.asarray(f_omega, dtype=complex), (n_s,))
    forces = amps[:, None] * np.reshape([s.direction for s in layout.sources], (n_s, 2))
    # columns[2k + d, k] is source k's force in direction d
    columns = np.repeat(np.eye(n_s), 2, axis=0) * forces.reshape(-1, 1)
    S = dm.station_operator([s.position for s in layout.sources])
    try:  # the solve may refactorize with pivoting
        fact = solvermod.factorize(system.L)
        U = fact.solve(S.T @ columns)
    except solvermod.SolverMemoryError as exc:
        raise solvermod.SolverMemoryError(
            f"{exc} at omega = {omega}, degree {dm.p}") from exc
    fields = [WaveField(u=U[:, k], omega=float(omega), dof_map=dm) for k in range(n_s)]
    return ForwardResult(fields=fields, system=system, factorization=fact)


def evaluate_field(mesh, dof_map, u, p, allow_pml=False):
    """Displacement vector at an arbitrary point via shape evaluation.

    Receiver sampling refuses PML points; pass allow_pml=True to probe the
    decay inside the absorbing layer.
    """
    asmmod.check_dof_map(dof_map, mesh)
    return asmmod.point_operator(dof_map, [p], allow_pml) @ u


def sample_receivers(field: WaveField, mesh, layout) -> np.ndarray:
    """(n_receivers, 2) complex displacements at the receiver points."""
    asmmod.check_dof_map(field.dof_map, mesh)
    R = field.dof_map.station_operator([r.position for r in layout.receivers])
    return (R @ field.u).reshape(-1, 2)


def solve_records(mesh, model, rho, omegas, layout, f_omega_of, profile, cfg,
                  dof_map=None, keep=False):
    """Records over a frequency list; optionally keep fields/factorizations.

    ``f_omega_of`` maps omega to the complex source amplitude.
    """
    if dof_map is None:
        dof_map = asmmod.DofMap(mesh, cfg.degree)
    omegas = np.asarray(omegas, dtype=float)
    values = np.empty((len(omegas), layout.n_sources, layout.n_receivers, 2),
                      dtype=complex)
    kept = []
    for fi, omega in enumerate(omegas):
        res = forward_solve(mesh, model, rho, omega, layout, f_omega_of(omega),
                            profile, cfg, dof_map=dof_map)
        values[fi] = [sample_receivers(field, mesh, layout) for field in res.fields]
        if keep:
            kept.append(res)
    records = RecordSet(omegas=omegas, values=values,
                        mask=layout.direction_mask(), layout=layout)
    return (records, kept) if keep else records


def greens_sweep(mesh, model, rho, source, omega_start, omega_end, d_omega,
                 layout, profile, cfg, degree_for=None):
    """Unit-amplitude spectra at every receiver over a frequency range.

    ``degree_for`` may map omega to a polynomial degree so that higher
    frequencies get richer elements; the default keeps cfg.degree.
    """
    if omega_start <= 0 or d_omega <= 0 or omega_end < omega_start:
        raise ForwardError("need omega_start > 0, d_omega > 0, omega_end >= start")
    n = int(np.floor((omega_end - omega_start) / d_omega + 1e-9)) + 1
    omegas = omega_start + d_omega * np.arange(n)

    sweep_layout = meshmod.StationLayout(sources=(source,), receivers=layout.receivers)
    values = np.empty((n, layout.n_receivers, 2), dtype=complex)
    maps = {}
    for fi, omega in enumerate(omegas):
        p = cfg.degree if degree_for is None else int(degree_for(omega))
        run_cfg = cfg if p == cfg.degree else replace(cfg, degree=p, quad_points=None)
        if p not in maps:
            maps[p] = asmmod.DofMap(mesh, p)
        try:
            res = forward_solve(mesh, model, rho, omega, sweep_layout, 1.0,
                                profile, run_cfg, dof_map=maps[p])
            values[fi] = sample_receivers(res.fields[0], mesh, sweep_layout)
        except Exception as exc:
            raise ForwardError(f"sweep failed at omega = {omega}: {exc}") from exc
    return omegas, values
