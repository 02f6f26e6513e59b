"""Frequency-domain wave fields, receiver sampling and frequency sweeps.

All sources of one frequency share a single factorization of the impedance
matrix.  ``solve_records`` is the one frequency loop: a Green's sweep runs it
on a one-source layout, and it may raise the polynomial degree with
frequency.  Every solver error names the frequency and the degree.
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
    dof_map: asmmod.DofMap


@dataclass
class RecordSet:
    """Complex displacements indexed (frequency, source, receiver, direction)."""

    omegas: np.ndarray
    values: np.ndarray  # (n_f, n_s, n_r, 2)
    mask: np.ndarray    # (n_r, 2) recorded directions

    def __post_init__(self):
        self.omegas = np.asarray(self.omegas, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if not np.all((self.omegas > 0) & (self.omegas < np.inf)):
            raise ForwardError("record frequencies must be finite and strictly positive")
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
    dof_map = asmmod.DofMap.of(mesh, cfg.degree) if dof_map is None else dof_map
    try:
        system = asmmod.assemble_system(mesh, model, rho, omega, profile, cfg,
                                        dof_map=dof_map)
    except MemoryError as exc:
        raise solvermod.SolverMemoryError(
            f"out of memory assembling n = {dof_map.n_dofs} at omega = {omega}, "
            f"degree {dof_map.p}") from exc
    n_s = layout.n_sources
    amps = np.broadcast_to(np.asarray(f_omega, dtype=complex), (n_s,))
    forces = amps[:, None] * np.reshape([s.direction for s in layout.sources], (n_s, 2))
    # columns[2k + d, k] is source k's force in direction d
    columns = np.repeat(np.eye(n_s), 2, axis=0) * forces.reshape(-1, 1)
    S = dof_map.station_operator([s.position for s in layout.sources])
    try:  # the solve may refactorize with pivoting
        fact = solvermod.factorize(system.L)
        U = fact.solve(S.T @ columns)
    except (solvermod.SolverMemoryError, solvermod.SingularMatrixError,
            solvermod.SolveError) as exc:
        raise type(exc)(f"{exc} at omega = {omega}, degree {dof_map.p}") from exc
    fields = [WaveField(u=U[:, k], dof_map=dof_map) for k in range(n_s)]
    return ForwardResult(fields=fields, system=system, factorization=fact)


def sample_receivers(field: WaveField, mesh, layout) -> np.ndarray:
    """(n_receivers, 2) complex displacements at the receiver points."""
    asmmod.check_dof_map(field.dof_map, mesh)
    R = field.dof_map.station_operator([r.position for r in layout.receivers])
    return (R @ field.u).reshape(-1, 2)


def solve_records(mesh, model, rho, omegas, layout, f_omega_of, profile, cfg,
                  dof_map=None, keep=False, degree_for=None):
    """Records over a frequency list; optionally keep fields/factorizations.

    ``f_omega_of`` maps omega to the complex source amplitude.  ``degree_for``
    may map omega to a polynomial degree so that higher frequencies get
    richer elements; the default keeps cfg.degree.  A given ``dof_map``
    serves the frequencies of its degree.  Unless kept, each frequency's
    system, factors and fields are released once its records are sampled,
    before the next frequency is assembled.
    """
    omegas = np.asarray(omegas, dtype=float)
    values = np.empty((len(omegas), layout.n_sources, layout.n_receivers, 2),
                      dtype=complex)
    kept = []
    for fi, omega in enumerate(omegas):
        p = cfg.degree if degree_for is None else int(degree_for(omega))
        run_cfg = cfg if p == cfg.degree else replace(cfg, degree=p, quad_points=None)
        given = dof_map if dof_map is not None and dof_map.p == p else None
        res = forward_solve(mesh, model, rho, omega, layout, f_omega_of(omega),
                            profile, run_cfg, dof_map=given)
        values[fi] = [sample_receivers(field, mesh, layout) for field in res.fields]
        if keep:
            kept.append(res)
        del res
    records = RecordSet(omegas=omegas, values=values, mask=layout.direction_mask())
    return (records, kept) if keep else records


def greens_sweep(mesh, model, rho, source, omega_start, omega_end, d_omega,
                 layout, profile, cfg, degree_for=None):
    """Unit-amplitude spectra at every receiver over a frequency range:
    ``solve_records`` on a one-source layout, with the same ``degree_for``.
    """
    if not (0 < omega_start <= omega_end < np.inf and 0 < d_omega < np.inf):
        raise ForwardError("need finite omega_start > 0, omega_end >= omega_start "
                           f"and d_omega > 0, got {omega_start}, {omega_end}, "
                           f"{d_omega}")
    # Python floats overflow to inf without a warning
    steps = (float(omega_end) - float(omega_start)) / float(d_omega)
    if not steps < np.iinfo(np.intp).max:
        raise ForwardError(f"d_omega = {d_omega} splits {omega_start}..{omega_end} "
                           f"into {steps:.3g} steps")
    n = int(np.floor(steps + 1e-9)) + 1
    omegas = omega_start + d_omega * np.arange(n)
    sweep_layout = meshmod.StationLayout(sources=(source,), receivers=layout.receivers)
    return omegas, solve_records(mesh, model, rho, omegas, sweep_layout, lambda w: 1.0,
                                 profile, cfg, degree_for=degree_for).values[:, 0]
