"""Command-line pipeline: forward runs, sweeps, inversion and validation.

Every subcommand takes a config file; failures exit nonzero with a single
``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import adjoint as adjmod
from . import analytic
from . import assembly as asmmod
from . import config as cfgmod
from . import fileio
from . import forward as fwdmod
from . import material as matmod
from . import mesh as meshmod
from . import optimize as optmod
from . import signal as sigmod


class CliError(RuntimeError):
    pass


def _build_context(cfg: cfgmod.RunConfig):
    """Mesh, ambient model and discretization shared by most subcommands."""
    mesh = meshmod.build_tunnel_mesh(cfg.geometry())
    ambient = cfg.ambient()
    model = matmod.ModelVector.homogeneous(mesh, ambient.vp, ambient.vs)
    return mesh, ambient, model


def _require_stations(cfg, mesh):
    layout = cfg.layout()
    if layout.n_sources == 0:
        raise CliError("config defines no sources")
    if layout.n_receivers == 0:
        raise CliError("config defines no receivers")
    meshmod.validate_layout(layout, mesh)
    return layout


def _source_amplitude(cfg):
    """Wavelet spectrum lookup shared by synthesis and inversion."""
    wavelet = sigmod.sample_ricker(cfg.scalars["wavelet_peak_hz"])

    def f_omega(omega):
        return sigmod.dft(wavelet, omega)
    return f_omega


def cmd_forward(cfg, args):
    """Records of ``--model`` (default: the ambient model) at the schedule's
    frequencies, written to ``--output``."""
    mesh, ambient, model = _build_context(cfg)
    if args.model:
        model = fileio.read_model_grid(args.model, mesh)
    layout = _require_stations(cfg, mesh)
    omegas = cfg.schedule().all_frequencies()
    records = fwdmod.solve_records(mesh, model, ambient.rho, omegas, layout,
                                   _source_amplitude(cfg), cfg.profile(),
                                   cfg.discretization())
    observed = {float(w): records.values[i] for i, w in enumerate(records.omegas)}
    fileio.write_frequency_records(args.output, observed,
                                   layout.n_sources, layout.n_receivers)
    print(f"wrote {len(omegas)} frequencies to {args.output}")
    return 0


def cmd_greens(cfg, args):
    mesh, ambient, model = _build_context(cfg)
    layout = _require_stations(cfg, mesh)
    if not 0 <= args.source < layout.n_sources:
        raise CliError(f"--source must be in 0..{layout.n_sources - 1}, "
                       f"got {args.source}")
    s = cfg.scalars
    omegas, values = fwdmod.greens_sweep(
        mesh, model, ambient.rho, layout.sources[args.source], s["sweep_start"],
        s["sweep_end"], s["sweep_step"], layout, cfg.profile(),
        cfg.discretization(), degree_for=cfg.degree_for())
    # the records of a one-source layout: s0 is the --source station
    spectra = {float(w): values[i][None] for i, w in enumerate(omegas)}
    fileio.write_frequency_records(args.output, spectra, 1, layout.n_receivers)
    print(f"wrote {len(omegas)} frequencies to {args.output}")
    return 0


def cmd_dft(cfg, args):
    mesh, _, _ = _build_context(cfg)
    layout = _require_stations(cfg, mesh)
    omegas = cfg.schedule().all_frequencies()
    observed = fileio.records_to_spectra(fileio.read_time_records(args.records),
                                         omegas, layout)
    fileio.write_frequency_records(args.output, observed,
                                   layout.n_sources, layout.n_receivers)
    print(f"wrote {len(omegas)} frequencies to {args.output}")
    return 0


def _load_observed(records_path, layout):
    """Frequency records as read; ``run_inversion`` names a scheduled omega
    they lack.  ``dft`` is the one path from time records to spectra."""
    with open(records_path) as f:
        if f.readline().strip() == "# time-records":
            raise CliError(f"{records_path}: time records; transform them with "
                           "'tunnelfwi dft' and pass its output")
    observed = fileio.read_frequency_records(records_path)
    n_s, n_r, _ = next(iter(observed.values())).shape
    if (n_s, n_r) != (layout.n_sources, layout.n_receivers):
        raise CliError(f"{records_path}: records have {n_s} sources and {n_r} "
                       f"receivers, the config {layout.n_sources} and "
                       f"{layout.n_receivers}")
    return observed


def cmd_invert(cfg, args):
    # a file on --output's path would fail os.makedirs after a group's solves
    found = os.path.abspath(args.output)
    while not os.path.lexists(found):
        found = os.path.dirname(found)
    if not os.path.isdir(found):
        raise CliError(f"--output {args.output}: {found} exists and is not a directory")
    mesh, ambient, initial = _build_context(cfg)
    if args.initial:
        initial = fileio.read_model_grid(args.initial, mesh)
    layout = _require_stations(cfg, mesh)
    observed = _load_observed(args.records, layout)

    s = cfg.scalars
    mask = adjmod.build_mask(layout, mesh, s["station_radius"],
                             s["surface_distance"])
    data = optmod.InversionData(
        mesh=mesh, layout=layout, profile=cfg.profile(),
        cfg=cfg.discretization(), rho=ambient.rho, ambient_vs=ambient.vs,
        observed=observed, source_amplitude=_source_amplitude(cfg), mask=mask)

    def on_group_end(gi, state):
        # each finished group's model and the log so far survive a later
        # kill; input that cannot run fails before the directory exists
        os.makedirs(args.output, exist_ok=True)
        fileio.write_atomically(
            os.path.join(args.output, f"model_group_{gi:02d}.txt"),
            lambda tmp: fileio.write_model_grid(tmp, state.model, mesh))
        fileio.write_atomically(
            os.path.join(args.output, "convergence.jsonl"),
            lambda tmp: fileio.write_convergence_log(tmp, state.log))
        for r in state.log:
            if r.group == gi and r.note.startswith("failed: "):
                print(f"group {gi} {r.note}", file=sys.stderr)

    final = optmod.run_inversion(initial, cfg.schedule(), data, cfg.settings(),
                                 on_group_end=on_group_end)
    fileio.write_atomically(
        os.path.join(args.output, "final_model.txt"),
        lambda tmp: fileio.write_model_grid(tmp, final.model, mesh))
    print(f"inversion finished after {final.iteration} iterations; "
          f"outputs in {args.output}")
    return 0


def cmd_validate_pml(cfg, args):
    """Homogeneous all-absorbing run compared against the closed form."""
    s = cfg.scalars
    geo = cfg.geometry()
    width = geo.domain_width
    height = geo.depth_above_tunnel + geo.tunnel_height + geo.depth_below_tunnel
    pml = geo.pml_width
    mesh = meshmod.build_unbounded_mesh(width, height, pml, geo.element_size)
    ambient = cfg.ambient()
    model = matmod.ModelVector.homogeneous(mesh, ambient.vp, ambient.vs)
    omega = 2.0 * np.pi * s["validate_frequency_hz"]

    sx, sy = pml + width / 2.0, pml + height / 2.0  # the domain centre
    source = meshmod.Source((sx, sy), (0.0, 1.0))
    layout = meshmod.StationLayout(sources=(source,), receivers=())
    res = fwdmod.forward_solve(mesh, model, ambient.rho, omega, layout, 1.0,
                               cfg.profile(), cfg.discretization())
    u = res.fields[0].u
    dm = res.system.dof_map

    # diagonal line across the full grid, from corner to corner
    W, H = mesh.extent
    n_steps = int(2 * max(mesh.nx, mesh.ny))
    ts = np.arange(1, n_steps) / n_steps
    probes = np.stack([ts * W, ts * H], axis=1)
    nums = (asmmod.point_operator(dm, probes, allow_pml=True) @ u)[0::2]
    px, py = probes.T
    dist = np.hypot(px - sx, py - sy)
    x0b, x1b, y0b, y1b = mesh.interior_box()
    usable = ((x0b < px) & (px < x1b) & (y0b < py) & (py < y1b)
              & (dist > 3.0 * mesh.h))
    if not usable.any():
        raise CliError("no probe lies inside the interior beyond 3h from the source")
    keep = dist >= 1e-9  # the closed form is singular at the source
    anas = analytic.greens_x_analytic((sx, sy), probes[keep], omega,
                                      ambient.vp, ambient.vs, ambient.rho)
    nums, usable = nums[keep], usable[keep]
    errs = np.abs(nums.real - anas.real) / np.abs(anas.real[usable]).max()
    table = zip(ts[keep] * np.hypot(W, H), nums, anas, errs, usable)
    fileio.write_validation_table(args.output, table)
    print(f"median normalized error (interior): {np.median(errs[usable]):.3e}")
    print(f"max normalized error (interior):    {errs[usable].max():.3e}")
    print(f"wrote comparison table to {args.output}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tunnelfwi",
        description="Frequency-domain elastic waveform inversion for "
                    "tunnel-ahead reconnaissance")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run configuration file")
        p.set_defaults(fn=fn)
        return p

    p = add("forward", cmd_forward,
            "records of a model at the scheduled frequencies")
    p.add_argument("--model", help="model grid file (default: ambient)")
    p.add_argument("--output", required=True)

    p = add("greens", cmd_greens, "unit-amplitude frequency sweep")
    p.add_argument("--source", type=int, default=0, help="source index")
    p.add_argument("--output", required=True)

    p = add("invert", cmd_invert, "run the multi-scale inversion")
    p.add_argument("--records", required=True,
                   help="frequency records; time records go through dft first")
    p.add_argument("--initial", help="initial model grid (default: ambient)")
    p.add_argument("--output", required=True, help="output directory")

    p = add("validate-pml", cmd_validate_pml,
            "compare a homogeneous unbounded run against the closed form")
    p.add_argument("--output", required=True)

    p = add("dft", cmd_dft, "transform time records to the scheduled frequencies")
    p.add_argument("--records", required=True)
    p.add_argument("--output", required=True)
    return parser


def cli_dispatch(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = cfgmod.load_config(args.config)
        return args.fn(cfg, args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
