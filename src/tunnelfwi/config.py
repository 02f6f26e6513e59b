"""Key-value run configuration with validated defaults.

The file format is line oriented: ``key = value`` with ``#`` comments.
``source``, ``receiver`` and ``group`` may repeat and accumulate.  Unknown
keys are rejected by name.  Without ``group`` lines a run uses the built-in
28-group blind-test schedule.  The objects a config derives (geometry, ambient
properties, absorbing profile, discretization, sources, schedule) check
themselves when made, so loading builds each once and no later layer
re-checks them; a ``ModelVector`` is checked only by its explicit
``validate`` method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly as asmmod
from . import material as matmod
from . import mesh as meshmod
from . import optimize as optmod
from . import pml as pmlmod


class ConfigError(ValueError):
    pass


_SCALAR_DEFAULTS = {
    # geometry (tunnel reconnaissance case study values)
    "domain_width": 100.0,
    "depth_above_tunnel": 15.0,
    "tunnel_height": 6.0,
    "depth_below_tunnel": 15.0,
    "tunnel_length": 20.0,
    "pml_width": 3.0,
    "element_size": 1.0,
    # ambient ground
    "vp": 4000.0,
    "vs": 2400.0,
    "rho": 2500.0,
    # absorbing layer
    "c_pml": 25000.0,
    "omega_c_ratio": 0.99,
    # discretization
    "degree": 3,
    # source signature
    "wavelet_peak_hz": 500.0,
    # optimizer
    "max_iterations": 20,
    "reduction_threshold": 1e-3,
    "lbfgs_capacity": 5,
    # gradient mask
    "station_radius": 2.5,
    "surface_distance": 1.75,
    # frequency sweep
    "sweep_start": 100.0,
    "sweep_end": 9000.0,
    "sweep_step": 10.0,
    # solver validation run
    "validate_frequency_hz": 500.0,
}

_INT_KEYS = {"degree", "max_iterations", "lbfgs_capacity"}
_REPEAT_KEYS = {"source", "receiver", "group"}

_NONNEGATIVE = {"station_radius", "surface_distance", "tunnel_height",
                "tunnel_length", "pml_width"}
_POSITIVE = {"domain_width", "element_size", "vp", "vs", "rho",
             "wavelet_peak_hz", "sweep_start", "sweep_step",
             "validate_frequency_hz", "reduction_threshold", "max_iterations",
             "lbfgs_capacity"}


@dataclass
class RunConfig:
    scalars: dict
    sources: list
    receivers: list
    groups: list            # explicit schedule groups, [] = built-in
    sweep_degrees: list     # (omega_upper, degree) pairs

    # -- derived objects ----------------------------------------------------

    def geometry(self) -> meshmod.TunnelGeometry:
        s = self.scalars
        return meshmod.TunnelGeometry(
            domain_width=s["domain_width"],
            depth_above_tunnel=s["depth_above_tunnel"],
            tunnel_height=s["tunnel_height"],
            depth_below_tunnel=s["depth_below_tunnel"],
            tunnel_length=s["tunnel_length"],
            pml_width=s["pml_width"],
            element_size=s["element_size"])

    def ambient(self) -> matmod.AmbientProperties:
        s = self.scalars
        return matmod.AmbientProperties(vp=s["vp"], vs=s["vs"], rho=s["rho"])

    def profile(self) -> pmlmod.PmlProfile:
        s = self.scalars
        return pmlmod.PmlProfile(c_pml=s["c_pml"], width=s["pml_width"],
                                 omega_c_ratio=s["omega_c_ratio"])

    def discretization(self) -> asmmod.DiscretizationConfig:
        return asmmod.DiscretizationConfig(degree=self.scalars["degree"])

    def layout(self) -> meshmod.StationLayout:
        return meshmod.StationLayout(sources=tuple(self.sources),
                                     receivers=tuple(self.receivers))

    def schedule(self) -> optmod.FrequencySchedule:
        if self.groups:
            return optmod.FrequencySchedule(tuple(tuple(g) for g in self.groups))
        return optmod.blindtest_schedule()

    def settings(self) -> optmod.InversionSettings:
        s = self.scalars
        return optmod.InversionSettings(
            max_iterations=s["max_iterations"],
            reduction_threshold=s["reduction_threshold"],
            lbfgs_capacity=s["lbfgs_capacity"])

    def degree_for(self):
        """Sweep degree lookup: omega -> polynomial degree, or None."""
        if not self.sweep_degrees:
            return None
        breaks = sorted(self.sweep_degrees)

        def lookup(omega):
            for upper, degree in breaks:
                if omega <= upper:
                    return int(degree)
            return int(breaks[-1][1])
        return lookup


def _parse_direction(token, line_no):
    try:
        dirs = sorted({"x": 0, "y": 1}[c] for c in token)
    except KeyError:
        raise ConfigError(f"line {line_no}: receiver directions must combine "
                          f"'x' and 'y', got {token!r}")
    if len(set(dirs)) < len(dirs):
        raise ConfigError(f"line {line_no}: receiver directions repeat a letter, "
                          f"got {token!r}")
    return tuple(dirs)


def _finite(tokens, key, line_no):
    """The numbers of a line's tokens; NaN or inf fails by line."""
    values = [float(t) for t in tokens]
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"line {line_no}: {key} needs finite numbers, "
                          f"got {' '.join(tokens)!r}")
    return values


def _parse_line(key, value, line_no, out):
    if key in _REPEAT_KEYS:
        parts = value.split()
        if key == "source":
            if len(parts) != 4:
                raise ConfigError(f"line {line_no}: source needs 'x y dx dy'")
            x, y, dx, dy = _finite(parts, key, line_no)
            norm = np.hypot(dx, dy)
            if norm == 0:
                raise ConfigError(f"line {line_no}: source direction is zero")
            # a direction written as a unit vector keeps its bits
            if abs(norm - 1.0) > 1e-15:
                dx, dy = dx / norm, dy / norm
            out["sources"].append(meshmod.Source((x, y), (dx, dy)))
        elif key == "receiver":
            if len(parts) not in (2, 3):
                raise ConfigError(f"line {line_no}: receiver needs 'x y [dirs]'")
            x, y = _finite(parts[:2], key, line_no)
            dirs = _parse_direction(parts[2], line_no) if len(parts) == 3 else (0, 1)
            out["receivers"].append(meshmod.Receiver((x, y), dirs))
        else:  # group
            freqs = _finite(parts, key, line_no)
            if not freqs:
                raise ConfigError(f"line {line_no}: empty frequency group")
            out["groups"].append(freqs)
        return

    if key == "sweep_degrees":  # "1000:1 3000:2 9000:3"
        pairs = []
        for tok in value.split():
            try:
                upper, degree = tok.split(":")
                degree = int(degree)
            except ValueError:
                raise ConfigError(f"line {line_no}: sweep_degrees entries "
                                  f"look like 'omega:degree', got {tok!r}")
            pairs.append((_finite([upper], key, line_no)[0], degree))
        out["sweep_degrees"] = pairs
        return

    if key not in _SCALAR_DEFAULTS:
        raise ConfigError(f"line {line_no}: unknown key {key!r}")
    out["scalars"][key] = int(value) if key in _INT_KEYS else float(value)


def parse_config(text) -> RunConfig:
    out = {"scalars": dict(_SCALAR_DEFAULTS), "sources": [], "receivers": [],
           "groups": [], "sweep_degrees": []}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, value = (t.strip() for t in line.split("=", 1))
        if not value:
            raise ConfigError(f"line {line_no}: key {key!r} has no value")
        try:
            _parse_line(key, value, line_no, out)
        except ConfigError:
            raise
        except ValueError:  # a value that should be a number is not
            raise ConfigError(f"line {line_no}: cannot parse value for {key!r}: {value!r}")

    cfg = RunConfig(scalars=out["scalars"], sources=out["sources"],
                    receivers=out["receivers"], groups=out["groups"],
                    sweep_degrees=out["sweep_degrees"])
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig):
    s = cfg.scalars
    for key, v in s.items():
        if not np.isfinite(v):
            raise ConfigError(f"{key} must be finite, got {v}")
    for key in _NONNEGATIVE:
        if s[key] < 0:
            raise ConfigError(f"{key} must be >= 0, got {s[key]}")
    for key in _POSITIVE:
        if s[key] <= 0:
            raise ConfigError(f"{key} must be > 0, got {s[key]}")
    try:
        cfg.geometry()
        cfg.ambient()
        if s["pml_width"] > 0:
            cfg.profile()
        cfg.discretization()
        cfg.schedule()
    except ConfigError:
        raise
    except ValueError as exc:  # cross-module invariants surface as config errors
        raise ConfigError(str(exc)) from exc
    if s["sweep_end"] < s["sweep_start"]:
        raise ConfigError("sweep_end must be >= sweep_start")
    bounds = [u for u, _ in cfg.sweep_degrees]
    if not all(u > 0 for u in bounds) or len(set(bounds)) < len(bounds):
        raise ConfigError(f"sweep_degrees need distinct positive omega bounds, got {bounds}")
    if any(not 1 <= d <= asmmod.MAX_DEGREE for _, d in cfg.sweep_degrees):
        raise ConfigError(f"sweep_degrees need degrees in [1, {asmmod.MAX_DEGREE}], "
                          f"got {[d for _, d in cfg.sweep_degrees]}")


def load_config(path) -> RunConfig:
    with open(path) as f:
        return parse_config(f.read())
