"""Convolutional absorbing layers via complex coordinate stretching.

The real coordinate is stretched into the complex plane with a factor
eps = 1 + gamma / (omega_c + i*omega); the damping profile gamma rises
smoothly from zero at the inner edge to its full amplitude at the outer
boundary.  In 2D the out-of-plane stretch is identically one.  A
``PmlProfile`` checks itself when made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PmlError(ValueError):
    pass


@dataclass(frozen=True)
class PmlProfile:
    c_pml: float
    width: float
    omega_c_ratio: float = 0.99

    def __post_init__(self):
        # c_pml == 0 switches the stretch off entirely (used by reduction
        # tests); each comparison is written so that NaN fails it
        if not 0.0 <= self.c_pml < np.inf:
            raise PmlError(f"c_pml must be finite and >= 0, got {self.c_pml}")
        if not 0.0 < self.width < np.inf:
            raise PmlError(f"layer width must be finite and > 0, got {self.width}")
        if not 0.0 < self.omega_c_ratio < 1.0:
            raise PmlError(f"omega_c_ratio must be in (0, 1), got {self.omega_c_ratio}")


def damping(x_star, profile: PmlProfile):
    """Damping amplitude at depth x_star into the layer."""
    x = np.asarray(x_star, dtype=float)
    if np.any(x < -1e-12) or np.any(x > profile.width * (1.0 + 1e-12)):
        raise PmlError(f"local coordinate outside [0, {profile.width}]")
    x = np.clip(x, 0.0, profile.width)
    g = profile.c_pml * (1.0 - np.cos(0.5 * np.pi * x / profile.width))
    return g if np.ndim(x_star) else float(g)


def stretching(x_star, omega, profile: PmlProfile):
    """Complex stretch factor eps = 1 + gamma/(omega_c + i*omega)."""
    if not omega > 0:  # NaN fails it too
        raise PmlError(f"omega must be > 0, got {omega}")
    omega_c = profile.omega_c_ratio * omega
    eps = 1.0 + damping(x_star, profile) / (omega_c + 1j * omega)
    return eps if np.ndim(x_star) else complex(eps)
