"""Closed-form 2D wave field of a vertical point force in full space.

Used to calibrate the absorbing-layer amplitude and to validate the solver.
The Hankel functions underneath come from ``scipy.special``.
"""

from __future__ import annotations

import numpy as np


class AnalyticError(ValueError):
    pass


def hankel2(order, x):
    """Hankel function of the second kind, order 0 or 1: J_n - i Y_n, at
    every entry of x."""
    x = np.asarray(x, dtype=float)
    bad = ~(x > 0)  # written so that NaN fails it
    if np.any(bad):
        raise AnalyticError(f"argument must be > 0, got {x[bad][0]}")
    if order not in (0, 1):
        raise AnalyticError(f"order must be 0 or 1, got {order}")
    # imported here: loading scipy.special adds about 4 MB to every process
    # that imports tunnelfwi, and only validation needs it
    from scipy import special
    return special.hankel2(order, x)


# -- full-space response ------------------------------------------------------

def greens_x_polar(r, theta, omega, vp, vs, rho):
    """Horizontal displacement at (r, theta) due to a unit vertical force,
    entrywise over r and theta."""
    r = np.asarray(r, dtype=float)
    # each comparison is written so that NaN fails it
    if np.any(~(r > 0)):
        raise AnalyticError("field point coincides with the source")
    if not omega > 0:
        raise AnalyticError(f"omega must be > 0, got {omega}")
    cs = np.cos(theta) * np.sin(theta)
    kp = r * omega / vp
    ks = r * omega / vs
    g = (1j / (4.0 * rho * vp ** 2) * cs * hankel2(0, kp)
         - 1j / (4.0 * rho * vs ** 2) * cs * hankel2(0, ks)
         - 1j / (2.0 * rho * vp) * cs / (r * omega) * hankel2(1, kp)
         + 1j / (2.0 * rho * vs) * cs / (r * omega) * hankel2(1, ks))
    return g


def greens_x_analytic(source, points, omega, vp, vs, rho):
    """``greens_x_polar`` at Cartesian points, one or an (..., 2) array:
    r is the distance from ``source`` and theta = atan2(dx, -dy) is
    measured from the downward vertical."""
    d = np.asarray(points, dtype=float) - np.asarray(source, dtype=float)
    r = np.hypot(d[..., 0], d[..., 1])
    theta = np.arctan2(d[..., 0], -d[..., 1])
    return greens_x_polar(r, theta, omega, vp, vs, rho)
