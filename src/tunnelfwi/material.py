"""Nodal ground model.

Wave velocities are stored as one coefficient per mesh vertex: the first
half of the vector carries P-wave velocities, the second half S-wave
velocities, both interpolated bilinearly inside each element.  Density is
spatially constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SQRT2 = np.sqrt(2.0)


class InvalidMaterialError(ValueError):
    """P/S velocity pair without a positive first Lame parameter."""


@dataclass(frozen=True)
class AmbientProperties:
    vp: float
    vs: float
    rho: float

    def validate(self):
        if not all(0.0 < v < np.inf for v in (self.vp, self.vs, self.rho)):
            raise InvalidMaterialError("ambient properties must be positive and finite")
        if not self.vp > SQRT2 * self.vs:
            raise InvalidMaterialError(
                f"vp={self.vp} must exceed sqrt(2)*vs={SQRT2 * self.vs:.6g}")


@dataclass(frozen=True)
class ModelVector:
    """Coefficient vector of nodal (vp, vs) values, vp block first."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) % 2:
            raise InvalidMaterialError("model vector must be flat with even length")
        object.__setattr__(self, "values", v)

    @property
    def n_nodes(self):
        return len(self.values) // 2

    @property
    def vp(self):
        return self.values[:self.n_nodes]

    @property
    def vs(self):
        return self.values[self.n_nodes:]

    def validate(self):
        if not np.all((self.values > 0) & (self.values < np.inf)):
            raise InvalidMaterialError("velocities must be positive and finite everywhere")
        bad = ~(self.vp > SQRT2 * self.vs)
        if np.any(bad):
            k = int(np.argmax(bad))
            raise InvalidMaterialError(
                f"vp <= sqrt(2)*vs at node {k}: vp={self.vp[k]}, vs={self.vs[k]}")

    def replace(self, values):
        return ModelVector(np.array(values, dtype=float))

    @classmethod
    def homogeneous(cls, mesh, vp, vs):
        n = mesh.n_nodes
        return cls(np.concatenate([np.full(n, float(vp)), np.full(n, float(vs))]))


def clamp_to_valid(values, margin=1e-6, floor=1.0):
    """Pull line-search trial models back inside the validity bound.

    S-wave velocities are reduced where vp <= sqrt(2)*vs; both blocks are
    floored at a small positive velocity.
    """
    v = np.array(values, dtype=float)
    n = len(v) // 2
    np.maximum(v, floor, out=v)
    limit = v[:n] / SQRT2 * (1.0 - margin)
    np.minimum(v[n:], limit, out=v[n:])
    return v
