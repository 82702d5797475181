"""Spherical and parabolic points and the map between them.

Conventions (atomic units):

* parabolic:   xi = r (1 + cos theta) = r + z,  eta = r (1 - cos theta) = r - z
* spheroidal:  one focus at the origin, the second at (0, 0, R), so that
               z = (R/2)(mu nu + 1) and r = (R/2)(mu + nu); consequently
               r + z = (R/2)(mu+1)(1+nu) and r - z = (R/2)(mu-1)(1-nu),
               matching the parabolic factorization.

The azimuth phi passes through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SphericalPoint",
    "ParabolicPoint",
    "spherical_to_parabolic",
]


@dataclass(frozen=True)
class SphericalPoint:
    r: float
    theta: float
    phi: float


@dataclass(frozen=True)
class ParabolicPoint:
    xi: float
    eta: float
    phi: float


def spherical_to_parabolic(p: SphericalPoint) -> ParabolicPoint:
    """Parabolic coordinates of a point; r, theta and phi may be numpy arrays."""
    # half-angle forms keep full precision near the poles
    half = 0.5 * p.theta
    return ParabolicPoint(
        xi=2.0 * p.r * np.cos(half) ** 2,
        eta=2.0 * p.r * np.sin(half) ** 2,
        phi=p.phi,
    )
