"""Cartesian, spherical, parabolic and prolate spheroidal coordinates.

Conventions (atomic units):

* parabolic:   xi = r (1 + cos theta) = r + z,  eta = r (1 - cos theta) = r - z
* spheroidal:  one focus at the origin, the second at (0, 0, R), so that
               z = (R/2)(mu nu + 1) and r = (R/2)(mu + nu); consequently
               r + z = (R/2)(mu+1)(1+nu) and r - z = (R/2)(mu-1)(1-nu),
               matching the parabolic factorization.

Azimuthal angles are normalized to [0, 2*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateGeometryError",
    "CartesianPoint",
    "SphericalPoint",
    "ParabolicPoint",
    "SpheroidalPoint",
    "spherical_to_cartesian",
    "cartesian_to_spherical",
    "spherical_to_parabolic",
    "parabolic_to_spherical",
    "spheroidal_to_cartesian",
    "cartesian_to_spheroidal",
]


class DegenerateGeometryError(ValueError):
    """Raised when a point sits on a coordinate degeneracy (focal segment)."""


@dataclass(frozen=True)
class CartesianPoint:
    x: float
    y: float
    z: float


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


@dataclass(frozen=True)
class SpheroidalPoint:
    mu: float     # >= 1
    nu: float     # in [-1, 1]
    phi: float
    R: float      # interfocus distance, > 0


def _wrap_phi(phi: float) -> float:
    phi = math.fmod(phi, 2.0 * math.pi)
    return phi + 2.0 * math.pi if phi < 0.0 else phi


def spherical_to_cartesian(p: SphericalPoint) -> CartesianPoint:
    st = math.sin(p.theta)
    return CartesianPoint(
        x=p.r * st * math.cos(p.phi),
        y=p.r * st * math.sin(p.phi),
        z=p.r * math.cos(p.theta),
    )


def cartesian_to_spherical(p: CartesianPoint) -> SphericalPoint:
    r = math.sqrt(p.x * p.x + p.y * p.y + p.z * p.z)
    if r == 0.0:
        raise DegenerateGeometryError("spherical angles undefined at the origin")
    rho = math.hypot(p.x, p.y)
    return SphericalPoint(r=r, theta=math.atan2(rho, p.z), phi=_wrap_phi(math.atan2(p.y, p.x)))


def spherical_to_parabolic(p: SphericalPoint) -> ParabolicPoint:
    """Parabolic coordinates of a point; r, theta and phi may be numpy arrays."""
    # half-angle forms keep full precision near the poles
    half = 0.5 * p.theta
    return ParabolicPoint(
        xi=2.0 * p.r * np.cos(half) ** 2,
        eta=2.0 * p.r * np.sin(half) ** 2,
        phi=p.phi,
    )


def parabolic_to_spherical(p: ParabolicPoint) -> SphericalPoint:
    r = 0.5 * (p.xi + p.eta)
    if r == 0.0:
        raise DegenerateGeometryError("spherical angles undefined at the origin")
    # tan(theta/2) = sqrt(eta/xi), stable at both poles
    theta = 2.0 * math.atan2(math.sqrt(p.eta), math.sqrt(p.xi))
    return SphericalPoint(r=r, theta=theta, phi=p.phi)


def spheroidal_to_cartesian(p: SpheroidalPoint) -> CartesianPoint:
    rho = 0.5 * p.R * math.sqrt(max(0.0, (p.mu * p.mu - 1.0) * (1.0 - p.nu * p.nu)))
    return CartesianPoint(
        x=rho * math.cos(p.phi),
        y=rho * math.sin(p.phi),
        z=0.5 * p.R * (p.mu * p.nu + 1.0),
    )


def cartesian_to_spheroidal(p: CartesianPoint, R: float) -> SpheroidalPoint:
    """Inverse spheroidal map for foci at the origin and (0, 0, R).

    mu = (r + r1)/R and nu = (r - r1)/R with r1 the distance to the
    second focus.  Points strictly inside the open focal segment are
    rejected: the azimuth carries no information there.
    """
    if not R > 0.0:
        raise ValueError("interfocus distance R must be positive")
    rho2 = p.x * p.x + p.y * p.y
    if rho2 == 0.0 and 0.0 < p.z < R:
        raise DegenerateGeometryError(
            f"point (0,0,{p.z}) lies on the open focal segment for R={R}"
        )
    r = math.sqrt(rho2 + p.z * p.z)
    r1 = math.sqrt(rho2 + (p.z - R) * (p.z - R))
    mu = (r + r1) / R
    nu = max(-1.0, min(1.0, (r - r1) / R))
    phi = _wrap_phi(math.atan2(p.y, p.x)) if rho2 > 0.0 else 0.0
    return SpheroidalPoint(mu=max(1.0, mu), nu=nu, phi=phi, R=R)
