import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx
from scipy.special import roots_legendre

from mickepler.coords import ParabolicPoint, SphericalPoint, spherical_to_parabolic


class TestSphericalParabolic:
    def test_north_pole(self):
        p = spherical_to_parabolic(SphericalPoint(1.0, 0.0, 0.0))
        assert (p.xi, p.eta, p.phi) == approx((2.0, 0.0, 0.0), abs=1e-15)

    def test_south_pole(self):
        p = spherical_to_parabolic(SphericalPoint(1.0, math.pi, 0.0))
        assert (p.xi, p.eta) == approx((0.0, 2.0), abs=1e-15)

    def test_origin(self):
        p = spherical_to_parabolic(SphericalPoint(0.0, 1.2, 0.4))
        assert (p.xi, p.eta) == (0.0, 0.0)

    @pytest.mark.parametrize("theta", [1e-8, 1e-5, 1e-3])
    def test_near_pole_keeps_relative_precision(self, theta):
        # eta = r (1 - cos theta) = (r theta^2 / 2)(1 - theta^2/12 + theta^4/360 - ...);
        # r (1 - cos theta) itself would cancel to 0 at theta = 1e-8
        r = 3.0
        p = spherical_to_parabolic(SphericalPoint(r, theta, 0.0))
        series = 0.5 * r * theta**2 * (1.0 - theta**2 / 12.0 + theta**4 / 360.0)
        assert p.eta == approx(series, rel=1e-15)
        assert p.xi + p.eta == approx(2.0 * r, rel=1e-15)

    def test_equator(self):
        p = spherical_to_parabolic(SphericalPoint(1.0, math.pi / 2, 0.3))
        assert p.xi == approx(1.0, abs=1e-15)
        assert p.eta == approx(1.0, abs=1e-15)

    def test_sixty_degrees(self):
        p = spherical_to_parabolic(SphericalPoint(2.0, math.pi / 3, 0.0))
        assert p.xi == approx(3.0, rel=1e-15)
        assert p.eta == approx(1.0, rel=1e-15)

    def test_arrays_match_scalar_points(self):
        r = np.array([0.5, 1.0, 7.25])
        theta = np.array([0.0, 1.1, 3.0])
        phi = np.array([0.1, 2.0, 6.0])
        p = spherical_to_parabolic(SphericalPoint(r, theta, phi))
        for k in range(3):
            q = spherical_to_parabolic(SphericalPoint(float(r[k]), float(theta[k]),
                                                      float(phi[k])))
            assert (p.xi[k], p.eta[k], p.phi[k]) == approx((q.xi, q.eta, q.phi), rel=1e-15)

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=1e-6, max_value=math.pi - 1e-6),
           st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9))
    def test_round_trip(self, r, theta, phi):
        p = SphericalPoint(r, theta, phi)
        q = spherical_to_parabolic(p)
        # closed-form inverse; tan(theta/2) = sqrt(eta/xi) is stable at both poles
        assert 0.5 * (q.xi + q.eta) == approx(r, rel=1e-13)
        assert 2.0 * math.atan2(math.sqrt(q.eta), math.sqrt(q.xi)) == approx(
            theta, rel=1e-10, abs=1e-10)
        assert q.phi == p.phi

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=0.0, max_value=math.pi),
           st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9))
    def test_cartesian_factorization(self, r, theta, phi):
        # xi = r + z, eta = r - z and xi eta = x^2 + y^2
        x = r * math.sin(theta) * math.cos(phi)
        y = r * math.sin(theta) * math.sin(phi)
        z = r * math.cos(theta)
        p = spherical_to_parabolic(SphericalPoint(r, theta, phi))
        assert p.xi == approx(r + z, rel=1e-13, abs=1e-13 * r)
        assert p.eta == approx(r - z, rel=1e-13, abs=1e-13 * r)
        assert math.sqrt(p.xi * p.eta) == approx(math.hypot(x, y), rel=1e-13, abs=1e-13 * r)

    def test_scalar_radius_broadcasts_over_angles(self):
        theta = np.linspace(0.0, math.pi, 7).reshape(7, 1)
        phi = np.array([0.5, 1.5])
        p = spherical_to_parabolic(SphericalPoint(2.0, theta, phi))
        assert p.xi.shape == p.eta.shape == (7, 1)
        assert p.phi is phi
        assert p.xi + p.eta == approx(np.full((7, 1), 4.0), rel=1e-15)

    @pytest.mark.parametrize("point", [SphericalPoint(1.0, 0.5, 0.0),
                                       ParabolicPoint(1.0, 0.5, 0.0)])
    def test_points_are_frozen(self, point):
        with pytest.raises(dataclasses.FrozenInstanceError):
            point.phi = 1.0


class TestSpheroidalConvention:
    """The module docstring's prolate spheroidal coordinates (foci at the origin
    and at (0, 0, R)) factor through the parabolic ones:
    r + z = (R/2)(mu+1)(1+nu) and r - z = (R/2)(mu-1)(1-nu)."""

    @staticmethod
    def spherical(mu, nu, R):
        r = 0.5 * R * (mu + nu)
        cos_theta = (mu * nu + 1.0) / (mu + nu) if r > 0.0 else 1.0
        return SphericalPoint(r, math.acos(min(1.0, max(-1.0, cos_theta))), 0.7)

    def test_focal_axis_point(self):
        # mu = nu = 1 is the second focus (0, 0, R)
        p = spherical_to_parabolic(self.spherical(1.0, 1.0, 2.0))
        assert (p.xi, p.eta) == approx((4.0, 0.0), abs=1e-15)

    def test_origin_focus(self):
        p = spherical_to_parabolic(self.spherical(1.0, -1.0, 2.0))
        assert (p.xi, p.eta) == (0.0, 0.0)

    @given(st.floats(min_value=1.0, max_value=50.0),
           st.floats(min_value=-1.0, max_value=1.0),
           st.floats(min_value=1e-2, max_value=1e2))
    def test_parabolic_factorizations(self, mu, nu, R):
        p = spherical_to_parabolic(self.spherical(mu, nu, R))
        scale = 1e-12 * R * mu
        assert p.xi == approx(0.5 * R * (mu + 1) * (1 + nu), rel=1e-12, abs=scale)
        assert p.eta == approx(0.5 * R * (mu - 1) * (1 - nu), rel=1e-12, abs=scale)


def test_parabolic_volume_element():
    # integral of 1 over the ball r <= rho using dV = (xi+eta)/4 dxi deta dphi;
    # the ball is the triangle xi + eta <= 2 rho in the (xi, eta) quadrant
    rho = 1.3
    nodes, weights = roots_legendre(64)
    u = 0.5 * (nodes + 1.0) * 2.0 * rho               # xi + eta
    wu = weights * rho
    t = 0.5 * (nodes + 1.0)                           # xi / (xi + eta)
    wt = weights * 0.5
    # dxi deta = u du dt on the triangle; integrand (xi+eta)/4 = u/4
    value = 2.0 * math.pi * np.sum(wu * u * u / 4.0) * np.sum(wt)
    assert value == approx(4.0 * math.pi * rho**3 / 3.0, rel=1e-12)
