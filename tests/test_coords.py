import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx
from scipy.special import roots_legendre

from mickepler.coords import (
    CartesianPoint,
    DegenerateGeometryError,
    SphericalPoint,
    SpheroidalPoint,
    cartesian_to_spherical,
    cartesian_to_spheroidal,
    parabolic_to_spherical,
    spherical_to_cartesian,
    spherical_to_parabolic,
    spheroidal_to_cartesian,
)


class TestSphericalParabolic:
    def test_north_pole(self):
        p = spherical_to_parabolic(SphericalPoint(1.0, 0.0, 0.0))
        assert (p.xi, p.eta, p.phi) == approx((2.0, 0.0, 0.0), abs=1e-15)

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
        q = parabolic_to_spherical(spherical_to_parabolic(p))
        assert q.r == approx(r, rel=1e-13)
        assert q.theta == approx(theta, rel=1e-10, abs=1e-10)
        assert q.phi == p.phi


class TestSpheroidal:
    def test_focal_axis_point(self):
        c = spheroidal_to_cartesian(SpheroidalPoint(1.0, 1.0, 0.0, 2.0))
        assert (c.x, c.y, c.z) == approx((0.0, 0.0, 2.0), abs=1e-15)

    def test_origin_focus(self):
        c = spheroidal_to_cartesian(SpheroidalPoint(1.0, -1.0, 0.0, 2.0))
        assert (c.x, c.y, c.z) == approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_direct_substitution(self):
        c = spheroidal_to_cartesian(SpheroidalPoint(2.0, 0.0, 0.0, 2.0))
        assert c.x == approx(math.sqrt(3.0), rel=1e-15)
        assert c.y == approx(0.0, abs=1e-15)
        assert c.z == approx(1.0, rel=1e-15)
        r = math.sqrt(c.x**2 + c.y**2 + c.z**2)
        assert r == approx(2.0, rel=1e-15)  # r = (R/2)(mu + nu)

    def test_inverse_on_axis(self):
        p = cartesian_to_spheroidal(CartesianPoint(0.0, 0.0, 2.0), 2.0)
        assert (p.mu, p.nu) == approx((1.0, 1.0), abs=1e-15)

    def test_inverse_generic(self):
        p = cartesian_to_spheroidal(CartesianPoint(math.sqrt(3.0), 0.0, 1.0), 2.0)
        assert p.mu == approx(2.0, rel=1e-14)
        assert p.nu == approx(0.0, abs=1e-14)

    def test_small_r_limit_gives_cos_theta(self):
        # fixed point, R -> 0: nu approaches the spherical cos(theta)
        c = CartesianPoint(0.6, -0.2, 0.9)
        cos_theta = c.z / math.sqrt(c.x**2 + c.y**2 + c.z**2)
        for R, tol in ((1e-3, 1e-3), (1e-6, 1e-6)):
            p = cartesian_to_spheroidal(c, R)
            assert p.nu == approx(cos_theta, abs=2 * tol)

    def test_focal_segment_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            cartesian_to_spheroidal(CartesianPoint(0.0, 0.0, 0.5), 2.0)

    def test_nonpositive_r_rejected(self):
        with pytest.raises(ValueError):
            cartesian_to_spheroidal(CartesianPoint(1.0, 0.0, 0.0), 0.0)

    @given(st.floats(min_value=1.0 + 1e-9, max_value=50.0),
           st.floats(min_value=-1.0 + 1e-9, max_value=1.0 - 1e-9),
           st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9),
           st.floats(min_value=1e-2, max_value=1e2))
    def test_round_trip(self, mu, nu, phi, R):
        p = SpheroidalPoint(mu, nu, phi, R)
        c = spheroidal_to_cartesian(p)
        q = cartesian_to_spheroidal(c, R)
        assert q.mu == approx(mu, rel=1e-12, abs=1e-12)
        assert q.nu == approx(nu, rel=1e-12, abs=1e-12)
        assert q.phi == approx(phi, rel=1e-12, abs=1e-12)

    @given(st.floats(min_value=1.0, max_value=50.0),
           st.floats(min_value=-1.0, max_value=1.0),
           st.floats(min_value=1e-2, max_value=1e2))
    def test_parabolic_factorizations(self, mu, nu, R):
        # r + z = (R/2)(mu+1)(1+nu) and r - z = (R/2)(mu-1)(1-nu)
        c = spheroidal_to_cartesian(SpheroidalPoint(mu, nu, 0.7, R))
        r = math.sqrt(c.x**2 + c.y**2 + c.z**2)
        assert r + c.z == approx(0.5 * R * (mu + 1) * (1 + nu), rel=1e-12, abs=1e-12)
        assert r - c.z == approx(0.5 * R * (mu - 1) * (1 - nu), rel=1e-12, abs=1e-12)
        assert r == approx(0.5 * R * (mu + nu), rel=1e-12, abs=1e-12)


class TestCartesianSpherical:
    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=1e-6, max_value=math.pi - 1e-6),
           st.floats(min_value=1e-9, max_value=2 * math.pi - 1e-9))
    def test_round_trip(self, r, theta, phi):
        p = SphericalPoint(r, theta, phi)
        q = cartesian_to_spherical(spherical_to_cartesian(p))
        assert q.r == approx(r, rel=1e-12)
        assert q.theta == approx(theta, rel=1e-9, abs=1e-9)
        assert q.phi == approx(phi, rel=1e-9, abs=1e-9)


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
