import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx
from scipy.integrate import quad, trapezoid
from scipy.special import genlaguerre

try:
    from scipy.special import sph_harm_y

    def spherical_harmonic(m, l, phi, theta):
        return sph_harm_y(l, m, theta, phi)
except ImportError:  # older scipy
    from scipy.special import sph_harm as spherical_harmonic

from mickepler.bases import (
    angular_profile,
    parabolic_factor,
    parabolic_profile,
    parabolic_state,
    psi_parabolic,
    psi_spherical,
    radial_r,
    spherical_state,
)
from mickepler.coords import ParabolicPoint, SphericalPoint, spherical_to_parabolic
from mickepler.qnum import SystemParams, derive_constants, enumerate_blocks
from mickepler.verify import (
    _angular_gram,
    _identity_deviation,
    _parabolic_norms,
    _radial_gram,
    _States,
)

HYDROGEN = SystemParams(two_s=0)


def hydrogen_radial(n, l, r):
    """Textbook hydrogen radial function via scipy Laguerre polynomials."""
    rho = 2.0 * r / n
    norm = math.sqrt((2.0 / n) ** 3 * math.factorial(n - l - 1)
                     / (2.0 * n * math.factorial(n + l)))
    return norm * np.exp(-rho / 2.0) * rho**l * genlaguerre(n - l - 1, 2 * l + 1)(rho)


def parabolic_norm_deviation(params, two_n, two_m):
    """Largest deviation from one of the block's parabolic volume-element norms."""
    return float(np.abs(_parabolic_norms(_States(params).levels([(two_n, two_m)])) - 1.0).max())


def spherical_mpmath(params, two_n, two_j, two_m, eps, thetas, dps=50):
    """Angular and radial norms and the angular profile at ``dps`` digits.

    The constants are derived from the labels in mpmath; only eps, an
    elementary function of the labels, is taken from the library.  The
    Jacobi factor is evaluated at the double cos(theta) the library forms:
    near x = 1 at degree 40 its rounding alone moves the profile by 1e-13
    of its maximum, which is the conditioning of P(cos theta), not an
    error of the special functions.  Also returns the sums of |log Gamma|
    entering each log-norm, which set the rounding error of the norms.
    """
    with mpmath.workdps(dps):
        am = mpmath.mpf(abs(two_m - params.two_s)) / 2
        ap = mpmath.mpf(abs(two_m + params.two_s)) / 2
        m1 = mpmath.sqrt(am * am + 4 * mpmath.mpf(params.c1))
        m2 = mpmath.sqrt(ap * ap + 4 * mpmath.mpf(params.c2))
        d1, d2 = m1 - am, m2 - ap
        delta = d1 + d2
        m_plus, m_minus = (ap + am) / 2, (ap - am) / 2
        n, j = mpmath.mpf(two_n) / 2, mpmath.mpf(two_j) / 2
        k = int(j - m_plus)
        n_r = (two_n - two_j - 2) // 2
        lg = mpmath.loggamma
        ang = (lg(k + 1), lg(j + m_plus + delta + 1), lg(j - m_minus + d1 + 1),
               lg(j + m_minus + d2 + 1))
        rad = (lg(n_r + 1), lg(n + j + delta + 1))
        norm_ang = mpmath.sqrt((2 * j + delta + 1) / (4 * mpmath.pi)
                               * mpmath.exp(ang[0] + ang[1] - ang[2] - ang[3]))
        # the normalization of t^p e^(-t/2) L_n_r^(2j+delta+1)(t)
        norm_rad = 2 * mpmath.mpf(eps) ** 2 * mpmath.exp((rad[0] - rad[1]) / 2)
        profile = [norm_ang * mpmath.cos(mpmath.mpf(t) / 2) ** m1
                   * mpmath.sin(mpmath.mpf(t) / 2) ** m2 * mpmath.jacobi(k, m2, m1, mpmath.mpf(x))
                   for t, x in zip(thetas, np.cos(thetas))]
        return (float(norm_ang), float(norm_rad), np.array([float(v) for v in profile]),
                float(sum(map(abs, ang))), float(sum(map(abs, rad))))


class TestAngular:
    def test_isotropic_state(self):
        # at r = 0 the ground-state radial factor is 2, so psi = 2 Y_00
        state = spherical_state(HYDROGEN, 2, 0, 0)
        for theta in (0.0, 0.7, math.pi / 2, 3.0):
            for phi in (0.0, 1.0, 5.5):
                assert psi_spherical(state, SphericalPoint(0.0, theta, phi)) == approx(
                    2.0 / math.sqrt(4.0 * math.pi), rel=1e-14)

    def test_equatorial_node(self):
        state = spherical_state(HYDROGEN, 4, 2, 0)   # j = 1, m = 0
        assert psi_spherical(state, SphericalPoint(1.0, math.pi / 2, 0.0)) == approx(
            0.0, abs=1e-15)

    def test_perturbed_value_vs_normalization_quadrature(self):
        # j = m_plus = 0 state of the c1 = 0.75 system: compare the coded value
        # against the bare profile normalized by direct quadrature
        params = SystemParams(two_s=0, c1=0.75)
        dc = derive_constants(params, 0)
        state = spherical_state(params, 2, 0, 0)

        def bare(theta):
            return math.cos(theta / 2.0) ** dc.m1 * math.sin(theta / 2.0) ** dc.m2

        norm_sq, err = quad(lambda t: bare(t) ** 2 * math.sin(t) * 2.0 * math.pi,
                            0.0, math.pi, epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-10
        theta = math.pi / 3.0
        assert angular_profile(state, theta) == approx(
            bare(theta) / math.sqrt(norm_sq), rel=1e-10)

    def test_hydrogen_matches_spherical_harmonics(self):
        rng = np.random.default_rng(5)
        for (n, l, m) in [(2, 1, 0), (3, 2, 1), (4, 3, -2), (3, 1, -1)]:
            state = spherical_state(HYDROGEN, 2 * n, 2 * l, 2 * m)
            for _ in range(10):
                theta = math.acos(rng.uniform(-1, 1))
                phi = rng.uniform(0, 2 * math.pi)
                # the wavefunction over its radial factor, on the unit sphere
                point = SphericalPoint(1.0, theta, phi)
                ours = psi_spherical(state, point) / radial_r(state, 1.0)
                ref = spherical_harmonic(m, l, phi, theta)
                assert abs(ours) == approx(abs(ref), rel=1e-10, abs=1e-12)

    def test_high_degree_vs_mpmath(self):
        # Jacobi degree k = j - m_plus up to 40 with (alpha, beta) = (m2, m1) from
        # (0, 0) to (40, 40); scipy's recurrence alone is 2e-13 off near theta = pi
        thetas = np.linspace(0.0, math.pi, 63)   # both poles included
        eps = np.finfo(float).eps
        for params, two_m in [(HYDROGEN, 0), (SystemParams(two_s=40), 40),
                              (SystemParams(two_s=40), -40), (HYDROGEN, 80),
                              (SystemParams(two_s=1, c1=0.3, c2=0.7), 77)]:
            dc = derive_constants(params, two_m)
            for k in (0, 1, 20, 40):
                two_j = dc.two_m_plus + 2 * k
                for two_n in (two_j + 2, two_j + 12):
                    st = spherical_state(params, two_n, two_j, two_m)
                    norm_ang, norm_rad, ref, s_ang, s_rad = spherical_mpmath(
                        params, two_n, two_j, two_m, st.eps, thetas)
                    ours = angular_profile(st, thetas)
                    assert np.abs(ours - ref).max() <= 1e-13 * np.abs(ref).max()
                    # exp of a log-gamma sum: relative error up to a few eps per unit of log
                    assert (abs(math.exp(st.log_norm_angular) / norm_ang - 1.0)
                            <= 4.0 * eps * (1.0 + s_ang))
                    assert abs(math.exp(st.log_norm_radial) / norm_rad - 1.0) <= 4.0 * eps * (1.0 + s_rad)

    @pytest.mark.parametrize("c1", [0.0, 0.3])
    def test_north_pole_without_a_sine_power(self, c1):
        # s = 0, m = 0, c2 = 0 gives m2 = 0: sin^0 of the vanishing half angle
        # is skipped, not taken as exp(0 log 0); a RuntimeWarning fails the test
        params = SystemParams(two_s=0, c1=c1)
        state = spherical_state(params, 2, 0, 0)
        assert state.dc.m2 == 0.0 and (state.dc.m1 > 0.0) == (c1 > 0.0)
        value = angular_profile(state, 0.0)
        assert math.isfinite(value) and value != 0.0
        assert angular_profile(state, np.array([0.0, 1.0]))[0] == value
        if c1 == 0.0:
            assert value == approx(1.0 / math.sqrt(4.0 * math.pi), rel=1e-14)

    def test_north_pole_with_a_sine_power(self):
        # m2 > 0: the log of sin(0) is -inf and the profile exactly 0, without a warning
        for params, two_m in [(SystemParams(two_s=0, c2=0.7), 0), (HYDROGEN, 2),
                              (SystemParams(two_s=1, c1=0.3, c2=0.7), 1)]:
            dc = derive_constants(params, two_m)
            assert dc.m2 > 0.0
            state = spherical_state(params, dc.two_m_plus + 4, dc.two_m_plus + 2, two_m)
            assert angular_profile(state, 0.0) == 0.0
            values = angular_profile(state, np.array([0.0, 0.5]))
            assert values[0] == 0.0 and values[1] != 0.0

    def test_orthonormality_quadrature(self):
        for params, two_m in [(HYDROGEN, 0), (SystemParams(two_s=1, c1=0.3, c2=0.7), 1),
                              (SystemParams(two_s=0, c1=0.3, c2=0.7), -2)]:
            dc = derive_constants(params, two_m)
            assert _identity_deviation(_angular_gram(_States(params), dc)) <= 1e-8


class TestRadial:
    def test_hydrogen_ground_state(self):
        state = spherical_state(HYDROGEN, 2, 0, 0)
        for r in (0.1, 0.5, 1.0, 3.7):
            assert radial_r(state, r) == approx(2.0 * math.exp(-r), rel=1e-14)
        assert radial_r(state, 0.0) == approx(2.0, rel=1e-14)

    def test_bound_state_decay(self):
        state = spherical_state(SystemParams(two_s=1, c1=0.2), 7, 3, 1)
        assert abs(radial_r(state, 400.0)) < 1e-30

    def test_hydrogen_2p(self):
        state = spherical_state(HYDROGEN, 4, 2, 0)
        for r in (0.2, 1.0, 4.0):
            expected = r * math.exp(-r / 2.0) / (2.0 * math.sqrt(6.0))
            assert radial_r(state, r) == approx(expected, rel=1e-13)

    def test_vanishes_at_origin_for_positive_power(self):
        state = spherical_state(SystemParams(two_s=0, c1=0.4), 4, 0, 0)
        assert radial_r(state, 0.0) == 0.0

    def test_hydrogen_matches_textbook(self):
        rng = np.random.default_rng(9)
        for (n, l) in [(1, 0), (2, 0), (2, 1), (3, 1), (4, 2), (5, 0)]:
            state = spherical_state(HYDROGEN, 2 * n, 2 * l, 0)
            for _ in range(10):
                r = rng.uniform(0.05, 4.0 * n * n)
                assert radial_r(state, r) == approx(hydrogen_radial(n, l, r),
                                                    rel=1e-10, abs=1e-12)

    def test_orthonormality_quadrature(self):
        for params, two_m, two_j in [
            (HYDROGEN, 0, 0),
            (SystemParams(two_s=1, c1=0.3, c2=0.7), 1, 3),
            (SystemParams(two_s=0, c1=1.1, c2=0.2), 2, 4),
        ]:
            n_list = [two_j + 2 * k for k in range(1, 7)]   # n = j+1 .. j+6
            gram = _radial_gram(_States(params), derive_constants(params, two_m), two_j, n_list)
            assert _identity_deviation(gram) <= 1e-8


    def test_normalization_at_large_radial_number(self):
        # the Laguerre polynomial of degree n_r = 60 cancels catastrophically
        # as a power series; the recurrence keeps the norm to rounding
        params = SystemParams(two_s=0, c1=0.3, c2=0.7)
        for two_j in (0, 10):
            norm = _radial_gram(_States(params), derive_constants(params, 0), two_j,
                                [two_j + 2 * 60 + 2])
            assert abs(norm[0, 0] - 1.0) <= 1e-12


class TestLargeRingStrengths:
    """m1 and m2 grow like 2 sqrt(c): the gamma-ratio norms and the power
    envelopes would overflow or underflow apart, so they meet as logs.
    verify's Gauss rules are NaN at these c, so the norms are dense trapezoids."""

    @pytest.mark.parametrize("c1", [1e5, 1e6])
    def test_parabolic_factors_are_normalized(self, c1):
        # int Phi_i(x)^2 d(eps x) = 1 for each factor
        state = parabolic_state(SystemParams(two_s=0, c1=c1, c2=0.7), 2, 1, 0)
        for axis, n_i, m_i in ((0, 2, state.dc.m1), (1, 1, state.dc.m2)):
            peak = 2.0 * n_i + m_i + 1.0
            t = np.linspace(0.0, peak + 40.0 * math.sqrt(peak) + 100.0, 20001)
            phi = parabolic_factor(state, axis, t / state.eps)
            assert np.isfinite(phi).all()
            assert trapezoid(phi**2, t) == approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("c1", [0.0, 0.3, 1e4, 1e6, 1e10])
    def test_parabolic_log_norms_vs_mpmath(self, c1):
        # the normalization of t^(m_i/2) e^(-t/2) L_n_i^(m_i)(t), with m_i from the labels
        # in mpmath; exp of a log-gamma sum: a few eps per unit of log
        eps = np.finfo(float).eps
        params = SystemParams(two_s=1, c1=c1, c2=0.7)
        for n1, n2, two_m in ((0, 0, 1), (3, 7, -1), (40, 2, 5), (1, 60, -3)):
            state = parabolic_state(params, n1, n2, two_m)
            with mpmath.workdps(40):
                m1 = mpmath.sqrt((mpmath.mpf(two_m - params.two_s) / 2) ** 2 + 4 * mpmath.mpf(c1))
                m2 = mpmath.sqrt((mpmath.mpf(two_m + params.two_s) / 2) ** 2
                                 + 4 * mpmath.mpf(params.c2))
                for ours, n_i, m_i in zip(state.log_norms, (n1, n2), (m1, m2)):
                    terms = (mpmath.loggamma(n_i + 1), mpmath.loggamma(n_i + m_i + 1))
                    ref = (terms[0] - terms[1]) / 2
                    s = float(abs(terms[0]) + abs(terms[1]))
                    assert abs(ours - float(ref)) <= 4.0 * eps * (1.0 + s), (n_i, float(m_i))

    @pytest.mark.parametrize("c", [1e6, 1e10])
    def test_angular_profile_is_normalized(self, c):
        params = SystemParams(two_s=0, c1=c, c2=c)
        dc = derive_constants(params, 0)
        theta = np.linspace(0.0, math.pi, 20001)
        for k in (0, 1, 2):
            two_j = dc.two_m_plus + 2 * k
            z = angular_profile(spherical_state(params, two_j + 2, two_j, 0), theta)
            assert np.isfinite(z).all()
            assert 2.0 * math.pi * trapezoid(z**2 * np.sin(theta), theta) == approx(
                1.0, abs=1e-6)


class TestFullWavefunctions:
    def test_hydrogen_ground_state_everywhere(self):
        state = spherical_state(HYDROGEN, 2, 0, 0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = SphericalPoint(rng.uniform(0.05, 5.0),
                               math.acos(rng.uniform(-1, 1)),
                               rng.uniform(0, 2 * math.pi))
            assert psi_spherical(state, p) == approx(
                math.exp(-p.r) / math.sqrt(math.pi), rel=1e-13)

    def test_parabolic_equals_spherical_for_nondegenerate_level(self):
        # d = 1: the single parabolic state IS the single spherical state
        sph = spherical_state(HYDROGEN, 2, 0, 0)
        par = parabolic_state(HYDROGEN, 0, 0, 0)
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = SphericalPoint(rng.uniform(0.05, 6.0),
                               math.acos(rng.uniform(-1, 1)),
                               rng.uniform(0, 2 * math.pi))
            q = spherical_to_parabolic(p)
            assert psi_parabolic(par, q) == approx(psi_spherical(sph, p), rel=1e-12)

    def test_parabolic_normalization_quadrature(self):
        # includes the perturbed half-integer case
        for params, two_n, two_m in [
            (HYDROGEN, 6, 0),
            (SystemParams(two_s=1, c1=0.3), 5, 1),
            (SystemParams(two_s=2, c1=0.3, c2=0.7), 8, -2),
        ]:
            assert parabolic_norm_deviation(params, two_n, two_m) <= 1e-8

    def test_parabolic_normalization_at_large_n1(self):
        params = SystemParams(two_s=1, c1=0.3, c2=0.7)
        dc = derive_constants(params, 1)
        assert parabolic_norm_deviation(params, dc.two_m_plus + 2 * 61, 1) <= 1e-12

    def test_profile_is_separable_product(self):
        params = SystemParams(two_s=1, c1=0.4, c2=0.2)
        state = parabolic_state(params, 1, 2, 1)
        xi = np.array([0.3, 1.7])
        eta = np.array([2.2, 0.9])
        grid = parabolic_profile(state, xi[:, None], eta[None, :])
        assert grid.shape == (2, 2)
        single = parabolic_profile(state, xi[0], eta[1])
        assert grid[0, 1] == approx(single, rel=1e-14)

    def test_azimuthal_winding(self):
        # phase advances as exp(i (m - s) phi)
        params = SystemParams(two_s=1)
        state = parabolic_state(params, 0, 1, 3)         # m = 3/2, s = 1/2
        base = psi_parabolic(state, ParabolicPoint(1.0, 2.0, 0.0))
        rot = psi_parabolic(state, ParabolicPoint(1.0, 2.0, 0.25))
        assert rot == approx(base * np.exp(1j * 1 * 0.25), rel=1e-13)


class TestLaguerreFactorBranches:
    """The one kernel behind the radial function and both parabolic factors."""

    def test_scalar_argument_gives_float(self):
        params = SystemParams(two_s=1, c1=0.3, c2=0.7)
        sph = spherical_state(params, 7, 3, 1)
        par = parabolic_state(params, 1, 2, 1)
        for x in (1.3, 0.0, np.float64(0.4), np.array(2.5)):
            values = [radial_r(sph, x), angular_profile(sph, x), parabolic_factor(par, 0, x),
                      parabolic_factor(par, 1, x), parabolic_profile(par, x, 0.7)]
            assert [type(v) for v in values] == [float] * 5, x
        assert parabolic_factor(par, 0, np.array([0.5, 1.0])).shape == (2,)

    def test_parabolic_factor_at_origin(self):
        # x^(m_i / 2) is 1 at x = 0 for m_i = 0 and vanishes for m_i > 0;
        # L_n^(0)(0) = 1
        for params, axis_zero in ((SystemParams(two_s=0, c2=0.7), 0),
                                  (SystemParams(two_s=0, c1=0.3), 1)):
            state = parabolic_state(params, 2, 1, 0)
            ms = (state.dc.m1, state.dc.m2)
            assert ms[axis_zero] == 0.0 and ms[1 - axis_zero] > 0.0
            assert parabolic_factor(state, axis_zero, 0.0) == approx(
                math.exp(state.log_norms[axis_zero]), rel=1e-14)
            assert parabolic_factor(state, 1 - axis_zero, 0.0) == 0.0
            values = parabolic_factor(state, 1 - axis_zero, np.array([0.0, 0.5]))
            assert values[0] == 0.0 and values[1] != 0.0

    def test_profile_is_the_product_of_the_factors_bit_for_bit(self):
        state = parabolic_state(SystemParams(two_s=1, c1=0.3, c2=0.7), 2, 3, 1)
        xi = np.array([0.0, 0.3, 1.7, 9.0])
        eta = np.array([2.2, 0.0, 0.9, 14.0])
        scale = math.sqrt(2.0) * state.eps**2
        assert np.array_equal(parabolic_profile(state, xi, eta),
                              scale * parabolic_factor(state, 0, xi)
                              * parabolic_factor(state, 1, eta))
        for a, b in zip(xi, eta):
            assert parabolic_profile(state, a, b) == (
                scale * parabolic_factor(state, 0, a) * parabolic_factor(state, 1, b))


def states_up_to(n_max):
    """Every spherical and every parabolic state of the levels n <= n_max of
    hydrogen and of s = 1/2, c = (0.3, 0.7): mixed levels and m."""
    sph, par = [], []
    for params in (HYDROGEN, SystemParams(two_s=1, c1=0.3, c2=0.7)):
        for two_n, two_m in enumerate_blocks(params, n_max):
            m_plus = derive_constants(params, two_m).two_m_plus
            d = (two_n - m_plus) // 2
            sph += [spherical_state(params, two_n, m_plus + 2 * k, two_m) for k in range(d)]
            par += [parabolic_state(params, n1, d - 1 - n1, two_m) for n1 in range(d)]
    return sph, par


class TestListsOfStates:
    """A list of states: rows follow the profile's leading axis, and a list needs a state."""

    def test_scalar_phi_takes_the_rows_of_the_profile(self):
        # r and theta (xi and eta) of shape (1, 4) give three rows of four; phi is a
        # scalar, and the windings m - s are 0, -1 and 1
        ring = SystemParams(two_s=1, c1=0.3, c2=0.7)
        sph = [spherical_state(ring, 7, two_j, two_m)
               for two_j, two_m in ((1, 1), (3, -1), (5, 3))]
        par = [parabolic_state(ring, n1, 1, two_m) for n1, two_m in ((0, 1), (2, -1), (1, 3))]
        row = np.array([[0.3, 1.0, 2.5, 6.0]])
        sph_point = SphericalPoint(r=row, theta=row / 2.0, phi=0.7)
        par_point = ParabolicPoint(xi=row, eta=row[:, ::-1], phi=0.7)
        for psi, states, point in ((psi_spherical, sph, sph_point),
                                   (psi_parabolic, par, par_point)):
            rows = psi(states, point)
            assert rows.shape == (3, 4)
            for k, st in enumerate(states):
                assert np.array_equal(rows[k], psi(st, point)[0])

    SPH, PAR = states_up_to(3)

    # each function: which states, its coordinates, and the call from those
    CALLS = {
        "radial_r": (SPH, "r", lambda s, r: radial_r(s, r)),
        "angular_profile": (SPH, "t", lambda s, t: angular_profile(s, t)),
        "parabolic_factor_xi": (PAR, "x", lambda s, x: parabolic_factor(s, 0, x)),
        "parabolic_factor_eta": (PAR, "x", lambda s, x: parabolic_factor(s, 1, x)),
        "parabolic_profile": (PAR, "xx", parabolic_profile),
        "psi_spherical": (SPH, "rtp", lambda s, r, t, p: psi_spherical(
            s, SphericalPoint(r=r, theta=t, phi=p))),
        "psi_parabolic": (PAR, "xxp", lambda s, x, y, p: psi_parabolic(
            s, ParabolicPoint(xi=x, eta=y, phi=p))),
    }
    RANGES = {"r": (0.0, 12.0), "x": (0.0, 12.0), "t": (0.0, math.pi), "p": (-4.0, 4.0)}

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(sorted(CALLS)), picks=st.lists(st.integers(0, 10**6),
                                                              min_size=1, max_size=4),
           k=st.integers(1, 4), shape_ids=st.lists(st.integers(0, 5), min_size=3, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_follow_the_broadcast_coordinates(self, name, picks, k, shape_ids, seed):
        # each coordinate on its own takes a shape of {(), (1,), (k,), (1, k), (d, k),
        # (d, 1)}: the call gives row i bit for bit the call with state i alone at the
        # broadcast points, or refuses the shapes with the contract's ValueError
        pool, kinds, call = self.CALLS[name]
        states = [pool[i % len(pool)] for i in picks]
        d = len(states)
        rng = np.random.default_rng(seed)
        coords = []
        for kind, shape_id in zip(kinds, shape_ids):
            shape = [(), (1,), (k,), (1, k), (d, k), (d, 1)][shape_id]
            coords.append(rng.uniform(*self.RANGES[kind], size=shape))
        try:
            shape = np.broadcast_shapes(*(c.shape for c in coords))
        except ValueError:
            shape = None
        if shape is None or shape[:1] not in ((), (1,), (d,)):
            with pytest.raises(ValueError, match=rf"a list of {d} states needs coordinates "
                                                 rf"that broadcast to a scalar or to a shape "
                                                 rf"whose first axis is 1 or {d}"):
                call(states, *coords)
            return
        rows = call(states, *coords)
        assert rows.shape == (d, *shape[1:])
        for i, state in enumerate(states):
            at = [np.broadcast_to(c, shape)[i if shape[0] == d else 0] if shape else c
                  for c in coords]
            assert np.array_equal(rows[i], call(state, *at))

    @pytest.mark.parametrize("call", [
        lambda: radial_r([], 1.0),
        lambda: angular_profile([], 0.5),
        lambda: parabolic_factor([], 0, 1.0),
        lambda: parabolic_factor([], 1, np.ones((1, 3))),
        lambda: parabolic_profile([], 1.0, 2.0),
        lambda: psi_spherical([], SphericalPoint(r=1.0, theta=0.5, phi=0.0)),
        lambda: psi_parabolic([], ParabolicPoint(xi=1.0, eta=2.0, phi=0.0)),
    ], ids=["radial_r", "angular_profile", "parabolic_factor_xi", "parabolic_factor_eta",
            "parabolic_profile", "psi_spherical", "psi_parabolic"])
    def test_empty_list_is_refused(self, call):
        with pytest.raises(ValueError, match="a list of states needs at least one state"):
            call()


class TestNegativeCoordinates:
    """A negative radius or parabolic coordinate is refused, not continued."""

    RING = SystemParams(two_s=0, c1=0.3, c2=0.7)

    def test_scalar_is_refused(self):
        # hydrogen's polynomial would continue to a finite value, the ring's power to NaN
        for params, two_n, two_j in ((HYDROGEN, 4, 0), (self.RING, 6, 2)):
            with pytest.raises(ValueError, match=r"radial_r .* got -1\.0"):
                radial_r(spherical_state(params, two_n, two_j, 0), -1.0)
        state = parabolic_state(self.RING, 1, 2, 0)
        for axis in (0, 1):
            with pytest.raises(ValueError, match=r"parabolic_factor .* got -0\.5"):
                parabolic_factor(state, axis, -0.5)

    def test_list_of_states_names_the_first_negative_point(self):
        sph = [spherical_state(self.RING, 6, two_j, 0) for two_j in (0, 2, 4)]
        par = [parabolic_state(self.RING, n1, 2 - n1, 0) for n1 in range(3)]
        points = np.array([[0.5, 2.0, -3.0, -4.0]])
        with pytest.raises(ValueError, match=r"radial_r .* got -3\.0"):
            radial_r(sph, points)
        with pytest.raises(ValueError, match=r"parabolic_factor .* got -3\.0"):
            parabolic_profile(par, np.abs(points), points)
        with pytest.raises(ValueError, match=r"radial_r .* got -3\.0"):
            psi_spherical(sph, SphericalPoint(r=points, theta=np.ones((1, 4)),
                                              phi=np.zeros((1, 4))))

    def test_negative_zero_is_the_origin(self):
        sph = spherical_state(HYDROGEN, 2, 0, 0)
        par = parabolic_state(self.RING, 2, 1, 0)
        assert radial_r(sph, -0.0) == radial_r(sph, 0.0)
        assert parabolic_factor(par, 0, -0.0) == parabolic_factor(par, 0, 0.0)
        assert radial_r([sph], np.empty((1, 0))).shape == (1, 0)
        assert parabolic_factor(par, 1, []).shape == (0,)


class TestCoordinateDomain:
    """A NaN or infinite coordinate, and a polar angle outside [0, pi], are refused."""

    RING = SystemParams(two_s=0, c1=0.3, c2=0.7)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_radius_is_refused(self, bad):
        state = spherical_state(self.RING, 6, 2, 0)
        with pytest.raises(ValueError, match=rf"radial_r needs finite .* got {bad}"):
            radial_r(state, bad)
        with pytest.raises(ValueError, match=rf"radial_r .* got {bad}"):
            radial_r([state, state], np.array([[1.0, bad, math.nan]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parabolic_coordinate_is_refused(self, bad):
        state = parabolic_state(self.RING, 1, 2, 0)
        for axis in (0, 1):
            with pytest.raises(ValueError, match=rf"parabolic_factor needs finite .* got {bad}"):
                parabolic_factor(state, axis, [0.5, bad])

    @pytest.mark.parametrize("bad", [-1.0, 4.0, math.pi + 4e-16, -1e-300,
                                     math.nan, math.inf, -math.inf])
    def test_polar_angle_outside_zero_to_pi_is_refused(self, bad):
        # at c = (0.3, 0.7) the half-angle powers of -1.0 and 4.0 are NaN
        state = spherical_state(self.RING, 6, 2, 0)
        with pytest.raises(ValueError, match=rf"angular_profile needs polar angles in "
                                             rf"\[0, pi\], got {bad!r}"):
            angular_profile(state, bad)
        with pytest.raises(ValueError, match=rf"angular_profile .* got {bad!r}"):
            psi_spherical([state], SphericalPoint(r=np.ones((1, 3)),
                                                  theta=np.array([[0.5, bad, -2.0]]),
                                                  phi=np.zeros((1, 3))))

    def test_polar_angle_bounds_are_accepted(self):
        state = spherical_state(self.RING, 6, 2, 0)
        assert angular_profile(state, -0.0) == angular_profile(state, 0.0)
        assert math.isfinite(angular_profile(state, math.pi))
        assert angular_profile([state], np.empty((1, 0))).shape == (1, 0)
