import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
import mpmath
from pytest import approx
from scipy.special import eval_jacobi, poch

from mickepler.numkernel import hyp3f2_terminating, jacobi_exact, laguerre_exact
from mickepler.verify import _gauss_order, _jacobi

# The library takes log-gamma from math.lgamma and Jacobi polynomials from
# scipy.special.  TestLnGamma and TestJacobi hold those functions to the
# identities and accuracy that the bases, interbasis and verify modules rely
# on; TestPochhammer holds scipy's Pochhammer symbol, which TestJacobi uses.


class TestLnGamma:
    def test_gamma_one(self):
        assert math.lgamma(1.0) == approx(0.0, abs=1e-15)

    def test_gamma_half(self):
        # Gamma(1/2) = sqrt(pi)
        assert math.lgamma(0.5) == approx(0.5723649429247001, abs=1e-14)

    def test_recurrence_at_7_25(self):
        assert math.lgamma(8.25) - math.lgamma(7.25) == approx(math.log(7.25), abs=1e-13)

    def test_domain_error(self):
        # poles raise; negative non-integers return log|Gamma| instead
        with pytest.raises(ValueError):
            math.lgamma(0.0)
        with pytest.raises(ValueError):
            math.lgamma(-3.0)

    def test_against_stdlib(self):
        # independent oracle: 30-digit mpmath log-gamma
        xs = np.concatenate([
            np.linspace(1e-3, 2.0, 400),
            np.linspace(2.0, 200.0, 600),
        ])
        with mpmath.workdps(30):
            for x in xs:
                ref = float(mpmath.loggamma(mpmath.mpf(float(x))))
                assert math.lgamma(float(x)) == approx(ref, rel=1e-13, abs=1e-13)

    @given(st.floats(min_value=0.5, max_value=100.0))
    def test_recurrence_property(self, x):
        assert abs(math.lgamma(x + 1.0) - math.lgamma(x) - math.log(x)) <= 1e-12


class TestPochhammer:
    def test_empty_product(self):
        assert poch(3.0, 0) == 1.0

    def test_hits_zero(self):
        assert poch(-2.0, 3) == 0.0

    def test_direct_product(self):
        assert poch(0.5, 4) == approx(0.5 * 1.5 * 2.5 * 3.5, rel=1e-15)

    def test_negative_k(self):
        # (a)_{-k} = 1 / (a - k)_k, with a pole where a - k hits zero
        assert poch(2.5, -2) == approx(1.0 / (0.5 * 1.5), rel=1e-15)
        assert poch(1.0, -1) == math.inf

    @given(st.floats(min_value=-5, max_value=5), st.integers(min_value=0, max_value=12))
    def test_recurrence(self, a, k):
        assert poch(a, k + 1) == approx(poch(a, k) * (a + k), rel=1e-12, abs=1e-12)


class TestJacobi:
    def test_degree_zero(self):
        for a, b, x in [(0.0, 0.0, 0.3), (1.7, -0.4, -1.0), (2.5, 0.1, 1.0)]:
            assert eval_jacobi(0, a, b, x) == 1.0

    def test_endpoint_formula(self):
        # P_k^{(a,b)}(1) = (a+1)_k / k!
        for k in range(9):
            for a, b in [(0.0, 0.0), (0.37, 1.5), (2.2, 0.9)]:
                expected = poch(a + 1.0, k) / math.factorial(k)
                assert eval_jacobi(k, a, b, 1.0) == approx(expected, rel=1e-13)

    def test_legendre_oracle(self):
        # alpha = beta = 0 reduces to Legendre: P2(x) = (3x^2 - 1)/2
        x = 0.3
        assert eval_jacobi(2, 0.0, 0.0, x) == approx((3 * x * x - 1) / 2, abs=1e-15)
        assert eval_jacobi(2, 0.0, 0.0, x) == approx(-0.365, abs=1e-15)

    def test_against_scipy(self):
        # scipy's Jacobi polynomial against 30-digit mpmath
        rng = np.random.default_rng(3)
        with mpmath.workdps(30):
            for _ in range(100):
                k = int(rng.integers(0, 12))
                a = rng.uniform(-0.9, 3.0)
                b = rng.uniform(-0.9, 3.0)
                x = rng.uniform(-1.0, 1.0)
                ref = float(mpmath.jacobi(k, a, b, x))
                assert eval_jacobi(k, a, b, x) == approx(ref, rel=1e-11, abs=1e-11)

    def test_weighted_orthogonality(self):
        # the Gauss-Jacobi rule of each weight, exact to degree 16, against the
        # closed-form norm
        for a in (0.0, 0.37, 1.5):
            for b in (0.0, 0.37, 1.5):
                x, w = _jacobi(_gauss_order(16), a, b)
                weight = w * (1 - x) ** a * (1 + x) ** b
                polys = np.array([eval_jacobi(k, a, b, x) for k in range(9)])
                gram = np.einsum("i,ki,li->kl", weight, polys, polys)
                norms = [
                    2.0 ** (a + b + 1) / (2 * k + a + b + 1)
                    * math.exp(math.lgamma(k + a + 1) + math.lgamma(k + b + 1)
                               - math.lgamma(k + a + b + 1) - math.lgamma(k + 1.0))
                    for k in range(9)
                ]
                target = np.diag(norms)
                scale = np.sqrt(np.outer(norms, norms))
                assert np.abs((gram - target) / scale).max() <= 1e-10

    @given(st.integers(min_value=0, max_value=10),
           st.floats(min_value=-0.5, max_value=2.0),
           st.floats(min_value=-0.5, max_value=2.0),
           st.floats(min_value=-1.0, max_value=1.0))
    def test_reflection_symmetry(self, k, a, b, x):
        # the identity bases.angular_profile uses to keep x in [0, 1]
        lhs = eval_jacobi(k, a, b, -x)
        rhs = (-1.0) ** k * eval_jacobi(k, b, a, x)
        assert lhs == approx(rhs, rel=1e-10, abs=1e-10)

    def test_array_argument(self):
        x = np.linspace(-1, 1, 7)
        vals = eval_jacobi(3, 0.5, 1.5, x)
        assert vals.shape == x.shape
        assert vals[0] == approx(eval_jacobi(3, 0.5, 1.5, -1.0))


def at_40_digits(pair):
    """An exact (numerator, denominator) pair as a 40-digit mpmath number."""
    with mpmath.workdps(40):
        return mpmath.mpf(pair[0]) / pair[1]


def agrees_to(value, ref, digits):
    return abs(value - ref) <= abs(ref) * mpmath.mpf(10) ** -digits


class TestExactPolynomials:
    # each exact value against 40-digit mpmath at the same doubles; the exact
    # pair rounded to 40 digits must agree to about that
    LAGUERRE_CASES = [(0, 0.0, 3.5), (1, 0.37, 2.0), (7, 2.5, 0.125), (40, 17.3, 61.7),
                      (250, 4.0, 300.25), (500, 1.5, 1000.0 / 3.0)]
    JACOBI_CASES = [(0, 0.0, 0.0, 0.3), (1, 1.5, -0.4, -1.0), (2, -0.5, -0.5, 0.25),
                    (13, 3.7, 0.2, -0.81), (40, 9.9, 6.25, 0.5), (200, 0.3, 7.0, -0.123)]

    def test_laguerre_against_mpmath(self):
        for n, alpha, t in self.LAGUERRE_CASES:
            with mpmath.workdps(40):
                ref = mpmath.laguerre(n, mpmath.mpf(alpha), mpmath.mpf(t))
                assert agrees_to(at_40_digits(laguerre_exact(n, alpha, t)), ref, 35), n

    def test_jacobi_against_mpmath(self):
        for k, a, b, x in self.JACOBI_CASES:
            with mpmath.workdps(40):
                ref = mpmath.jacobi(k, mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x))
                assert agrees_to(at_40_digits(jacobi_exact(k, a, b, x)), ref, 35), k

    def test_low_degrees_by_hand(self):
        # L_2^(a)(t) = ((t - 2a - 4) t + (a + 1)(a + 2)) / 2 and P_1^(a,b)(1) = a + 1
        a, t = Fraction(3, 4), Fraction(5, 2)
        assert Fraction(*laguerre_exact(2, float(a), float(t))) == (
            (t - 2 * a - 4) * t + (a + 1) * (a + 2)) / 2
        assert Fraction(*jacobi_exact(1, 2.25, 0.5, 1.0)) == Fraction(13, 4)
        assert laguerre_exact(0, 3.0, 9.0) == (1, 1) and jacobi_exact(0, 0.5, 0.5, 0.0) == (1, 1)

    def test_denominators_are_positive(self):
        for n, alpha, t in self.LAGUERRE_CASES[:4]:
            assert laguerre_exact(n, alpha, t)[1] > 0
        for k, a, b, x in self.JACOBI_CASES[:5]:
            assert jacobi_exact(k, a, b, x)[1] > 0

    @given(st.integers(min_value=0, max_value=12),
           st.floats(min_value=-0.99, max_value=5.0),
           st.floats(min_value=-0.99, max_value=5.0),
           st.floats(min_value=-1.0, max_value=1.0))
    def test_jacobi_reflection_is_exact(self, k, a, b, x):
        # P_k^(a,b)(-x) = (-1)^k P_k^(b,a)(x), the identity bases._angular uses
        reflected = (-1) ** k * Fraction(*jacobi_exact(k, b, a, x))
        assert Fraction(*jacobi_exact(k, a, b, -x)) == reflected


def hyp3f2(a, b, n_terms):
    """The exact sum of int or Fraction parameters, as a Fraction."""
    return Fraction(*hyp3f2_terminating([Fraction(x).as_integer_ratio() for x in a],
                                        [Fraction(x).as_integer_ratio() for x in b], n_terms))


def rising(x, n):
    """Exact Pochhammer symbol (x)_n."""
    return math.prod((x + i for i in range(n)), start=Fraction(1))


class TestHyp3F2:
    def test_zero_index(self):
        # a zero numerator parameter leaves the first term alone; no term is an empty sum
        a, b = (0, Fraction(13, 10), Fraction(-27, 10)), (Fraction(2, 5), 5)
        assert hyp3f2(a, b, 1) == hyp3f2(a, b, 3) == 1
        assert hyp3f2(a, b, 0) == 0

    def test_single_step_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a2, a3, b1, b2 = map(Fraction, rng.uniform(0.3, 4.0, size=4))
            assert hyp3f2((-1, a2, a3), (b1, b2), 2) == 1 - a2 * a3 / (b1 * b2)

    def test_saalschuetz_balanced(self):
        # -2, 3/2, 5/2; 2, 1 is Saalschuetzian: 1 + a + b - c - n matches the
        # second denominator, and the sum is (c-a)_n (c-b)_n / ((c)_n (c-a-b)_n)
        n, a, b, c = 2, Fraction(3, 2), Fraction(5, 2), Fraction(2)
        closed = (rising(c - a, n) * rising(c - b, n)
                  / (rising(c, n) * rising(c - a - b, n)))
        assert closed == Fraction(-1, 64)
        assert hyp3f2((-n, a, b), (c, 1 + a + b - c - n), n + 1) == closed

    def test_terms_past_a_vanishing_numerator_add_nothing(self):
        # the numerator -1 ends the series after two terms, before the -4 would
        value = hyp3f2((-4, -1, 2), (3, 5), 2)
        assert value == 1 + Fraction(-4 * -1 * 2, 3 * 5)
        assert hyp3f2((-4, -1, 2), (3, 5), 5) == value

    def test_denominator_pole_raises(self):
        with pytest.raises(ValueError, match="denominator Pochhammer vanishes"):
            hyp3f2((-3, 5, 7), (1, -1), 4)

    @given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=12),
                    min_size=5, max_size=5),
           st.integers(min_value=0, max_value=6))
    def test_term_by_term_sum(self, params, n_terms):
        # any rational parameters, against the sum of the terms themselves
        a, b = params[:3], params[3:]
        if any(rising(x, n_terms - 1) == 0 for x in b):
            with pytest.raises(ValueError):
                hyp3f2(a, b, n_terms)
            return
        expected = sum(math.prod(rising(x, p) for x in a)
                       / (math.prod(rising(x, p) for x in b) * math.factorial(p))
                       for p in range(n_terms))
        assert hyp3f2(a, b, n_terms) == expected

    def test_bailey_transformation(self):
        # left and right sides of the two-term 3F2(1) relation, exactly equal
        # at doubles, which are exact rationals
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 200:
            big_n = int(rng.integers(0, 7))
            s, sp, tp, t = rng.uniform(-3.0, 3.0, size=4)
            if any(abs(v + i) < 0.2 for i in range(max(big_n, 1))
                   for v in (t, tp, 1.0 - big_n - t, t + s)):
                continue
            checked += 1
            s, sp, tp, t = map(Fraction, (s, sp, tp, t))
            lhs = hyp3f2((s, sp, -big_n), (tp, 1 - big_n - t), big_n + 1)
            rhs = (rising(t + s, big_n) / rising(t, big_n)
                   * hyp3f2((s, tp - sp, -big_n), (tp, t + s), big_n + 1))
            assert lhs == rhs
