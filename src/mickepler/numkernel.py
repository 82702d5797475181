"""Exact oracles: Laguerre and Jacobi polynomials, a terminating 3F2 sum
and the paper's interbasis coefficients built on it.  Not public API or
production code: only :mod:`mickepler.verify` and the tests import it.

Each runs in Python integers, doubles taken as exact dyadic rationals
over one power of two.  The two polynomials are the references of the
production wavefunction kernels.  The 3F2 sum at unit argument backs the
Bailey check and :func:`clebsch_gordan_block`, the parabolic-spherical
coefficients as SU(2) Clebsch-Gordan coefficients continued to real
arguments, exact at every block dimension and rounded once; production
takes them from :func:`mickepler.interbasis.expansion_matrix`.
"""

from __future__ import annotations

import math

import numpy as np

from .qnum import DerivedConstants, _block_dimension

__all__ = [
    "laguerre_exact",
    "jacobi_exact",
    "hyp3f2_terminating",
    "clebsch_gordan_block",
]


def _over_power_of_two(*values: float) -> tuple[list[int], int]:
    """Doubles, which are exact dyadic rationals, as numerators over one power of two."""
    ratios = [float(v).as_integer_ratio() for v in values]
    q = max(den for _, den in ratios)
    return [num * (q // den) for num, den in ratios], q


def laguerre_exact(n: int, alpha: float, t: float) -> tuple[int, int]:
    """Exact L_n^(alpha)(t) at doubles, a pair (numerator, positive denominator): with
    alpha = A/Q and t = T/Q over one power of two Q, L_k = N_k / (k! Q^k) and the
    three-term recurrence is N_(k+1) = ((2k + 1) Q + A - T) N_k - k Q (k Q + A) N_(k-1)."""
    (a, t_num), q = _over_power_of_two(alpha, t)
    prev, cur = 0, 1
    for k in range(n):
        prev, cur = cur, ((2 * k + 1) * q + a - t_num) * cur - k * q * (k * q + a) * prev
    return cur, math.factorial(n) * q**n


def jacobi_exact(k: int, a: float, b: float, x: float) -> tuple[int, int]:
    """Exact P_k^(a,b)(x) at doubles, a, b > -1, a pair (numerator, positive denominator):
    the recurrence c_i P_(i+1) = d_i P_i - e_i P_(i-1) (Abramowitz and Stegun 22.7.1) on
    P_i = N_i / D_i, D_(i+1) = Q^4 c_i D_i, is N_(i+1) = Q^4 d_i N_i - Q^4 e_i (D_i / D_(i-1))
    N_(i-1) in integers, with a, b and x over one power of two Q."""
    (a, b, x), q = _over_power_of_two(a, b, x)
    # P_1 = ((a - b) + (a + b + 2) x) / 2, over D_1 = 2 Q^2
    prev, cur = 1, (a - b) * q + (a + b + 2 * q) * x
    den = g = 2 * q * q
    for i in range(1, k):
        s = 2 * i * q + a + b   # (2i + a + b) Q
        top = (s + q) * ((s + 2 * q) * s * x + (a * a - b * b) * q)
        prev, cur = cur, top * cur - 2 * (i * q + a) * (i * q + b) * (s + 2 * q) * q * g * prev
        g = 2 * (i + 1) * ((i + 1) * q + a + b) * s * q * q
        den *= g
    return (cur, den) if k else (1, 1)


def hyp3f2_terminating(a, b, n_terms: int) -> tuple[int, int]:
    """Exact sum over p < n_terms of (a1)_p (a2)_p (a3)_p / ((b1)_p (b2)_p p!).

    This is 3F2(a1, a2, a3; b1, b2; 1) when a numerator parameter is
    -(n_terms - 1); the caller passes the number of terms.  The three
    numerator parameters ``a`` and the two denominator parameters ``b``
    are exact rationals, each an integer pair (numerator, denominator)
    with a positive denominator.  Horner's rule runs in integers and
    returns the sum as a pair (numerator, denominator), the denominator
    positive and the pair not reduced.  Raises ValueError if a
    denominator Pochhammer symbol vanishes within the sum.
    """
    (a1, r1), (a2, r2), (a3, r3) = a
    (b1, s1), (b2, s2) = b
    # the parameters' denominators, cancelled once: a factor of every term ratio
    common = math.gcd(r1 * r2 * r3, s1 * s2)
    scale_top, scale_bottom = s1 * s2 // common, r1 * r2 * r3 // common
    u, v = int(n_terms > 0), 1
    for p in range(n_terms - 2, -1, -1):
        bottom = (b1 + p * s1) * (b2 + p * s2) * (p + 1) * scale_bottom
        if bottom == 0:
            raise ValueError(
                "denominator Pochhammer vanishes before the series terminates: "
                f"3F2 with denominator parameters {b}")
        top = (a1 + p * r1) * (a2 + p * r2) * (a3 + p * r3) * scale_top
        v *= bottom
        u = v + top * u
    return (u, v) if v > 0 else (-u, -v)


def _rising(x: int, q: int, length: int) -> list[int]:
    """Numerators over q**i of the Pochhammer symbols (x/q)_i, i = 0 .. length."""
    out = [1]
    for i in range(length):
        out.append(out[-1] * (x + i * q))
    return out


def clebsch_gordan_block(dc: DerivedConstants, two_n: int) -> np.ndarray:
    """The d x d coefficients W[j, n1] of the (n, m) block from the
    continued Clebsch-Gordan closed form, each the square root of its
    exact square rounded once; rows spherical j, columns parabolic n1.

    W[j, n1] = (-1)^n1 C(a alpha; b beta | c gamma), Racah's SU(2)
    closed form at a = (n + m_minus + delta2 - 1)/2, alpha = (m2 + n2 -
    n1)/2, b = (n - m_minus + delta1 - 1)/2, beta = (m1 + n1 - n2)/2,
    c = j + delta/2, gamma = (m1 + m2)/2.  There its twelve gamma
    functions pair into Pochhammer symbols of integer length.  With
    mu = |m - s|, nu = |m + s|, k = j - m_plus and n2 = d - 1 - n1:

        W^2 = (2j + delta + 1) (mu + k + delta1 + 1)_n1
              (mu + n1 + delta1 + 1)_k (nu + k + delta2 + 1)_(n2 - k)
              ((d - 1)!)^2 S^2 / [(mu + nu + k + delta + 1)_d n1! k!
              (d - k - 1)! n2!],

    with (x)_(-i) = 1 / (x - i)_i, sign W = sign S, and S the 3F2 sum
    (-(mu + nu + d + k + delta), -n1, -k; -(d - 1), -(mu + k + n1 +
    delta1); 1) of min(n1, k) + 1 terms.  The two (-1)^n1 phases cancel.
    """
    d = _block_dimension(dc, two_n)
    mu = (dc.two_m_plus - dc.two_m_minus) // 2
    nu = (dc.two_m_plus + dc.two_m_minus) // 2
    # delta1 = p1/q, delta2 = p2/q and delta = p/q over one power of two q
    (p1, p2), q = _over_power_of_two(dc.delta1, dc.delta2)
    p = p1 + p2
    # every Pochhammer symbol of W^2 as its numerator over q**length;
    # the powers of q cancel between the numerator and the denominator
    fact = [math.factorial(i) for i in range(d)]
    ring1 = [_rising((mu + i + 1) * q + p1, q, d - 1) for i in range(d)]
    ring2 = _rising((nu + 1) * q + p2, q, d - 1)
    # the factors of row k, then those of column n1 and of both
    top_row = [((mu + nu + 2 * k + 1) * q + p) * fact[d - 1] ** 2 for k in range(d)]
    bottom_row = [_rising((mu + nu + k + 1) * q + p, q, d)[d] * ring2[k] * fact[k]
                  * fact[d - 1 - k] for k in range(d)]
    w = np.empty((d, d))
    for k in range(d):
        for n1 in range(d):
            n2 = d - 1 - n1
            u, v = hyp3f2_terminating(((-(mu + nu + d + k) * q - p, q), (-n1, 1), (-k, 1)),
                                      ((1 - d, 1), (-(mu + k + n1) * q - p1, q)),
                                      min(n1, k) + 1)
            root = math.sqrt(top_row[k] * ring2[n2] * ring1[k][n1] * ring1[n1][k] * u * u
                             / (bottom_row[k] * fact[n1] * fact[n2] * v * v))
            w[k, n1] = -root if u < 0 else root
    return w
