"""Closed-form oracles: terminating hypergeometric sums and the
closed-form interbasis coefficients built on them.

None of this is public API or production code: only
:mod:`mickepler.verify` and the tests import it.  The confluent sum
F(-n; c; x) backs a verify kernel self-check.  The 3F2 sum at unit
argument backs the Bailey check and the two closed forms of the
parabolic-spherical coefficients, :func:`expansion_coefficient` (3F2)
and :func:`expansion_coefficient_cg` (SU(2) Clebsch-Gordan continued to
real arguments).  Their alternating sums lose digits as the block grows,
so they are trusted only to about d <= 12.  The production coefficients
are the eigenvectors of :func:`mickepler.interbasis.expansion_matrix`;
log-gamma, Pochhammer symbols, Jacobi and Laguerre polynomials come from
:mod:`math` and :mod:`scipy.special`.
"""

from __future__ import annotations

import math

import numpy as np

from .qnum import (
    DerivedConstants,
    QuantumNumberError,
    SystemParams,
    _block_dimension,
    _spherical_qn,
    derive_constants,
)

__all__ = [
    "kummer_terminating",
    "hyp3f2_unit_scaled",
    "expansion_coefficient",
    "clebsch_gordan_continued",
    "expansion_coefficient_cg",
]


def kummer_terminating(n: int, c: float, x):
    """Terminating confluent hypergeometric sum F(-n; c; x).

    Equals sum_{p=0}^{n} (-n)_p x^p / (p! (c)_p).  Compensated (Kahan)
    summation guards the alternating-sign cancellation.  Accepts scalar
    or ndarray x; requires c > 0.
    """
    if n < 0:
        raise ValueError("kummer_terminating requires n >= 0")
    if not c > 0.0:
        raise ValueError("kummer_terminating requires c > 0")
    x = np.asarray(x, dtype=float)
    total = np.ones_like(x)
    comp = np.zeros_like(x)
    term = np.ones_like(x)
    for p in range(n):
        term = term * ((p - n) / ((c + p) * (p + 1.0))) * x
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total if total.ndim else float(total)


def _terminating_index(a1: float, a2: float, a3: float) -> int:
    """Smallest N with a numerator parameter equal to -N (nonpositive int)."""
    candidates = []
    for a in (a1, a2, a3):
        r = round(a)
        if abs(a - r) < 1e-9 and r <= 0:
            candidates.append(-int(r))
    if not candidates:
        raise ValueError(
            "hyp3f2_unit_scaled requires a nonpositive-integer numerator "
            f"parameter, got {(a1, a2, a3)}"
        )
    return min(candidates)


def hyp3f2_unit_scaled(a1: float, a2: float, a3: float, b1: float, b2: float,
                       log_scale: float = 0.0) -> float:
    """exp(log_scale) * 3F2(a1,a2,a3; b1,b2; 1) for a terminating series.

    One of a1, a2, a3 must be a nonpositive integer -N; the sum runs to
    the smallest such N.  Raises ValueError if a denominator Pochhammer
    vanishes before the series terminates.  Terms are tracked as sign
    plus log-magnitude so that large Pochhammer products combine with an
    external log prefactor before exponentiation; the linear-scale sum
    uses Kahan compensation.
    """
    n_terms = _terminating_index(a1, a2, a3)
    total = 0.0
    comp = 0.0
    sign = 1.0
    log_mag = 0.0
    for p in range(n_terms + 1):
        if sign != 0.0:
            term = sign * math.exp(log_mag + log_scale)
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
        if p == n_terms:
            break
        num = (a1 + p) * (a2 + p) * (a3 + p)
        den = (b1 + p) * (b2 + p) * (1.0 + p)
        if den == 0.0:
            raise ValueError(
                "denominator Pochhammer vanishes before the series terminates: "
                f"3F2({a1},{a2},{a3};{b1},{b2})"
            )
        if num == 0.0:
            sign = 0.0
            continue
        ratio = num / den
        sign *= math.copysign(1.0, ratio)
        log_mag += math.log(abs(ratio))
    return total


def _check_labels(params: SystemParams, two_n: int, two_j: int, n1: int, two_m: int):
    dc = derive_constants(params, two_m)
    d = _block_dimension(dc, two_n)
    _spherical_qn(dc, two_n, two_j)
    if not 0 <= n1 <= d - 1:
        raise QuantumNumberError(f"n1={n1} outside 0 .. {d - 1}")
    return dc, d


def expansion_coefficient(params: SystemParams, two_n: int, two_j: int,
                          n1: int, two_m: int) -> float:
    """Coefficient of the spherical state (n, j, m) in the parabolic
    state (n1, n2, m) of the same level.

    Evaluated from the terminating 3F2 closed form, with all gamma
    prefactors combined in log space before exponentiation.
    """
    dc, d = _check_labels(params, two_n, two_j, n1, two_m)
    n = two_n / 2.0
    j = two_j / 2.0
    n2 = d - 1 - n1
    delta = dc.delta_total
    mp, mm = dc.m_plus, dc.m_minus

    log_pref = 0.5 * (
        math.log(2.0 * j + delta + 1.0)
        + math.lgamma(n1 + dc.m1 + 1.0)
        + math.lgamma(n2 + dc.m2 + 1.0)
        - math.lgamma(n1 + 1.0)
        - math.lgamma(n2 + 1.0)
        - math.lgamma(n - j)
        - math.lgamma(j - mp + 1.0)
        - math.lgamma(j + mm + dc.delta2 + 1.0)
        + math.lgamma(j - mm + dc.delta1 + 1.0)
        + math.lgamma(j + mp + delta + 1.0)
        - math.lgamma(n + j + delta + 1.0)
    ) + math.lgamma(n - mp) - math.lgamma(dc.m1 + 1.0)

    return hyp3f2_unit_scaled(
        -float(n1),
        -(j - mp),
        j + mp + delta + 1.0,
        dc.m1 + 1.0,
        -(n - mp - 1.0),
        log_pref,
    )


# the gamma-function arguments of the Racah form, in the order of ``args`` below
_CG_GAMMA_ARGS = ("a+alpha+1", "c+gamma+1", "a-alpha+1", "c-gamma+1", "a+b+c+2", "a+b-c+1",
                  "a-b+c+1", "b-a+c+1", "b-beta+1", "b+beta+1", "a+b-gamma+1", "b+c-alpha+1")


def clebsch_gordan_continued(a: float, alpha: float, b: float, beta: float,
                             c: float, gamma: float) -> float:
    """SU(2) Clebsch-Gordan closed form continued to real arguments.

    Requires gamma = alpha + beta and a - alpha a nonnegative integer
    (the terminating index of the 3F2 sum), and every gamma-function
    argument of the prefactor positive; a ValueError names the first
    one that is not.  On genuine half-integer SU(2) labels this
    reproduces the tabulated coefficients.
    """
    if abs(gamma - (alpha + beta)) > 1e-12:
        raise ValueError("selection rule gamma = alpha + beta violated")
    k = a - alpha
    if abs(k - round(k)) > 1e-9 or round(k) < 0:
        raise ValueError(f"a - alpha must be a nonnegative integer, got {k}")
    args = (a + alpha + 1.0, c + gamma + 1.0, a - alpha + 1.0, c - gamma + 1.0,
            a + b + c + 2.0, a + b - c + 1.0, a - b + c + 1.0, b - a + c + 1.0,
            b - beta + 1.0, b + beta + 1.0, a + b - gamma + 1.0, b + c - alpha + 1.0)
    for label, x in zip(_CG_GAMMA_ARGS, args):
        if not x > 0.0:
            raise ValueError(f"gamma argument {label} = {x!r} is not positive")
    lg = [math.lgamma(x) for x in args]
    # square root of the first two over the next eight, times the last two
    log_pref = 0.5 * (math.log(2.0 * c + 1.0) + lg[0] + lg[1] - sum(lg[2:10])) + lg[10] + lg[11]
    phase = -1.0 if round(k) % 2 else 1.0
    return phase * hyp3f2_unit_scaled(
        -(a + b + c + 1.0),
        -a + alpha,
        -c + gamma,
        -a - b + gamma,
        -b - c + alpha,
        log_pref,
    )


def expansion_coefficient_cg(params: SystemParams, two_n: int, two_j: int,
                             n1: int, two_m: int) -> float:
    """Same coefficient through the continued Clebsch-Gordan closed form."""
    dc, d = _check_labels(params, two_n, two_j, n1, two_m)
    return _expansion_coefficient_cg(dc, d, two_n, two_j, n1)


def _expansion_coefficient_cg(dc: DerivedConstants, d: int, two_n: int, two_j: int,
                              n1: int) -> float:
    """Unvalidated :func:`expansion_coefficient_cg` for block constants already derived."""
    n = two_n / 2.0
    j = two_j / 2.0
    n2 = d - 1 - n1
    half_delta = 0.5 * dc.delta_total
    a = 0.5 * (n + dc.m_minus + dc.delta2 - 1.0)
    alpha = 0.5 * (dc.m2 + n2 - n1)
    b = 0.5 * (n - dc.m_minus + dc.delta1 - 1.0)
    beta = 0.5 * (dc.m1 + n1 - n2)
    c = j + half_delta
    gamma = 0.5 * (dc.m1 + dc.m2)
    phase = -1.0 if n1 % 2 else 1.0
    return phase * clebsch_gordan_continued(a, alpha, b, beta, c, gamma)
