"""Terminating hypergeometric sums that scipy does not provide.

Two term-by-term sums remain here: the confluent F(-n; c; x) and the
3F2 at unit argument.  Both serve as oracles: the 3F2 sum evaluates the
closed-form interbasis and Clebsch-Gordan coefficients and the Bailey
transformation check, and the confluent sum backs the verify kernel
self-check.  Everything else comes from the standard library and scipy:
log-gamma from :func:`math.lgamma`, and Pochhammer symbols, Jacobi and
Laguerre polynomials from :mod:`scipy.special`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "kummer_terminating",
    "hyp3f2_unit_scaled",
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

