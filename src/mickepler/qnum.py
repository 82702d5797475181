"""Quantum-number bookkeeping and derived constants.

Half-integer quantum numbers are stored as doubled integers (two_s,
two_m, two_j, two_n) so that parity checks and label ranges are exact.
All floating-point constants (delta shifts, effective azimuthal indices,
energies) derive from a :class:`SystemParams` and a doubled azimuthal
number through :func:`derive_constants`.  They depend on (params, two_m)
alone, so they are computed once per (params, two_m) and shared: every
state, band and energy of a block reads one :class:`DerivedConstants`, held
in a least-recently-used memo of 256 entries, enough for every m block of a
run up to block dimension d = 127, and bounded so that a scan over many
ring strengths cannot grow it without end.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "QuantumNumberError",
    "SystemParams",
    "DerivedConstants",
    "SphericalQN",
    "ParabolicQN",
    "derive_constants",
    "parabolic_qn",
    "energy",
    "parabolic_separation_constant",
    "enumerate_m_blocks",
    "enumerate_blocks",
    "parse_half_integer",
    "format_half_integer",
]


class QuantumNumberError(ValueError):
    """Raised for invalid or mutually inconsistent quantum numbers."""


@dataclass(frozen=True)
class SystemParams:
    """Monopole number (doubled) and the two ring-potential strengths."""

    two_s: int
    c1: float = 0.0
    c2: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.c1) and math.isfinite(self.c2)):
            raise ValueError(
                f"perturbation strengths c1, c2 must be finite, got c1={self.c1}, c2={self.c2}"
            )
        if self.c1 < 0.0 or self.c2 < 0.0:
            raise ValueError("perturbation strengths c1, c2 must be nonnegative")
        object.__setattr__(self, "c1", self.c1 + 0.0)   # -0.0 + 0.0 is +0.0: no "-0" out
        object.__setattr__(self, "c2", self.c2 + 0.0)


@dataclass(frozen=True)
class DerivedConstants:
    """Per-(m, s, c1, c2) constants entering every wavefunction formula.

    m1 and m2 are the effective azimuthal indices attached to the two
    half-angle (or xi/eta) factors; delta1 and delta2 are their shifts
    relative to |m - s| and |m + s|; delta_total is delta1 + delta2, and
    m_plus and m_minus are the halves of two_m_plus and two_m_minus.
    """

    two_m: int
    two_m_plus: int
    two_m_minus: int
    delta1: float
    delta2: float
    m1: float
    m2: float
    m_plus: float
    m_minus: float
    delta_total: float


@dataclass(frozen=True)
class SphericalQN:
    """Labels (n, j, m) of a spherical bound state, stored doubled."""

    two_n: int
    two_j: int
    two_m: int


@dataclass(frozen=True)
class ParabolicQN:
    """Labels (n1, n2, m) of a parabolic bound state."""

    n1: int
    n2: int
    two_m: int


def _check_parity(two_s: int, two_m: int) -> None:
    if (two_m - two_s) % 2 != 0:
        raise QuantumNumberError(
            f"m and s must share half-integrality: two_m={two_m}, two_s={two_s}"
        )


# every m block of a run up to d = 127 (n_max = 127 at s = 0: 253 of them)
_CONSTANTS_MEMO_SIZE = 256


def derive_constants(params: SystemParams, two_m: int) -> DerivedConstants:
    """Compute delta1, delta2, m1, m2 and the m± combinations.

    The shifts are evaluated as 4c / (sqrt((m∓s)^2 + 4c) + |m∓s|) when
    |m∓s| > 0, which avoids the cancellation of sqrt(x^2 + eps) - x for
    small c.  Raises ValueError naming c1 and c2 if m1 or m2 overflows.

    The constants are computed once per (params, two_m) and shared: a call
    returns the object of an earlier call with equal labels of the same
    types (an int label and an equal float one never share it) while that
    pair is among the 256 most recently used.  The bound holds every m block
    of a run up to d = 127 (253 at s = 0) and keeps a scan over many ring
    strengths from growing the memo without end.  An error is raised anew
    on every call; nothing of it is kept.
    """
    return _derive_constants(params.two_s, params.c1, params.c2, two_m)


@functools.lru_cache(maxsize=_CONSTANTS_MEMO_SIZE, typed=True)
def _derive_constants(two_s: int, c1: float, c2: float, two_m: int) -> DerivedConstants:
    """:func:`derive_constants` of SystemParams(two_s, c1, c2), memoized on typed values."""
    _check_parity(two_s, two_m)
    two_sum = abs(two_m + two_s)
    two_dif = abs(two_m - two_s)
    abs_m_minus_s = two_dif / 2.0
    abs_m_plus_s = two_sum / 2.0

    m1 = math.sqrt(abs_m_minus_s**2 + 4.0 * c1)
    m2 = math.sqrt(abs_m_plus_s**2 + 4.0 * c2)
    if not math.isfinite(m1 + m2):
        raise ValueError(f"c1={c1:g}, c2={c2:g} are too large: m1 and m2 of "
                         f"the m={format_half_integer(two_m)} block overflow")
    delta1 = 4.0 * c1 / (m1 + abs_m_minus_s) if m1 + abs_m_minus_s > 0.0 else 0.0
    delta2 = 4.0 * c2 / (m2 + abs_m_plus_s) if m2 + abs_m_plus_s > 0.0 else 0.0

    two_m_plus = (two_sum + two_dif) // 2
    two_m_minus = (two_sum - two_dif) // 2
    return DerivedConstants(
        two_m=two_m,
        two_m_plus=two_m_plus,
        two_m_minus=two_m_minus,
        delta1=delta1,
        delta2=delta2,
        m1=m1,
        m2=m2,
        m_plus=two_m_plus / 2.0,
        m_minus=two_m_minus / 2.0,
        delta_total=delta1 + delta2,
    )


def _block_dimension(dc: DerivedConstants, two_n: int) -> int:
    """Degeneracy d = n - m_plus of the (n, m) level; validates the labels."""
    gap = two_n - dc.two_m_plus
    if gap < 2 or gap % 2 != 0:
        raise QuantumNumberError(
            f"no bound states with two_n={two_n} in the two_m={dc.two_m} block "
            f"(need n - m_plus a positive integer, m_plus={dc.m_plus})"
        )
    return gap // 2


def _spherical_qn(dc: DerivedConstants, two_n: int, two_j: int) -> SphericalQN:
    """Validated spherical labels: j >= m_plus, integer steps, n > j."""
    if two_j < dc.two_m_plus or (two_j - dc.two_m_plus) % 2 != 0:
        raise QuantumNumberError(
            f"two_j={two_j} must exceed two_m_plus={dc.two_m_plus} by an even amount"
        )
    if two_n - two_j < 2 or (two_n - two_j) % 2 != 0:
        raise QuantumNumberError(
            f"radial quantum number n - j - 1 must be a nonnegative integer: "
            f"two_n={two_n}, two_j={two_j}"
        )
    return SphericalQN(two_n=two_n, two_j=two_j, two_m=dc.two_m)


def parabolic_qn(params: SystemParams, n1: int, n2: int, two_m: int) -> ParabolicQN:
    """Validated parabolic labels; n1, n2 nonnegative integers."""
    _check_parity(params.two_s, two_m)
    if n1 < 0 or n2 < 0:
        raise QuantumNumberError(f"n1, n2 must be nonnegative, got ({n1}, {n2})")
    return ParabolicQN(n1=n1, n2=n2, two_m=two_m)


def _principal_two_n(dc: DerivedConstants, pq: ParabolicQN) -> int:
    """Doubled principal quantum number n = n1 + n2 + m_plus + 1."""
    return 2 * (pq.n1 + pq.n2 + 1) + dc.two_m_plus


def _n_effective(dc: DerivedConstants, two_n: int) -> float:
    """Effective principal number n + (delta1+delta2)/2 = 1/epsilon; validates the labels."""
    _block_dimension(dc, two_n)
    return two_n / 2.0 + dc.delta_total / 2.0


def energy(params: SystemParams, two_m: int, two_n: int) -> float:
    """Bound-state energy -1/(2 (n + (delta1+delta2)/2)^2).

    Note the m-dependence through delta1, delta2: each azimuthal block
    carries its own energy ladder.
    """
    return _energy(derive_constants(params, two_m), two_n)


def _energy(dc: DerivedConstants, two_n: int) -> float:
    """:func:`energy` from precomputed block constants."""
    eps = 1.0 / _n_effective(dc, two_n)
    return -0.5 * eps * eps


def parabolic_separation_constant(params: SystemParams, pq: ParabolicQN) -> float:
    """Eigenvalue beta = epsilon (n1 - n2 + (m1 - m2)/2) of the axial integral.

    Label-based; ``verify`` builds a block's betas, the diagonal of its
    parabolic-side reference bands, with the same formula."""
    dc = derive_constants(params, pq.two_m)
    eps = 1.0 / _n_effective(dc, _principal_two_n(dc, pq))
    return _separation_constant(dc, eps, pq.n1, pq.n2)


def _separation_constant(dc: DerivedConstants, eps: float, n1: int, n2: int) -> float:
    """beta of the state (n1, n2) for precomputed block constants and epsilon."""
    return eps * (n1 - n2 + 0.5 * (dc.m1 - dc.m2))


def enumerate_m_blocks(params: SystemParams, two_n: int) -> list[int]:
    """All two_m values whose (n, m) block is nonempty, ascending: it holds n - m_plus
    states, m_plus = max(|m|, |s|): every |m| <= n - 1 once n - |s| is a positive integer."""
    if two_n - abs(params.two_s) < 2 or (two_n - params.two_s) % 2 != 0:
        return []
    return list(range(2 - two_n, two_n - 1, 2))


def _two_n_max(params: SystemParams, n_max: float) -> int:
    """2n of the highest level n <= n_max of the parity of s (it may hold no block);
    QuantumNumberError unless n_max is finite."""
    if not math.isfinite(n_max):
        raise QuantumNumberError(f"n_max must be finite, got {n_max:g}")
    two_n_max = int(2 * n_max)
    return two_n_max - (two_n_max - params.two_s) % 2


def enumerate_blocks(params: SystemParams, n_max: float) -> list[tuple[int, int]]:
    """Every nonempty (two_n, two_m) block with n <= n_max, by n, then m.

    Raises QuantumNumberError when there is none, so that a table or a
    verification over no block cannot report success on nothing, and
    when n_max is not finite.
    """
    blocks = [(two_n, two_m)
              for two_n in range(params.two_s % 2 or 2, _two_n_max(params, n_max) + 1, 2)
              for two_m in enumerate_m_blocks(params, two_n)]
    if not blocks:
        raise QuantumNumberError(
            f"no (n, m) block has n <= n_max={n_max:g} "
            f"at s={format_half_integer(params.two_s)}"
        )
    return blocks


def parse_half_integer(text: str) -> int:
    """Parse '3/2', '-1/2', '2', '0.5' etc. into a doubled integer.

    Raises ValueError for any other text, including a zero denominator
    and a value beyond the float range, where every formula of a label
    would overflow.
    """
    text_ = text.strip()
    digits = text_[1:] if text_[:1] in ("+", "-") else text_
    try:
        # an optionally signed run of ASCII digits needs no Fraction
        doubled = (int(text_) if digits.isascii() and digits.isdigit()
                   else Fraction(text_)) * 2
        float(doubled)  # OverflowError beyond the float range
    except (ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"{text!r} is not a finite number") from exc
    if doubled.denominator != 1:
        raise ValueError(f"{text!r} is not an integer or half-integer")
    return int(doubled)


def format_half_integer(two_x: int) -> str:
    """Render a doubled integer as '2' or '3/2'."""
    if two_x % 2 == 0:
        return str(two_x // 2)
    return f"{two_x}/2"
