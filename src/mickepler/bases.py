"""Normalized spherical and parabolic bound-state wavefunctions.

Each full wavefunction is a real (r, theta) or (xi, eta) profile times
the azimuthal phase exp(i (m - s) phi); m - s is always an integer.  The
real profiles are exposed separately because every interbasis check
compares real amplitudes.

A Laguerre kernel gives the radial function and both parabolic factors, a
Jacobi kernel the angular profile, each as one exp of (log constant + log
envelope) times a scipy polynomial: large gamma ratios never meet small powers
in linear arithmetic.  Each state stores the log constant its kernel multiplies.
For a Laguerre factor that is the normalization of t^p e^(-t/2) L_n^(c-1)(t); the
paper's constant of t^p e^(-t/2) F(-n; c; t), such as C_nj, is it times
Gamma(c + n) / (n! Gamma(c)).

Each evaluating function takes one state or a list of states, of any levels
and m: a list's labels, eps and the winding m - s among them, are stacked on
a leading axis, row k bit for bit the call with state k alone.  The coordinates
of a list call (r, theta and phi; xi, eta and phi; or the one coordinate of a
single factor) must broadcast to one shape that is a scalar's or whose first
axis is 1 or the number of states; row k is then taken at the broadcast
points [k] (or [0]), or at the scalar point.  Any other shape is refused with a
ValueError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre, eval_jacobi, xlogy

from .qnum import (
    DerivedConstants,
    ParabolicQN,
    SphericalQN,
    SystemParams,
    _n_effective,
    _principal_two_n,
    _spherical_qn,
    derive_constants,
    parabolic_qn,
)

__all__ = [
    "SphericalState",
    "ParabolicState",
    "spherical_state",
    "parabolic_state",
    "angular_profile",
    "radial_r",
    "psi_spherical",
    "psi_parabolic",
    "parabolic_factor",
    "parabolic_profile",
]

_LOG_4PI = math.log(4.0 * math.pi)


@dataclass(frozen=True)
class SphericalState:
    qn: SphericalQN
    dc: DerivedConstants
    two_s: int
    eps: float
    log_norm_angular: float   # log N_jm
    # log normalization of t^p e^(-t/2) L_n_r^(2j+delta+1)(t), with the 2 eps^2 prefactor
    log_norm_radial: float


@dataclass(frozen=True)
class ParabolicState:
    qn: ParabolicQN
    dc: DerivedConstants
    two_s: int
    eps: float
    # log normalizations of the 1D factors t^(m_i/2) e^(-t/2) L_n_i^(m_i)(t)
    log_norms: tuple[float, float]


def spherical_state(params: SystemParams, two_n: int, two_j: int, two_m: int
                    ) -> SphericalState:
    dc = derive_constants(params, two_m)
    qn = _spherical_qn(dc, two_n, two_j)
    eps = 1.0 / _n_effective(dc, two_n)
    j = two_j / 2.0
    n = two_n / 2.0
    delta = dc.delta_total
    k = (two_j - dc.two_m_plus) // 2          # Jacobi degree j - m_plus
    n_r = (two_n - two_j - 2) // 2            # radial quantum number n - j - 1

    log_norm_ang = 0.5 * (
        math.log(2.0 * j + delta + 1.0)
        + math.lgamma(k + 1.0)
        + math.lgamma(j + dc.m_plus + delta + 1.0)
        - _LOG_4PI
        - math.lgamma(j - dc.m_minus + dc.delta1 + 1.0)
        - math.lgamma(j + dc.m_minus + dc.delta2 + 1.0)
    )
    log_norm_rad = (math.log(2.0 * eps * eps)
                    + 0.5 * (math.lgamma(n_r + 1.0) - math.lgamma(n + j + delta + 1.0)))
    return SphericalState(
        qn=qn,
        dc=dc,
        two_s=params.two_s,
        eps=eps,
        log_norm_angular=log_norm_ang,
        log_norm_radial=log_norm_rad,
    )


def parabolic_state(params: SystemParams, n1: int, n2: int, two_m: int
                    ) -> ParabolicState:
    qn = parabolic_qn(params, n1, n2, two_m)
    dc = derive_constants(params, two_m)
    eps = 1.0 / _n_effective(dc, _principal_two_n(dc, qn))
    log_norms = (0.5 * (math.lgamma(n1 + 1.0) - math.lgamma(n1 + dc.m1 + 1.0)),
                 0.5 * (math.lgamma(n2 + 1.0) - math.lgamma(n2 + dc.m2 + 1.0)))
    return ParabolicState(qn=qn, dc=dc, two_s=params.two_s, eps=eps, log_norms=log_norms)


def _angular(k, m1, m2, log_norm, theta):
    """exp(log_norm) cos^m1(theta/2) sin^m2(theta/2) P_k^(m2,m1)(cos theta); labels
    broadcast against theta, all-scalar input gives a float."""
    x = np.cos(theta)
    # scipy's Jacobi recurrence loses digits near x = -1; the reflection
    # P_k^(a,b)(x) = (-1)^k P_k^(b,a)(-x) keeps its argument in [0, 1]
    flip = x < 0.0
    poly = eval_jacobi(k, np.where(flip, m1, m2), np.where(flip, m2, m1), np.abs(x))
    # the half-angle powers in logs; xlogy gives 0 log 0 = 0 for a zero power
    half = 0.5 * theta
    value = (np.exp(xlogy(m1, np.cos(half)) + xlogy(m2, np.sin(half)) + log_norm)
             * np.where(flip & (k % 2 == 1), -poly, poly))
    return value if value.ndim else float(value)


def _labels(labels, state, coords, *args):
    """labels(state, *args), or for a list of states each label as an array (of
    integers for an integer label) on a leading axis against the first axis of the
    broadcast shape of the call's coordinates ``coords``; an empty list, and
    coordinates that break the module's contract, are refused."""
    if not isinstance(state, list):
        return labels(state, *args)
    if not state:
        raise ValueError("a list of states needs at least one state")
    try:
        shape = np.broadcast(*coords).shape
    except ValueError:
        shape = None
    if shape is None or shape[:1] not in ((), (1,), (len(state),)):
        raise ValueError(f"a list of {len(state)} states needs coordinates that broadcast "
                         f"to a scalar or to a shape whose first axis is 1 or {len(state)}, "
                         f"got shapes {', '.join(str(np.shape(c)) for c in coords)}")
    lead = (-1,) + (1,) * (len(shape) - 1)
    return [np.array(col).reshape(lead) for col in zip(*[labels(st, *args) for st in state])]


def _angular_labels(state: SphericalState) -> tuple:
    """Labels of _angular for the angular profile of a state."""
    dc = state.dc
    return (state.qn.two_j - dc.two_m_plus) // 2, dc.m1, dc.m2, state.log_norm_angular


def _check_domain(name: str, what: str, x: np.ndarray, upper: float = sys.float_info.max
                  ) -> None:
    """Refuse a coordinate outside [0, upper], by default a negative or non-finite one;
    -0.0 is the origin and an empty array has none.  NaN propagates through min and
    max, so their two reductions over all axes see it too."""
    if not (np.minimum.reduce(x, axis=None, initial=0.0) >= 0.0
            and np.maximum.reduce(x, axis=None, initial=0.0) <= upper):
        raise ValueError(f"{name} needs {what}, got {x[~((x >= 0.0) & (x <= upper))][0]}")


def angular_profile(state: SphericalState | list[SphericalState], theta):
    """Real angular factor: the full Z without the azimuthal phase; raises ValueError
    for a polar angle outside [0, pi]."""
    theta = np.asarray(theta, dtype=float)
    _check_domain("angular_profile", "polar angles in [0, pi]", theta, math.pi)
    return _angular(*_labels(_angular_labels, state, (theta,)), theta)


def _laguerre_factor(n, c, power, log_const, scale, x):
    """exp(log_const) t^power e^(-t/2) L_n^(c-1)(t), t = scale x, with log_const a state's
    stored log norm: the radial function and each parabolic factor; labels broadcast
    against x, all-scalar input gives a float."""
    t = scale * x
    value = np.exp(xlogy(power, t) - 0.5 * t + log_const) * eval_genlaguerre(n, c - 1.0, t)
    return value if value.ndim else float(value)


def _radial_labels(state: SphericalState) -> tuple:
    """Labels of _laguerre_factor for the radial function, t = 2 eps r."""
    j, delta = state.qn.two_j / 2.0, state.dc.delta_total
    n_r = (state.qn.two_n - state.qn.two_j - 2) // 2
    return n_r, 2.0 * j + delta + 2.0, j + 0.5 * delta, state.log_norm_radial, 2.0 * state.eps


def radial_r(state: SphericalState | list[SphericalState], r):
    """Normalized radial function, an array if r is; raises ValueError for a
    negative or non-finite r."""
    r = np.asarray(r, dtype=float)
    _check_domain("radial_r", "finite nonnegative coordinates", r)
    return _laguerre_factor(*_labels(_radial_labels, state, (r,)), r)


def _winding(state) -> int:
    """The integer m - s of the azimuthal phase exp(i (m - s) phi)."""
    return (state.qn.two_m - state.two_s) // 2


def psi_spherical(state: SphericalState | list[SphericalState], point) -> complex:
    """Full spherical wavefunction at a SphericalPoint."""
    r = np.asarray(point.r, dtype=float)
    theta = np.asarray(point.theta, dtype=float)
    _check_domain("radial_r", "finite nonnegative coordinates", r)
    _check_domain("angular_profile", "polar angles in [0, pi]", theta, math.pi)
    labels = _labels(lambda st: (*_radial_labels(st), *_angular_labels(st), _winding(st)),
                     state, (r, theta, point.phi))
    profile = _laguerre_factor(*labels[:5], r) * _angular(*labels[5:9], theta)
    return profile * np.exp(1j * labels[9] * point.phi)


def _parabolic_labels(state: ParabolicState, axis: int) -> tuple:
    """Labels of _laguerre_factor for one parabolic factor, t = eps x."""
    n_i = state.qn.n2 if axis else state.qn.n1
    m_i = state.dc.m2 if axis else state.dc.m1
    return n_i, m_i + 1.0, 0.5 * m_i, state.log_norms[axis], state.eps


def parabolic_factor(state: ParabolicState | list[ParabolicState], axis: int, x):
    """One 1D factor of the parabolic profile (axis 0: xi, 1: eta); raises ValueError
    for a negative or non-finite x."""
    x = np.asarray(x, dtype=float)
    _check_domain("parabolic_factor", "finite nonnegative coordinates", x)
    return _laguerre_factor(*_labels(_parabolic_labels, state, (x,), axis), x)


def _profile_labels(state: ParabolicState) -> tuple:
    """The prefactor sqrt(2) eps^2, then the labels of both parabolic factors."""
    return (math.sqrt(2.0) * state.eps**2, *_parabolic_labels(state, 0),
            *_parabolic_labels(state, 1))


def _parabolic_coords(xi, eta) -> tuple[np.ndarray, np.ndarray]:
    """xi and eta as arrays; raises ValueError for a negative or non-finite one."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    _check_domain("parabolic_factor", "finite nonnegative coordinates", xi)
    _check_domain("parabolic_factor", "finite nonnegative coordinates", eta)
    return xi, eta


def _profile(labels, xi: np.ndarray, eta: np.ndarray):
    """The parabolic profile from the labels of :func:`_profile_labels`; a float
    for scalar xi and eta, since each factor is."""
    return labels[0] * _laguerre_factor(*labels[1:6], xi) * _laguerre_factor(*labels[6:11], eta)


def parabolic_profile(state: ParabolicState | list[ParabolicState], xi, eta):
    """Real profile sqrt(2) eps^2 Phi1(xi) Phi2(eta)."""
    xi, eta = _parabolic_coords(xi, eta)
    return _profile(_labels(_profile_labels, state, (xi, eta)), xi, eta)


def psi_parabolic(state: ParabolicState | list[ParabolicState], point) -> complex:
    """Full parabolic wavefunction at a ParabolicPoint."""
    xi, eta = _parabolic_coords(point.xi, point.eta)
    labels = _labels(lambda st: (*_profile_labels(st), _winding(st)), state,
                     (xi, eta, point.phi))
    return (_profile(labels, xi, eta) * np.exp(1j * labels[11] * point.phi)
            / math.sqrt(2.0 * math.pi))
