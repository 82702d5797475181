"""Quadrature engine and the numeric verification suite.

Every identity the library relies on is turned into a check with a
reported residual: quadrature self-tests, the wavefunction kernels
against exact polynomials, Bailey's 3F2 transformation of the oracle's
exact sum, wavefunction normalizations, the radial bi-orthogonality
against its closed form, interbasis overlaps, the production mixing
matrix against the exact Clebsch-Gordan oracle of
:mod:`mickepler.numkernel`, and the spheroidal operator identities.
Checks never raise on failure; they report.

Each integrand of a check is a known weight times a polynomial: radial
ones t^alpha e^-t, alpha the exact fractional power, and angular ones
(1 - x)^m2 (1 + x)^m1 from the half-angle factors.  So there is one
rule family: each integrand gets the memoized Gauss-Laguerre or
Gauss-Jacobi rule of its weight, with the fewest nodes N exact to its
degree, 2N - 1 >= degree (Golub and Welsch, Math. Comp. 23, 221
(1969)), as :func:`_gauss_order` sizes it from the degree derived next
to the rule.  A rule past DEFAULT_RADIAL_ORDER nodes is refused with
ValueError, so blocks up to d = 127 are checked.  The memo keeps the
1024 most recently used rules; a run at n_max = 8 uses up to about 190.

:func:`run_suite` runs the numerics once per block dimension d and the
checks once per block.  The blocks of one d share their shapes and rule
orders, so each numeric family is one stacked call over all of them, with
a leading block axis: the mixing matrices W and the spectra of X (one
eigensolve), one eigensolve of each side of the spheroidal operator over
every R of the list, R = 0 (whose parabolic side is the angular-momentum
matrix M alone) and the limit probes, the radial values of the states on
each block's Gauss-Laguerre rule, the quadratures and the deviations.  Each
block, and each state, is built once per run, the spherical ones through
the memo of :class:`_States`.  The wavefunctions come from
the public :mod:`mickepler.bases` functions, each called with the list of
states a family needs (all blocks of a d, or a chain of levels), one kernel
call per factor.  W comes from production
:func:`mickepler.interbasis._mixing_matrix`, and the spherical side from
production :meth:`~mickepler.interbasis.Block.spherical_bands`.  The
parabolic side, M + R diag(beta), is built only here: production solves the
spherical side alone, and this second, independent eigensolve is the
reference it is checked against.  Each block then gets its own reports from
the stacks.  The checks are private cores that take those prebuilt objects;
:func:`run_suite` is the one entry point to them.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from functools import lru_cache, partial

import numpy as np
from scipy.special import gammaln, roots_genlaguerre, roots_jacobi, xlogy

from .bases import (
    ParabolicState,
    SphericalState,
    _angular,
    _laguerre_factor,
    angular_profile,
    parabolic_factor,
    parabolic_profile,
    parabolic_state,
    psi_parabolic,
    psi_spherical,
    radial_r,
    spherical_state,
)
from .coords import SphericalPoint, spherical_to_parabolic
from .interbasis import Block, _eigh_stack, _fix_signs, _mixing_matrix, block
from .numkernel import (_over_power_of_two, clebsch_gordan_block, hyp3f2_terminating,
                        jacobi_exact, laguerre_exact)
from .qnum import (
    DerivedConstants,
    SystemParams,
    _block_dimension,
    _n_effective,
    _separation_constant,
    _two_n_max,
    derive_constants,
    enumerate_blocks,
    format_half_integer,
)

__all__ = [
    "CheckReport",
    "run_suite",
    "to_json_lines",
    "summary_table",
]

DEFAULT_RADIAL_ORDER = 128   # the largest order a check's rule may have

TOL_QUADRATURE = 1e-12
TOL_ALGEBRA = 1e-10
TOL_QUAD_VS_CLOSED = 1e-8
TOL_OVERLAP = 1e-7
TOL_BASIS_CHANGE = 1e-9
TOL_LIMITS = 1e-5
TOL_LIMIT_SHRINK = 0.101   # outer-decade deviation over inner-decade, 1% slack
# (r_small, r_large) of the inner, then of the outer decade of the limit checks
_LIMIT_PROBES = [1e-6, 1e6, 1e-7, 1e7]
_LINEARITY_PROBES = [0.5, 2.0, 7.0]   # the R at which the bands are held to A + R X
_OVERLAP_D_MAX = 4   # the 2D overlap quadrature is checked on blocks up to this d
_ANGULAR_CHANNELS = 5   # the angular Gram matrix of each m covers j = m_plus .. m_plus + 4


def _gauss_order(degree: int) -> int:
    """Fewest Gauss nodes N exact to a polynomial degree, 2N - 1 >= degree.

    Raises ValueError past DEFAULT_RADIAL_ORDER nodes: a smaller rule would
    report its own quadrature error as a residual of the check.
    """
    order = degree // 2 + 1
    if order > DEFAULT_RADIAL_ORDER:
        raise ValueError(
            f"an integrand of polynomial degree {degree} needs {order} Gauss nodes, "
            f"more than DEFAULT_RADIAL_ORDER = {DEFAULT_RADIAL_ORDER}")
    return order


@lru_cache(maxsize=1024)
def _laguerre(order: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes t of weight t^alpha e^-t, and weights rescaled
    (in log space) so that sum(w * f(t)) approximates the integral of f."""
    t, w = roots_genlaguerre(order, alpha)
    return _rule(t, np.exp(np.log(w) + t - alpha * np.log(t)))


@lru_cache(maxsize=1024)
def _jacobi(order: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes x of weight (1 - x)^alpha (1 + x)^beta, and weights
    divided by that weight, so that sum(w * f(x)) approximates the integral of f."""
    x, w = roots_jacobi(order, alpha, beta)
    return _rule(x, np.exp(np.log(w) - alpha * np.log1p(-x) - beta * np.log1p(x)))


def _rule(nodes: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rule with each non-finite node, left by a weight power that overflows,
    moved to 0 and its weight made NaN: the wavefunctions refuse a NaN coordinate,
    and a check must report, so the checks on such a rule report NaN and fail."""
    bad = ~np.isfinite(nodes)
    return np.where(bad, 0.0, nodes), np.where(bad, np.nan, weights)


@dataclass(frozen=True)
class CheckReport:
    """Residual of one identity check against its tolerance."""

    check_id: str
    context: str
    residual: float
    tolerance: float
    passed: bool


def _report(check_id: str, context: str, residual: float, tolerance: float) -> CheckReport:
    residual = abs(float(residual))
    return CheckReport(check_id=check_id, context=context, residual=residual,
                       tolerance=tolerance, passed=residual <= tolerance)


def to_json_lines(reports) -> str:
    return "\n".join(json.dumps(asdict(r)) for r in reports)


def summary_table(reports) -> str:
    lines = []
    for r in reports:
        flag = "PASS" if r.passed else "FAIL"
        lines.append(f"{flag}  {r.check_id:<36} {r.context:<44} "
                     f"residual={r.residual:.3e} tol={r.tolerance:.0e}")
    n_pass = sum(r.passed for r in reports)
    lines.append(f"checks: {len(reports)}  passed: {n_pass}  failed: {len(reports) - n_pass}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# parameter-independent checks
# ---------------------------------------------------------------------------

def _check_quadrature_selftest() -> list[CheckReport]:
    reports = []
    nodes, weights = _jacobi(64, 0.0, 0.0)   # the Gauss-Legendre rule
    worst = 0.0
    for k in range(128):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        approx = float(np.sum(weights * nodes**k))
        worst = max(worst, abs(approx - exact) / max(abs(exact), 1.0))
    reports.append(_report("quad.legendre.monomials", "order=64 k<=127", worst,
                           TOL_QUADRATURE))

    nodes, weights = _laguerre(64, 0.0)
    log_t = np.log(nodes)
    log_w = np.log(weights) - nodes   # undo the rule's e^t rescaling
    worst = 0.0
    for k in range(128):
        a = log_w + k * log_t
        top = a.max()
        approx = math.exp(top) * float(np.exp(a - top).sum())
        exact = math.exp(math.lgamma(k + 1.0))
        worst = max(worst, abs(approx - exact) / exact)
    reports.append(_report("quad.laguerre.monomials", "order=64 k<=127", worst,
                           TOL_QUADRATURE))
    return reports


def _exact_deviation(kernel, envelope, polynomial, *labels) -> np.ndarray:
    """Per row, max |kernel - reference| over max |reference|: the exact numkernel
    polynomial at the labels (degree first) broadcast to the kernel's (rows, points),
    times the float envelope, as exact rationals rounded once."""
    degree, *params = np.broadcast_arrays(*labels)
    ref = np.empty(envelope.shape)
    for i in np.ndindex(ref.shape):
        num, den = polynomial(int(degree[i]), *(float(p[i]) for p in params))
        top, bottom = float(envelope[i]).as_integer_ratio()
        ref[i] = top * num / (bottom * den)
    return np.max(np.abs(kernel - ref), axis=-1) / np.max(np.abs(ref), axis=-1)


def _laguerre_deviation(n, c, power, log_const, scale, x) -> np.ndarray:
    """:func:`_exact_deviation` of the Laguerre kernel, labels (rows, 1), x (rows, points)."""
    t = scale * x
    return _exact_deviation(_laguerre_factor(n, c, power, log_const, scale, x),
                            np.exp(xlogy(power, t) - 0.5 * t + log_const),
                            laguerre_exact, n, c - 1.0, t)


def _check_kernel(rng: np.random.Generator) -> list[CheckReport]:
    reports = []

    # normalized factors t^(alpha/2) e^(-t/2) L_n^(alpha)(t) of degree n <= 40, each
    # at points across its oscillating region t < 4n + 2 alpha + 2 and a little past it
    n = rng.integers(0, 41, size=(6, 1))
    c = 1.0 + rng.uniform(0.0, 40.0, size=(6, 1))
    log_const = 0.5 * (gammaln(n + 1.0) - gammaln(n + c))
    scale = rng.uniform(0.5, 2.0, size=(6, 1))
    x = rng.uniform(0.0, 1.2, size=(6, 5)) * (4.0 * n + 2.0 * c) / scale
    worst = np.max(_laguerre_deviation(n, c, 0.5 * (c - 1.0), log_const, scale, x))
    reports.append(_report("kernel.laguerre.exact", "6 random (n<=40,alpha<40) x 5 t",
                           worst, TOL_QUADRATURE))

    # cos^m1(theta/2) sin^m2(theta/2) P_k^(m2,m1)(cos theta) of degree k <= 40; the
    # exact reference costs most per point, so it gets the fewest
    k = rng.integers(0, 41, size=(3, 1))
    m1, m2 = rng.uniform(0.0, 10.0, size=(2, 3, 1))
    theta = rng.uniform(0.0, math.pi, size=(3, 4))
    envelope = np.exp(xlogy(m1, np.cos(0.5 * theta)) + xlogy(m2, np.sin(0.5 * theta)))
    worst = np.max(_exact_deviation(_angular(k, m1, m2, 0.0, theta), envelope,
                                    jacobi_exact, k, m2, m1, np.cos(theta)))
    reports.append(_report("kernel.jacobi.exact", "3 random (k<=40,m1,m2<10) x 4 theta",
                           worst, TOL_QUADRATURE))

    worst, trials = 0.0, 0
    while trials < 200:
        big_n = int(rng.integers(0, 7))
        s_, sp, tp, t_ = rng.uniform(-3.0, 3.0, size=4)
        # reject parameter sets with near-vanishing denominator factors
        if any(abs(v + i) < 0.2 for i in range(max(big_n, 1))
               for v in (t_, tp, 1.0 - big_n - t_, t_ + s_)):
            continue
        trials += 1
        # the draws are doubles, so integers over one power of two q: both sides are exact
        (s_, sp, tp, t_), q = _over_power_of_two(s_, sp, tp, t_)
        lhs_num, lhs_den = hyp3f2_terminating(((s_, q), (sp, q), (-big_n, 1)),
                                              ((tp, q), ((1 - big_n) * q - t_, q)), big_n + 1)
        rhs_num, rhs_den = hyp3f2_terminating(((s_, q), (tp - sp, q), (-big_n, 1)),
                                              ((tp, q), (t_ + s_, q)), big_n + 1)
        # the right side carries (t + s)_N / (t)_N; both sides times lhs_den rhs_den (t)_N q^N
        t_rising = math.prod(t_ + i * q for i in range(big_n))
        lhs = lhs_num * rhs_den * t_rising
        rhs = rhs_num * lhs_den * math.prod(t_ + s_ + i * q for i in range(big_n))
        floor = abs(lhs_den * rhs_den * t_rising) // 10**10   # the 1e-10 floor in these units
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), floor, 1))
    reports.append(_report("kernel.bailey", "200 random sets N<=6", worst, TOL_ALGEBRA))
    return reports


# ---------------------------------------------------------------------------
# per-block residuals
# ---------------------------------------------------------------------------

def _params_context(params: SystemParams) -> str:
    """The s, c1 and c2 that open every context of a parameter point."""
    return f"s={format_half_integer(params.two_s)} c1={params.c1:g} c2={params.c2:g}"


def _context(prefix: str, two_m=None, two_n=None, extra="") -> str:
    parts = [prefix]
    if two_n is not None:
        parts.append(f"n={format_half_integer(two_n)}")
    if two_m is not None:
        parts.append(f"m={format_half_integer(two_m)}")
    if extra:
        parts.append(extra)
    return " ".join(parts)


@dataclass(frozen=True, eq=False)
class _Levels:
    """The states of B (n, m) blocks of one dimension d and their radial values,
    each block on its own rule, stacked on a leading block axis.

    ``w_r`` are the weights of block b's Gauss-Laguerre rule with weight exponent
    2 m_plus + delta, rescaled so that ``sum(w_r[b] * f(r[b]))`` approximates the
    integral of f over (0, inf); it is exact to rounding for the block's radial
    overlaps and the radial axis of its parabolic-spherical overlaps.
    """

    dim: int
    n_eff: list[float]
    dcs: list[DerivedConstants]
    sph: list[SphericalState]   # block b's j = m_plus .. n-1 at b d .. b d + d - 1
    par: list[ParabolicState]   # block b's n1 = 0 .. d-1 at b d .. b d + d - 1
    r: np.ndarray               # (B, nodes) radial nodes
    w_r: np.ndarray
    rad: np.ndarray             # (B, d, nodes) radial values of sph

    def per_state(self, coords: np.ndarray) -> np.ndarray:
        """Block coordinates (B, ...) repeated for each of its d states, the
        coordinates of one list call over ``sph`` or ``par``."""
        return np.repeat(coords, self.dim, axis=0)

    def per_block(self, values: np.ndarray) -> np.ndarray:
        """The rows of a list call over ``sph`` or ``par`` as (B, d, ...)."""
        return values.reshape(len(self.dcs), self.dim, *values.shape[1:])


class _States:
    """The spherical and parabolic states of one parameter point, each built once.

    ``spherical`` memoizes a spherical state for the run, as the radial and
    angular Gram matrices of its m read it too; a parabolic state serves one block.
    """

    def __init__(self, params: SystemParams):
        self.params = params
        self.spherical = lru_cache(maxsize=None)(partial(spherical_state, params))

    def levels(self, labels: Sequence[tuple[int, int]]) -> _Levels:
        """The blocks (two_n, two_m) of ``labels``, all of one dimension d."""
        dcs = [derive_constants(self.params, two_m) for _, two_m in labels]
        d = _block_dimension(dcs[0], labels[0][0])
        sph = [self.spherical(two_n, dc.two_m_plus + 2 * k, two_m)
               for (two_n, two_m), dc in zip(labels, dcs) for k in range(d)]
        par = [parabolic_state(self.params, n1, d - 1 - n1, two_m)
               for _, two_m in labels for n1 in range(d)]
        # each radial function, and each parabolic profile at fixed x, is
        # r^(m_plus + delta/2) e^(-eps r) times a polynomial of degree d - 1 in r;
        # a product of two, times the r^2 of the overlap, has degree 2d
        t, w = map(np.array, zip(*(_laguerre(_gauss_order(2 * d),
                                             float(dc.two_m_plus) + dc.delta_total)
                                   for dc in dcs)))
        scale = np.array([2.0 * st.eps for st in sph[::d]])[:, None]
        r = t / scale
        n_eff = [_n_effective(dc, two_n) for (two_n, _), dc in zip(labels, dcs)]
        return _Levels(dim=d, n_eff=n_eff, dcs=dcs, sph=sph, par=par, r=r, w_r=w / scale,
                       rad=radial_r(sph, np.repeat(r, d, axis=0)).reshape(len(labels), d, -1))


def _identity_deviation(gram: np.ndarray) -> np.ndarray:
    """Max |gram - I| of each (..., k, k) matrix."""
    return np.abs(gram - np.eye(gram.shape[-1])).max(axis=(-2, -1))


def _angular_gram(states: _States, dc: DerivedConstants) -> np.ndarray:
    channel_states = [
        states.spherical(dc.two_m_plus + 2 * k + 2, dc.two_m_plus + 2 * k, dc.two_m)
        for k in range(_ANGULAR_CHANNELS)
    ]
    # each profile is (1 - x)^(m2/2) (1 + x)^(m1/2) times a Jacobi polynomial
    # of degree < channels, a product the Jacobi weight times degree 2 channels - 2
    x, w = _jacobi(_gauss_order(2 * _ANGULAR_CHANNELS - 2), dc.m2, dc.m1)
    theta = np.arccos(x)
    profiles = angular_profile(channel_states, theta[None])
    return 2.0 * math.pi * np.einsum("i,ki,li->kl", w, profiles, profiles)


def _radial_gram(states: _States, dc: DerivedConstants, two_j: int, two_n_list
                 ) -> np.ndarray:
    chain = [states.spherical(tn, two_j, dc.two_m) for tn in two_n_list]
    # the pair (a, b) integrand is r^(2 m_plus + delta) e^(-t) times r^(2k + 2),
    # k = j - m_plus, times two Laguerre polynomials of degree <= n_r,max
    power = float(dc.two_m_plus) + dc.delta_total
    two_k = two_j - dc.two_m_plus
    two_n_r_max = max(two_n_list) - two_j - 2
    t, w = _laguerre(_gauss_order(two_k + 2 + two_n_r_max), power)
    eps = np.array([st.eps for st in chain])
    pair_eps = eps[:, None] + eps[None, :]
    # the pair (a, b) has its own nodes r[a, b]; one kernel call evaluates each
    # state on the nodes of all its pairs, values[a, b] = R_a(r[a, b])
    r = t / pair_eps[:, :, None]
    values = radial_r(chain, r)
    integrand = values * values.transpose(1, 0, 2) * r * r
    return np.sum(w * integrand, axis=-1) / pair_eps


def _parabolic_norms(lv: _Levels) -> np.ndarray:
    """(B, d) norms of the blocks' parabolic states, each block on its own rules."""
    eps = np.array([st.eps for st in lv.par[::lv.dim]])[:, None]
    # Phi_i^2 is x^m_i e^(-eps x) times a polynomial of degree 2 n_i <= 2d - 2,
    # and the volume element's xi + eta adds one
    moments = []
    for axis in (0, 1):
        t, w = map(np.array, zip(*(_laguerre(_gauss_order(2 * lv.dim - 1),
                                             dc.m2 if axis else dc.m1) for dc in lv.dcs)))
        x = t / eps
        f2 = lv.per_block(parabolic_factor(lv.par, axis, lv.per_state(x)))**2
        w = w[:, None]
        moments.append((np.sum(w * f2, axis=-1) / eps,
                        np.sum(w * (f2 * x[:, None]), axis=-1) / eps))
    # eps^4 a Python float per block, as numpy's vector power may round otherwise
    eps4 = np.array([0.5 * st.eps**4 for st in lv.par[::lv.dim]])[:, None]
    return eps4 * (moments[0][1] * moments[1][0] + moments[0][0] * moments[1][1])


def _biorthogonality(lv: _Levels) -> np.ndarray:
    """Unweighted radial overlaps of each block's spherical states, rows and columns j."""
    return (lv.rad * lv.w_r[:, None]) @ lv.rad.swapaxes(-1, -2)


def _overlap_matrix(lv: _Levels) -> np.ndarray:
    # at fixed r, the angular profiles and the parabolic profiles are each
    # (1 - x)^(m2/2) (1 + x)^(m1/2) times a polynomial of degree <= d - 1 in x
    d = lv.dim
    x, w_x = map(np.array, zip(*(_jacobi(_gauss_order(2 * d - 2), dc.m2, dc.m1)
                                 for dc in lv.dcs)))
    theta = np.arccos(x)
    xi = lv.r[:, :, None] * (1.0 + x)[:, None, :]
    eta = lv.r[:, :, None] * (1.0 - x)[:, None, :]
    ang = lv.per_block(angular_profile(lv.sph, lv.per_state(theta)))        # (B, d, nx)
    pab = lv.per_block(parabolic_profile(lv.par, lv.per_state(xi),
                                         lv.per_state(eta)))                # (B, d, nt, nx)
    b, _, nt, nx = pab.shape
    # the angular sum as one matrix product over the stacked (n1, node) rows,
    # then the radial sum
    angular = (pab.reshape(b, d * nt, nx)
               @ (ang * w_x[:, None]).swapaxes(-1, -2)).reshape(b, d, nt, d)  # [b, l, i, j]
    return math.sqrt(2.0 * math.pi) * np.einsum(
        "blij,bji->bjl", angular, lv.rad * (lv.w_r * lv.r * lv.r)[:, None])


_COMPLETENESS_POINTS = 20


def _completeness_draws(rng: np.random.Generator, blocks: int) -> np.ndarray:
    """(blocks, points, 3) uniform draws of r / n_eff^2, cos theta and phi, block
    after block: the same numbers as one draw of (points, 3) per block in turn."""
    return rng.uniform([0.05, -1.0, 0.0], [3.0, 1.0, 2.0 * math.pi],
                       size=(blocks, _COMPLETENESS_POINTS, 3))


def _completeness_residual(lv: _Levels, w: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Per block, max |psi_par - W^T psi_sph| at its points of ``draws``."""
    scale = np.array([n_eff**2 for n_eff in lv.n_eff])[:, None]   # Python floats, as eps^4
    point = SphericalPoint(r=lv.per_state(scale * draws[:, :, 0]),
                           theta=lv.per_state(np.arccos(draws[:, :, 1])),
                           phi=lv.per_state(draws[:, :, 2]))
    direct = lv.per_block(psi_parabolic(lv.par, spherical_to_parabolic(point)))
    expanded = w.swapaxes(-1, -2) @ lv.per_block(psi_spherical(lv.sph, point))
    return np.abs(direct - expanded).max(axis=(-2, -1))


# ---------------------------------------------------------------------------
# the parabolic-side reference of the spheroidal checks
# ---------------------------------------------------------------------------

def _parabolic_side(dc: DerivedConstants, two_n: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M = (m_diag, m_off), the angular momentum square in the parabolic basis, and
    the betas of the (n, m) block: its parabolic-side matrix is M + R diag(betas),
    whose eigenvalues at R = 0 are the angular spectrum and whose eigenvectors are
    V.  Production solves the spherical side alone; this is the reference."""
    d = _block_dimension(dc, two_n)
    half_delta = 0.5 * dc.delta_total
    eps = 1.0 / _n_effective(dc, two_n)
    base = (dc.m_plus + half_delta) * (dc.m_plus + half_delta + 1.0)
    pairs = [(n1, d - 1 - n1) for n1 in range(d)]   # (n1, n2)
    m_diag = np.array([
        2.0 * n1 * n2 + n1 * dc.m2 + n2 * dc.m1 + n1 + n2 + base for n1, n2 in pairs
    ])
    m_off = np.array([
        -math.sqrt((n1 + 1.0) * n2 * (n1 + dc.m1 + 1.0) * (n2 + dc.m2))
        for n1, n2 in pairs[:-1]
    ])
    betas = np.array([_separation_constant(dc, eps, n1, n2) for n1, n2 in pairs])
    return m_diag, m_off, betas


def _eigensolve(diag: np.ndarray, off: np.ndarray,
                parabolic: tuple[np.ndarray, np.ndarray, np.ndarray], r_values: list[float]
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ascending eigenvalues of the spherical and of the parabolic side, and
    the U and V stacks (vectors as rows; U signed as production signs it, V by
    first components) of B blocks of one dimension d at each of P values of R,
    from one eigensolve of each side: the spherical one of the blocks'
    :meth:`Block.spherical_bands` at those R, (B, P, d) and (B, P, d - 1), the
    parabolic one from their :func:`_parabolic_side`, stacked (B, d), (B, d - 1)
    and (B, d).  Spectra come out (B, P, d), vectors (B, P, d, d)."""
    b, p, d = diag.shape
    r = np.asarray(r_values, dtype=float)[:, None]
    m_diag, m_off, betas = parabolic
    lambdas, u = _eigh_stack(diag.reshape(b * p, d), off.reshape(b * p, d - 1), signed=True)
    lambdas_par, v = _eigh_stack((m_diag[:, None] + r * betas[:, None]).reshape(b * p, d),
                                 np.repeat(m_off, p, axis=0))
    return (lambdas.reshape(b, p, d), lambdas_par.reshape(b, p, d),
            u.reshape(b, p, d, d), _fix_signs(v).reshape(b, p, d, d))


def _aligned_deviation(actual: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Max entry deviation of each (..., d, d) matrix after flipping each column
    to best match the target's."""
    flip = np.einsum("...kq,...kq->...q", actual, target) < 0.0
    return np.abs(np.where(flip[..., None, :], -actual, actual) - target).max(axis=(-2, -1))


def _limits(w: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The four limit deviations, one row per probe pair, from a block's mixing
    matrix ``w`` (..., d, d) and the U and V stacks (..., pairs, 2, d, d) of
    :func:`_eigensolve` at each (r_small, r_large): U(r_small) against the
    identity, U(r_large) against W, V(r_large) against the identity and V(r_small)
    against W^T, signs aligned per column.  As R -> 0 the spherical-side
    eigenvectors approach unit vectors and the parabolic-side ones W^T; as
    R -> inf the roles swap, and the deviations fall off linearly in R (or 1/R)."""
    eye = np.eye(w.shape[-1])
    w = w[..., None, :, :]   # one W for every probe pair
    u, v = u.swapaxes(-1, -2), v.swapaxes(-1, -2)   # eigenvectors as columns
    return np.stack([_aligned_deviation(u[..., 0, :, :], eye),
                     _aligned_deviation(u[..., 1, :, :], w),
                     _aligned_deviation(v[..., 1, :, :], eye),
                     _aligned_deviation(v[..., 0, :, :], w.swapaxes(-1, -2))], axis=-1)


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

def _r_stack(r_list: list[float], limits: bool) -> list[float]:
    """The R of a block's bands: the list, R = 0 and, for a block with ``limits``
    checks (d >= 2), the limit probes, which one eigensolve per side covers; then
    the linearity probes, read only as bands."""
    return r_list + [0.0] + (_LIMIT_PROBES if limits else []) + _LINEARITY_PROBES


def _block_reports(prefix: str, states: _States, r_list: list[float],
                   labels: Sequence[tuple[int, int]], blks: Sequence[Block],
                   bands: Sequence[tuple[np.ndarray, np.ndarray]], draws: np.ndarray
                   ) -> list[CheckReport]:
    """The checks of blocks of one dimension d, labels (two_n, two_m): each numeric
    family runs once over all of them, stacked on a leading block axis, and each
    block gets its own reports.  ``bands`` are each block's spherical bands at
    :func:`_r_stack`, ``draws`` its completeness points."""
    d, n_r, k = blks[0].dim, len(r_list), len(_LINEARITY_PROBES)
    lv = states.levels(labels)
    r_eig = _r_stack(r_list, d >= 2)[:-k]
    x_diag, x_off = np.array([blk.x_diag for blk in blks]), np.array([blk.x_off for blk in blks])
    w, x_eigs = _mixing_matrix(x_diag, x_off)
    parabolic = tuple(map(np.array, zip(*(_parabolic_side(dc, two_n)
                                          for (two_n, _), dc in zip(labels, lv.dcs)))))
    diag, off = map(np.array, zip(*bands))   # (B, P, d) and (B, P, d - 1)
    # one stacked eigensolve per side: the R list, R = 0, where the parabolic side
    # is M alone, and the limit probes; eigh diagonalizes each matrix of the
    # stack on its own, so every row is bit-identical to a solve at that R alone
    lambdas, lambdas_par, u, v = _eigensolve(diag[:, :len(r_eig)], off[:, :len(r_eig)],
                                             parabolic, r_eig)

    norms = np.abs(_parabolic_norms(lv) - 1.0).max(axis=-1)
    # same-level radial functions of different j are orthogonal without the r^2 weight;
    # n_eff^3 as a product, which overflows to inf where float ** would raise
    n_eff = np.array(lv.n_eff)[:, None]
    two_js = np.array([st.qn.two_j for st in lv.sph]).reshape(-1, d)
    delta = np.array([dc.delta_total for dc in lv.dcs])[:, None]
    closed = np.zeros((len(blks), d, d))
    closed[:, range(d), range(d)] = 2.0 / (n_eff * n_eff * n_eff * (two_js + delta + 1.0))
    biorthogonality = np.abs(_biorthogonality(lv) - closed).max(axis=(-2, -1))
    orthogonality = _identity_deviation(w.swapaxes(-1, -2) @ w)
    overlap = np.abs(_overlap_matrix(lv) - w).max(axis=(-2, -1)) if d <= _OVERLAP_D_MAX else None
    completeness = _completeness_residual(lv, w, draws)
    # the betas ascend with n1, as the eigenvalues of X do; the angular spectrum
    # l(l + 1) ascends with j
    runge_lenz = np.abs(x_eigs - parabolic[2]).max(axis=-1)
    angular = np.abs(lambdas_par[:, n_r] - np.array([blk.angular for blk in blks])).max(axis=-1)
    # the bands at the linearity probes against those at R = 0 plus R X
    probes = np.array(_LINEARITY_PROBES)[:, None]
    linearity = np.maximum(
        np.abs(diag[:, -k:] - (diag[:, n_r, None] + probes * x_diag[:, None])).max(axis=(1, 2)),
        np.abs(off[:, -k:] - (off[:, n_r, None] + probes * x_off[:, None])
               ).max(axis=(1, 2), initial=0.0))

    u_r, v_r = u[:, :n_r].swapaxes(-1, -2), v[:, :n_r].swapaxes(-1, -2)  # vectors as columns
    spectrum_dev = np.abs(lambdas[:, :n_r] - lambdas_par[:, :n_r]).max(axis=-1)
    basis_dev = _aligned_deviation(w[:, None] @ v_r, u_r)
    norm_dev = np.maximum(np.abs(np.linalg.norm(u_r, axis=-2) - 1.0).max(axis=-1),
                          np.abs(np.linalg.norm(v_r, axis=-2) - 1.0).max(axis=-1))
    if d >= 2:
        limits = _limits(w, u[:, n_r + 1:].reshape(-1, 2, 2, d, d),
                         v[:, n_r + 1:].reshape(-1, 2, 2, d, d))

    reports = []
    r_tags = [f"R={R:g}" for R in r_list]
    for b, (two_n, two_m) in enumerate(labels):
        ctx = _context(prefix, two_m=two_m, two_n=two_n)
        cg = np.abs(w[b] - clebsch_gordan_block(lv.dcs[b], two_n)).max()
        reports += [
            _report("bases.parabolic.normalization", ctx, norms[b], TOL_QUAD_VS_CLOSED),
            _report("interbasis.biorthogonality", ctx, biorthogonality[b], TOL_QUAD_VS_CLOSED),
            _report("interbasis.orthogonality", ctx, orthogonality[b], TOL_ALGEBRA),
            _report("interbasis.cg_equivalence", ctx, cg, TOL_ALGEBRA),
            _report("interbasis.completeness", ctx, completeness[b], TOL_QUAD_VS_CLOSED),
            _report("spheroidal.runge_lenz_spectrum", ctx, runge_lenz[b], TOL_ALGEBRA),
            _report("spheroidal.angular_spectrum", ctx, angular[b], TOL_ALGEBRA),
            _report("spheroidal.r_linearity", ctx, linearity[b], 0.0),
        ]
        if overlap is not None:
            reports.append(_report("interbasis.overlap", ctx, overlap[b], TOL_OVERLAP))
        for tag, spectrum, basis, norm in zip(r_tags, spectrum_dev[b], basis_dev[b], norm_dev[b]):
            ctx_r = f"{ctx} {tag}"
            reports += [
                _report("spheroidal.spectrum_equality", ctx_r, spectrum, TOL_ALGEBRA),
                _report("spheroidal.basis_change", ctx_r, basis, TOL_BASIS_CHANGE),
                _report("spheroidal.normalization", ctx_r, norm, TOL_ALGEBRA),
            ]
        if d >= 2:
            inner, outer = limits[b]
            if d == 2:
                reports.append(_report("spheroidal.limits", ctx, inner.max(), TOL_LIMITS))
            # the largest outer/inner ratio over the four relations
            shrink = inner > 0.0
            reports.append(_report("spheroidal.limit_scaling", ctx,
                                   np.max(outer[shrink] / inner[shrink], initial=0.0),
                                   TOL_LIMIT_SHRINK))
    return reports


def run_suite(params: SystemParams, n_max: float, r_list, seed: int = 0
              ) -> list[CheckReport]:
    """Run every identity check over all blocks with n <= n_max.

    The numerics run once per block dimension d and the checks once per
    block: the blocks of one d share their shapes and rule orders, so each
    numeric family (W and the spectrum of X, the spheroidal eigensolve of
    each side over every R of ``r_list``, R = 0 and the limit probes, the
    radial values, the quadratures and the deviations) is one stacked call
    over all of them, and each block gets its own reports from it.  Each
    block and state is built once.  Failures are reported, never raised; a
    range holding no block or an n_max that is not finite raises
    QuantumNumberError, an empty ``r_list`` or a range whose largest block
    needs a quadrature rule past DEFAULT_RADIAL_ORDER nodes raises
    ValueError before any block is enumerated, and a block whose bands
    overflow, or an R that is negative or not finite, raises ValueError
    before any block is checked.  The report is exhaustive and, for fixed
    inputs and seed, byte-identical across runs.
    """
    r_list = [float(r) for r in r_list]
    if not r_list:
        raise ValueError("r_list must hold at least one R")
    # a block's largest integrand, of degree 2d, sets the largest rule of the run; the
    # largest d = n - m_plus is at m = s (m_plus = |s|) and the largest n, of the parity
    # of 2s, so a range is sized before its O(n_max^2) blocks are enumerated; every m
    # block of the range also runs up to that n
    two_n_max = _two_n_max(params, n_max)
    _gauss_order(two_n_max - abs(params.two_s))
    blocks = enumerate_blocks(params, n_max)
    # a strength too large for some m's constants is refused before any check runs
    m_constants = {two_m: derive_constants(params, two_m)
                   for two_m in dict.fromkeys(two_m for _, two_m in blocks)}
    # the self-checks have a generator of their own: they move no completeness point
    kernel_rng, rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    reports = _check_quadrature_selftest()
    reports += _check_kernel(kernel_rng)
    states = _States(params)
    prefix = _params_context(params)

    for two_m, dc in m_constants.items():
        reports.append(_report(
            "bases.angular.orthonormality", _context(prefix, two_m=two_m),
            _identity_deviation(_angular_gram(states, dc)), TOL_QUAD_VS_CLOSED))
        # the radial chain of each j holds the levels n = j + 1 .. n_max
        for two_j in range(dc.two_m_plus, two_n_max - 1, 2):
            reports.append(_report(
                "bases.radial.orthonormality",
                _context(prefix, two_m=two_m, extra=f"j={format_half_integer(two_j)}"),
                _identity_deviation(_radial_gram(
                    states, dc, two_j, range(two_j + 2, two_n_max + 1, 2))),
                TOL_QUAD_VS_CLOSED))

    # block by block, in order, so that a refusal comes where a pass block after
    # block would raise it: the block, its bands at every R it is checked at and
    # its completeness points; then the checks, one dimension at a time
    r_columns = {limits: np.array(_r_stack(r_list, limits))[:, None] for limits in (False, True)}
    groups = {}
    for label, points in zip(blocks, _completeness_draws(rng, len(blocks))):
        blk = block(params, *label)
        groups.setdefault(blk.dim, []).append(
            (label, blk, blk.spherical_bands(r_columns[blk.dim >= 2]), points))
    for members in groups.values():
        labels, blks, bands, draws = zip(*members)
        reports += _block_reports(prefix, states, r_list, labels, blks, bands, np.array(draws))

    reports.sort(key=lambda r: (r.check_id, r.context))
    return reports
