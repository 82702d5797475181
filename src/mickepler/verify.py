"""Quadrature engine and the numeric verification suite.

Every identity the closed-form modules rely on is turned into a check
with a reported residual: quadrature self-tests, kernel identities
(recurrences, orthogonality, the 3F2 transformation), wavefunction
normalizations, the radial bi-orthogonality, interbasis overlaps, and
the spheroidal operator identities.  Checks never raise on failure; they
report.

Radial-type integrals use Gauss-Laguerre rules generalized with the
exact fractional power of the integrand as weight exponent, which makes
the bound-state integrand class exact up to rounding.  Angular integrals
use Gauss-Legendre after the smooth substitution x = sin(pi u / 2),
which removes the endpoint power singularities.

:func:`run_suite` builds each (n, m) block, its mixing matrix W and its
spherical and parabolic states once, with the radial values of the
states on one Gauss-Laguerre rule, and hands them to every check of the
block; every state is built once per run.  The public residual
functions take (params, n, m) labels and build the same objects for a
single call.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache, partial

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import eval_jacobi, poch, roots_genlaguerre, roots_legendre

from .bases import (
    ParabolicState,
    SphericalState,
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
from .interbasis import (
    block,
    expansion_coefficient_cg,
    expansion_matrix,
    radial_overlap_closed_form,
)
from .numkernel import hyp3f2_unit_scaled, kummer_terminating
from .qnum import (
    DerivedConstants,
    ParabolicQN,
    SystemParams,
    _block_dimension,
    _n_effective,
    derive_constants,
    enumerate_blocks,
    format_half_integer,
    parabolic_separation_constant,
)
from .spheroidal import _aligned_deviation, _eigensolve, _limits

__all__ = [
    "QuadratureRule",
    "CheckReport",
    "gauss_legendre",
    "gauss_laguerre",
    "angular_nodes",
    "integrate_radial",
    "radial_overlap_integral",
    "run_suite",
    "to_json_lines",
    "summary_table",
]

DEFAULT_RADIAL_ORDER = 128
DEFAULT_ANGULAR_ORDER = 128

TOL_QUADRATURE = 1e-12
TOL_ALGEBRA = 1e-10
TOL_QUAD_VS_CLOSED = 1e-8
TOL_OVERLAP = 1e-7
TOL_BASIS_CHANGE = 1e-9
TOL_LIMITS = 1e-5
TOL_LIMIT_SHRINK = 0.101   # outer-decade deviation over inner-decade, 1% slack


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights of a Gauss rule.

    kind 'gauss_laguerre' may carry a weight exponent alpha > -1 so that
    integrands t^alpha e^{-t} * polynomial are integrated exactly.
    """

    kind: str
    order: int
    alpha: float
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def gauss_legendre(order: int) -> QuadratureRule:
    nodes, weights = roots_legendre(order)
    return QuadratureRule("gauss_legendre", order, 0.0, nodes, weights)


@lru_cache(maxsize=None)
def gauss_laguerre(order: int, alpha: float = 0.0) -> QuadratureRule:
    nodes, weights = roots_genlaguerre(order, alpha)
    return QuadratureRule("gauss_laguerre", order, alpha, nodes, weights)


@lru_cache(maxsize=None)
def angular_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Legendre nodes mapped by x = sin(pi u / 2), weights folded.

    The map is smooth, fixes the endpoints, and its Jacobian vanishes
    there, so endpoint powers (1 -+ x)^gamma integrate to near machine
    accuracy without dedicated weighted rules.
    """
    rule = gauss_legendre(order)
    x = np.sin(0.5 * math.pi * rule.nodes)
    w = rule.weights * 0.5 * math.pi * np.cos(0.5 * math.pi * rule.nodes)
    return x, w


def integrate_radial(f, epsilon_scale: float, rule_order: int = DEFAULT_RADIAL_ORDER,
                     singular_power: float = 0.0) -> float:
    """Integral of f over (0, inf) for f ~ r^singular_power e^{-epsilon_scale r} q(r).

    Gauss-Laguerre after the substitution t = epsilon_scale * r, with the
    declared power folded into the rule weight; exact (to rounding) when
    q is a polynomial within the rule degree.
    """
    rule = gauss_laguerre(rule_order, singular_power)
    t = rule.nodes
    # e^{+t} t^{-alpha} rescaling of the weights, assembled in log space
    scaled = np.exp(np.log(rule.weights) + t - singular_power * np.log(t))
    return float(np.sum(scaled * f(t / epsilon_scale)) / epsilon_scale)


def radial_overlap_integral(params: SystemParams, two_n: int, two_m: int,
                            two_j: int, two_jp: int) -> float:
    """Quadrature value of the unweighted radial overlap integral.

    Its closed form is :func:`mickepler.interbasis.radial_overlap_closed_form`.
    """
    s1 = spherical_state(params, two_n, two_j, two_m)
    s2 = spherical_state(params, two_n, two_jp, two_m)
    power = (two_j + two_jp) / 2.0 + derive_constants(params, two_m).delta_total
    return integrate_radial(lambda r: radial_r(s1, r) * radial_r(s2, r), 2.0 * s1.eps,
                            singular_power=power)


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
    rule = gauss_legendre(64)
    worst = 0.0
    for k in range(128):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        approx = float(np.sum(rule.weights * rule.nodes**k))
        worst = max(worst, abs(approx - exact) / max(abs(exact), 1.0))
    reports.append(_report("quad.legendre.monomials", "order=64 k<=127", worst,
                           TOL_QUADRATURE))

    rule = gauss_laguerre(64)
    log_t = np.log(rule.nodes)
    log_w = np.log(rule.weights)
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


def _jacobi_weighted_norm(k: int, a: float, b: float) -> float:
    return (2.0**(a + b + 1.0) / (2.0 * k + a + b + 1.0)) * math.exp(
        math.lgamma(k + a + 1.0) + math.lgamma(k + b + 1.0)
        - math.lgamma(k + a + b + 1.0) - math.lgamma(k + 1.0)
    )


def _check_kernel(rng: np.random.Generator) -> list[CheckReport]:
    reports = []

    xs = rng.uniform(0.5, 100.0, size=1000)
    worst = max(abs(math.lgamma(x + 1.0) - math.lgamma(x) - math.log(x)) for x in xs)
    reports.append(_report("kernel.lngamma.recurrence", "1000 x in (0.5,100)",
                           worst, TOL_QUADRATURE))

    x, w = angular_nodes(256)
    worst = 0.0
    for a in (0.0, 0.37, 1.5):
        for b in (0.0, 0.37, 1.5):
            weight = w * (1.0 - x)**a * (1.0 + x)**b
            polys = eval_jacobi(np.arange(9)[:, None], a, b, x)
            gram = np.einsum("i,ki,li->kl", weight, polys, polys)
            target = np.diag([_jacobi_weighted_norm(k, a, b) for k in range(9)])
            scale = np.sqrt(np.outer(np.diag(target), np.diag(target)))
            worst = max(worst, float(np.abs((gram - target) / scale).max()))
    reports.append(_report("kernel.jacobi.orthogonality",
                           "alpha,beta in {0,0.37,1.5} k<=8", worst, TOL_ALGEBRA))

    worst = 0.0
    for _ in range(60):
        k = int(rng.integers(0, 11))
        a = rng.uniform(-0.9, 3.0)
        b = rng.uniform(-0.9, 3.0)
        lhs = eval_jacobi(k, a, b, 1.0)
        rhs = poch(a + 1.0, k) / math.exp(math.lgamma(k + 1.0))
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    reports.append(_report("kernel.jacobi.endpoint", "60 random (k,alpha,beta)",
                           worst, TOL_QUADRATURE))

    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(0, 9))
        c = rng.uniform(0.1, 6.0)
        worst = max(worst, abs(kummer_terminating(n, c, 0.0) - 1.0))
    reports.append(_report("kernel.kummer.at_zero", "40 random (n,c)", worst, 0.0))

    worst = 0.0
    trials = 0
    while trials < 200:
        big_n = int(rng.integers(0, 7))
        s_, sp, tp, t_ = rng.uniform(-3.0, 3.0, size=4)
        # reject parameter sets with near-vanishing denominator factors
        if any(abs(v + i) < 0.2 for i in range(max(big_n, 1))
               for v in (t_, tp, 1.0 - big_n - t_, t_ + s_)):
            continue
        trials += 1
        lhs = hyp3f2_unit_scaled(s_, sp, -float(big_n), tp, 1.0 - big_n - t_)
        rhs = (poch(t_ + s_, big_n) / poch(t_, big_n)
               * hyp3f2_unit_scaled(s_, tp - sp, -float(big_n), tp, t_ + s_))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-10))
    reports.append(_report("kernel.bailey", "200 random sets N<=6", worst, TOL_ALGEBRA))
    return reports


# ---------------------------------------------------------------------------
# per-block residuals
# ---------------------------------------------------------------------------

def _context(params: SystemParams, two_m=None, two_n=None, R=None, extra="") -> str:
    parts = [f"s={format_half_integer(params.two_s)}",
             f"c1={params.c1:g}", f"c2={params.c2:g}"]
    if two_n is not None:
        parts.append(f"n={format_half_integer(two_n)}")
    if two_m is not None:
        parts.append(f"m={format_half_integer(two_m)}")
    if R is not None:
        parts.append(f"R={R:g}")
    if extra:
        parts.append(extra)
    return " ".join(parts)


def _angular_order(dc) -> int:
    # doubled when the weight carries non-integer powers
    return DEFAULT_ANGULAR_ORDER * (2 if dc.delta_total > 0.0 else 1)


@dataclass(frozen=True, eq=False)
class _Level:
    """The states of one (n, m) block and their radial values on one rule.

    ``w_r`` are the weights of the Gauss-Laguerre rule with weight exponent
    2 m_plus + delta, rescaled so that ``sum(w_r * f(r))`` approximates the
    integral of f over (0, inf); it is exact to rounding for the block's
    radial overlaps and for its parabolic-spherical overlaps.
    """

    n_eff: float
    dc: DerivedConstants
    sph: list[SphericalState]   # j = m_plus .. n-1
    par: list[ParabolicState]   # n1 = 0 .. d-1
    r: np.ndarray               # radial nodes
    w_r: np.ndarray
    rad: np.ndarray             # (d, nodes) radial values of sph


class _States:
    """The spherical and parabolic states of one parameter point, each built once.

    The suite hands one of these to every check, so a state shared by
    several checks (a level's states serve its block and the radial and
    angular Gram matrices of its m) is derived a single time.
    """

    def __init__(self, params: SystemParams):
        self.params = params
        self.spherical = lru_cache(maxsize=None)(partial(spherical_state, params))
        self.parabolic = lru_cache(maxsize=None)(partial(parabolic_state, params))

    def level(self, two_n: int, two_m: int) -> _Level:
        dc = derive_constants(self.params, two_m)
        d = _block_dimension(dc, two_n)
        sph = [self.spherical(two_n, dc.two_m_plus + 2 * k, two_m) for k in range(d)]
        par = [self.parabolic(n1, d - 1 - n1, two_m) for n1 in range(d)]
        # a product of two of the block's radial functions, or of one and a
        # parabolic profile, is r^(2 m_plus + delta) e^(-2 eps r) times a polynomial
        power = float(dc.two_m_plus) + dc.delta_total
        rule = gauss_laguerre(DEFAULT_RADIAL_ORDER, power)
        t = rule.nodes
        scale = 2.0 * sph[0].eps
        r = t / scale
        w_r = np.exp(np.log(rule.weights) + t - power * np.log(t)) / scale
        return _Level(n_eff=_n_effective(dc, two_n), dc=dc, sph=sph,
                      par=par, r=r, w_r=w_r, rad=np.array([radial_r(st, r) for st in sph]))


def _angular_gram_residual(states: _States, two_m: int, channels: int) -> float:
    dc = derive_constants(states.params, two_m)
    channel_states = [
        states.spherical(dc.two_m_plus + 2 * k + 2, dc.two_m_plus + 2 * k, two_m)
        for k in range(channels)
    ]
    x, w = angular_nodes(_angular_order(dc))
    theta = np.arccos(x)
    profiles = np.array([angular_profile(st, theta) for st in channel_states])
    gram = 2.0 * math.pi * np.einsum("i,ki,li->kl", w, profiles, profiles)
    return float(np.abs(gram - np.eye(channels)).max())


def angular_gram_residual(params: SystemParams, two_m: int, channels: int = 5) -> float:
    """Deviation of the angular Gram matrix from identity, j = m+ .. m+ + channels-1."""
    return _angular_gram_residual(_States(params), two_m, channels)


def _radial_gram_residual(states: _States, two_m: int, two_j: int, two_n_list) -> float:
    dc = derive_constants(states.params, two_m)
    chain = [states.spherical(tn, two_j, two_m) for tn in two_n_list]
    # the per-m rule of the level tables: the integrand is r^(2 m_plus + delta)
    # e^(-t) times a polynomial, which also carries r^(2 (j - m_plus) + 2)
    power = float(dc.two_m_plus) + dc.delta_total
    rule = gauss_laguerre(DEFAULT_RADIAL_ORDER, power)
    t = rule.nodes
    scaled = np.exp(np.log(rule.weights) + t - power * np.log(t))
    eps = np.array([st.eps for st in chain])
    pair_eps = eps[:, None] + eps[None, :]
    # the pair (a, b) has its own nodes r[a, b]; one radial_r call per state
    # evaluates it on the nodes of all its pairs, values[a, b] = R_a(r[a, b])
    r = t / pair_eps[:, :, None]
    values = np.array([radial_r(st, r[a]) for a, st in enumerate(chain)])
    integrand = values * values.transpose(1, 0, 2) * r * r
    gram = np.sum(scaled * integrand, axis=-1) / pair_eps
    return float(np.abs(gram - np.eye(len(chain))).max())


def radial_gram_residual(params: SystemParams, two_m: int, two_j: int,
                         two_n_list) -> float:
    """Deviation of the r^2-weighted radial Gram matrix from identity."""
    return _radial_gram_residual(_States(params), two_m, two_j, two_n_list)


def _parabolic_norm_residual(lv: _Level) -> float:
    eps = lv.par[0].eps
    moments = []
    for axis, mi in ((0, lv.dc.m1), (1, lv.dc.m2)):
        rule = gauss_laguerre(DEFAULT_RADIAL_ORDER, mi)
        t = rule.nodes
        scaled = np.exp(np.log(rule.weights) + t - mi * np.log(t))
        x = t / eps
        f2 = np.array([parabolic_factor(st, axis, x) for st in lv.par]) ** 2
        moments.append((np.sum(scaled * f2, axis=1) / eps,
                        np.sum(scaled * (f2 * x), axis=1) / eps))
    total = 0.5 * eps**4 * (moments[0][1] * moments[1][0] + moments[0][0] * moments[1][1])
    return float(np.abs(total - 1.0).max())


def parabolic_norm_residual(params: SystemParams, two_n: int, two_m: int) -> float:
    """Deviation of the parabolic volume-element norms from one."""
    return _parabolic_norm_residual(_States(params).level(two_n, two_m))


def _biorthogonality(lv: _Level) -> np.ndarray:
    """Unweighted radial overlaps of the block's spherical states, rows and columns j."""
    return (lv.rad * lv.w_r) @ lv.rad.T


def _overlap_matrix(lv: _Level) -> np.ndarray:
    x, w_x = angular_nodes(_angular_order(lv.dc))
    theta = np.arccos(x)
    xi = lv.r[:, None] * (1.0 + x)[None, :]
    eta = lv.r[:, None] * (1.0 - x)[None, :]
    ang = np.array([angular_profile(st, theta) for st in lv.sph])       # (d, nx)
    pab = np.array([parabolic_profile(st, xi, eta) for st in lv.par])  # (d, nt, nx)
    d, nt, nx = pab.shape
    # the angular sum as one matrix product over the stacked (n1, node) rows,
    # then the radial sum
    angular = (pab.reshape(d * nt, nx) @ (ang * w_x).T).reshape(d, nt, d)  # [l, i, j]
    return math.sqrt(2.0 * math.pi) * np.einsum(
        "lij,ji->jl", angular, lv.rad * (lv.w_r * lv.r * lv.r))


def overlap_matrix_quadrature(params: SystemParams, two_n: int, two_m: int
                              ) -> np.ndarray:
    """Brute-force overlap matrix <parabolic n1 | spherical j> by 2D quadrature.

    Rows j, columns n1.
    """
    return _overlap_matrix(_States(params).level(two_n, two_m))


def _completeness_residual(lv: _Level, w: np.ndarray, rng: np.random.Generator,
                           npoints: int = 20) -> float:
    scale = lv.n_eff ** 2
    draws = rng.uniform([0.05, -1.0, 0.0], [3.0, 1.0, 2.0 * math.pi], size=(npoints, 3))
    point = SphericalPoint(r=scale * draws[:, 0], theta=np.arccos(draws[:, 1]),
                           phi=draws[:, 2])
    ppoint = spherical_to_parabolic(point)
    sph_values = np.array([psi_spherical(st, point) for st in lv.sph])   # (d, npoints)
    direct = np.array([psi_parabolic(st, ppoint) for st in lv.par])      # (d, npoints)
    return float(np.abs(direct - w.T @ sph_values).max())


def completeness_residual(params: SystemParams, two_n: int, two_m: int,
                          rng: np.random.Generator, npoints: int = 20) -> float:
    """Pointwise reconstruction of parabolic states from the spherical mixture."""
    w = expansion_matrix(params, two_n, two_m).entries
    return _completeness_residual(_States(params).level(two_n, two_m), w, rng, npoints)


def _limit_ratio(inner, outer) -> float:
    """Largest outer/inner deviation ratio over the four limit relations."""
    pairs = [
        (inner.u_identity_dev, outer.u_identity_dev),
        (inner.u_mixing_dev, outer.u_mixing_dev),
        (inner.v_identity_dev, outer.v_identity_dev),
        (inner.v_mixing_dev, outer.v_mixing_dev),
    ]
    worst = 0.0
    for dev_in, dev_out in pairs:
        if dev_in > 0.0:
            worst = max(worst, dev_out / dev_in)
    return worst


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

def run_suite(params: SystemParams, n_max: float, r_list,
              seed: int = 0, overlap_d_max: int = 4) -> list[CheckReport]:
    """Run every identity check over all blocks with n <= n_max.

    Each block, its mixing matrix W (one :func:`expansion_matrix` call),
    its states and their radial values are built once and read by every
    check of the block.  Failures are reported, never raised; a range
    holding no block raises QuantumNumberError.  The report is
    exhaustive and, for fixed inputs and seed, byte-identical across runs.
    """
    blocks = enumerate_blocks(params, n_max)
    rng = np.random.default_rng(seed)
    r_list = [float(r) for r in r_list]
    reports = _check_quadrature_selftest()
    reports += _check_kernel(rng)
    states = _States(params)

    for two_m in dict.fromkeys(two_m for _, two_m in blocks):
        reports.append(_report(
            "bases.angular.orthonormality", _context(params, two_m=two_m),
            _angular_gram_residual(states, two_m, 5), TOL_QUAD_VS_CLOSED))
        dc = derive_constants(params, two_m)
        j_values = sorted({two_j for two_n, tm in blocks if tm == two_m
                           for two_j in range(dc.two_m_plus, two_n - 1, 2)})
        for two_j in j_values:
            n_list = [two_n for two_n, tm in blocks if tm == two_m and two_n >= two_j + 2]
            reports.append(_report(
                "bases.radial.orthonormality",
                _context(params, two_m=two_m, extra=f"j={format_half_integer(two_j)}"),
                _radial_gram_residual(states, two_m, two_j, n_list),
                TOL_QUAD_VS_CLOSED))

    for two_n, two_m in blocks:
        ctx = _context(params, two_m=two_m, two_n=two_n)
        blk = block(params, two_n, two_m)
        d = blk.dim
        lv = states.level(two_n, two_m)
        dc = lv.dc
        w = expansion_matrix(params, two_n, two_m).entries

        reports.append(_report("bases.parabolic.normalization", ctx,
                               _parabolic_norm_residual(lv), TOL_QUAD_VS_CLOSED))

        quad = _biorthogonality(lv)
        worst = 0.0
        for ka in range(d):
            for kb in range(d):
                closed = radial_overlap_closed_form(params, two_n, two_m,
                                                    dc.two_m_plus + 2 * ka,
                                                    dc.two_m_plus + 2 * kb)
                worst = max(worst, abs(quad[ka, kb] - closed))
        reports.append(_report("interbasis.biorthogonality", ctx, worst,
                               TOL_QUAD_VS_CLOSED))

        reports.append(_report(
            "interbasis.orthogonality", ctx,
            float(np.abs(w.T @ w - np.eye(d)).max()), TOL_ALGEBRA))

        worst = 0.0
        for ka in range(d):
            two_j = dc.two_m_plus + 2 * ka
            for n1 in range(d):
                worst = max(worst, abs(
                    w[ka, n1] - expansion_coefficient_cg(params, two_n, two_j, n1, two_m)))
        reports.append(_report("interbasis.cg_equivalence", ctx, worst, TOL_ALGEBRA))

        if d <= overlap_d_max:
            reports.append(_report("interbasis.overlap", ctx,
                                   float(np.abs(_overlap_matrix(lv) - w).max()),
                                   TOL_OVERLAP))

        reports.append(_report(
            "interbasis.completeness", ctx,
            _completeness_residual(lv, w, rng), TOL_QUAD_VS_CLOSED))

        x_eigs = eigvalsh_tridiagonal(blk.x_diag, blk.x_off)
        betas = np.sort([
            parabolic_separation_constant(params, ParabolicQN(n1, d - 1 - n1, two_m))
            for n1 in range(d)
        ])
        reports.append(_report("spheroidal.runge_lenz_spectrum", ctx,
                               float(np.abs(x_eigs - betas).max()), TOL_ALGEBRA))

        m_eigs = eigvalsh_tridiagonal(blk.m_diag, blk.m_off)
        half_delta = 0.5 * dc.delta_total
        m_expected = np.sort([
            (dc.m_plus + k + half_delta) * (dc.m_plus + k + half_delta + 1.0)
            for k in range(d)
        ])
        reports.append(_report("spheroidal.angular_spectrum", ctx,
                               float(np.abs(m_eigs - m_expected).max()), TOL_ALGEBRA))

        base_diag, base_off = blk.spherical_bands(0.0)
        worst = 0.0
        for r_probe in (0.5, 2.0, 7.0):
            diag, off = blk.spherical_bands(r_probe)
            worst = max(worst, float(np.abs(np.concatenate([
                diag - (base_diag + r_probe * blk.x_diag),
                off - (base_off + r_probe * blk.x_off),
            ])).max()))
        reports.append(_report("spheroidal.r_linearity", ctx, worst, 0.0))

        # one stacked eigensolve for every R, bit-identical to a solve per R
        lambdas, u_rows, v_rows = _eigensolve(blk, r_list)
        for R, lam, u_t, v_t in zip(r_list, lambdas, u_rows, v_rows):
            ctx_r = _context(params, two_m=two_m, two_n=two_n, R=R)
            u, v = u_t.T, v_t.T
            lam_par = eigvalsh_tridiagonal(*blk.parabolic_bands(R))
            reports.append(_report(
                "spheroidal.spectrum_equality", ctx_r,
                float(np.abs(np.sort(lam) - lam_par).max()), TOL_ALGEBRA))
            reports.append(_report("spheroidal.basis_change", ctx_r,
                                   _aligned_deviation(w @ v, u), TOL_BASIS_CHANGE))
            norm_dev = max(
                float(np.abs(np.linalg.norm(u, axis=0) - 1.0).max()),
                float(np.abs(np.linalg.norm(v, axis=0) - 1.0).max()),
            )
            reports.append(_report("spheroidal.normalization", ctx_r, norm_dev,
                                   TOL_ALGEBRA))

        if d >= 2:
            inner = _limits(blk, w, 1e-6, 1e6)
            outer = _limits(blk, w, 1e-7, 1e7)
            if d == 2:
                reports.append(_report("spheroidal.limits", ctx,
                                       inner.max_deviation(), TOL_LIMITS))
            reports.append(_report("spheroidal.limit_scaling", ctx,
                                   _limit_ratio(inner, outer), TOL_LIMIT_SHRINK))

    reports.sort(key=lambda r: (r.check_id, r.context))
    return reports
