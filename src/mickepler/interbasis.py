"""Expansion coefficients connecting the parabolic and spherical bases.

A parabolic bound state of the level (n, m) is a finite mixture of the
d = n - m_plus spherical states of the same level.  The parabolic states
are the eigenstates of the generalized Runge-Lenz z-component, which is
a symmetric tridiagonal matrix X in the spherical basis, so the real
orthogonal mixing matrix is the eigenvector matrix of X: column n1 is
the eigenvector of the n1-th smallest separation constant beta, signed
so that its j = m_plus entry is positive.  One tridiagonal eigensolve
per block keeps every entry accurate to rounding at any dimension.

Two closed forms give the same coefficients entry by entry: a
terminating 3F2 sum and the analytic continuation of the SU(2)
Clebsch-Gordan closed form to real arguments.  Their alternating sums
lose digits as the block grows (accurate to about d <= 12), so they
serve as independent oracles for the verification suite and the tests.
The closed form of the radial bi-orthogonality integral (no r^2 weight)
that underpins the derivation is exposed here; :mod:`mickepler.verify`
holds its quadrature value.

A :class:`Block` holds the R-independent bands of the spheroidal
separation operator of one (n, m) level: the angular spectrum and X on
the spherical side, the angular momentum square M and the betas on the
parabolic side.  :func:`block` derives them once; the mixing matrix here
and every spheroidal solve in :mod:`mickepler.spheroidal` read them, and
both diagonalize them through one stacked tridiagonal eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .numkernel import hyp3f2_unit_scaled
from .qnum import (
    DerivedConstants,
    QuantumNumberError,
    SystemParams,
    _block_dimension,
    _n_effective,
    _separation_constant,
    derive_constants,
    epsilon,
    format_half_integer,
)

__all__ = [
    "Block",
    "ExpansionMatrix",
    "block",
    "clebsch_gordan_continued",
    "expansion_coefficient",
    "expansion_coefficient_cg",
    "expansion_matrix",
    "inverse_expansion_matrix",
    "radial_overlap_closed_form",
]


@dataclass(frozen=True)
class ExpansionMatrix:
    """Square coefficient matrix with printable row/column labels.

    Column k holds the expansion coefficients of the k-th expanded state
    over the basis labelling the rows.
    """

    dim: int
    entries: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]


def _check_labels(params: SystemParams, two_n: int, two_j: int, n1: int, two_m: int):
    dc = derive_constants(params, two_m)
    d = _block_dimension(dc, two_n)
    jj = (two_j - dc.two_m_plus) // 2
    if (two_j - dc.two_m_plus) % 2 != 0 or not 0 <= jj <= d - 1:
        raise QuantumNumberError(
            f"two_j={two_j} outside the block j = m_plus .. n-1 "
            f"(two_m_plus={dc.two_m_plus}, two_n={two_n})"
        )
    if not 0 <= n1 <= d - 1:
        raise QuantumNumberError(f"n1={n1} outside 0 .. {d - 1}")
    return dc, d, jj


def expansion_coefficient(params: SystemParams, two_n: int, two_j: int,
                          n1: int, two_m: int) -> float:
    """Coefficient of the spherical state (n, j, m) in the parabolic
    state (n1, n2, m) of the same level.

    Evaluated from the terminating 3F2 closed form, with all gamma
    prefactors combined in log space before exponentiation.
    """
    dc, d, _ = _check_labels(params, two_n, two_j, n1, two_m)
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
    dc, d, _ = _check_labels(params, two_n, two_j, n1, two_m)
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


def _coupling(dc: DerivedConstants, two_n: int, two_j: int) -> float:
    """Unvalidated ``spheroidal.angular_coupling`` for precomputed block constants."""
    j = two_j / 2.0
    n = two_n / 2.0
    delta = dc.delta_total
    num = (
        (j - dc.m_plus)
        * (j + dc.m_plus + delta)
        * (j - dc.m_minus + dc.delta1)
        * (j + dc.m_minus + dc.delta2)
        * (n - j)
        * (n + j + delta)
    )
    if num == 0.0:
        return 0.0
    den = (j + 0.5 * delta) ** 2 * (2.0 * j + delta - 1.0) * (2.0 * j + delta + 1.0)
    return math.sqrt(num / den)


def _check_r(R) -> None:
    r = np.ravel(R)
    finite = np.isfinite(r)
    if not finite.all():
        raise ValueError(f"R must be finite, got {r[~finite][0]}")
    if (r < 0.0).any():
        raise ValueError(f"R must be nonnegative, got {r[r < 0.0][0]}")


@dataclass(frozen=True)
class Block:
    """R-independent bands of the separation operator of one (n, m) block.

    Spherical side: diag(angular) + R X, with X = (x_diag, x_off) the
    Runge-Lenz z-component in the spherical basis; its eigenvalues are
    the betas.  Parabolic side: M + R diag(betas), with M = (m_diag,
    m_off) the angular momentum square in the parabolic basis; its
    eigenvalues are the angular spectrum.
    """

    dim: int
    spherical_labels: tuple[str, ...]
    parabolic_labels: tuple[str, ...]
    angular: np.ndarray
    x_diag: np.ndarray
    x_off: np.ndarray
    m_diag: np.ndarray
    m_off: np.ndarray
    betas: np.ndarray

    def spherical_bands(self, R) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal at R, a scalar or a column of grid values.

        Raises ValueError if any R is non-finite or negative.
        """
        _check_r(R)
        return self.angular + R * self.x_diag, R * self.x_off

    def parabolic_bands(self, R) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal at R, a scalar or a column of grid values.

        Raises ValueError if any R is non-finite or negative.
        """
        _check_r(R)
        return self.m_diag + R * self.betas, self.m_off


def block(params: SystemParams, two_n: int, two_m: int) -> Block:
    """Bands of the (n, m) block, derived once from the block constants."""
    dc = derive_constants(params, two_m)
    d = _block_dimension(dc, two_n)
    delta = dc.delta_total
    half_delta = 0.5 * delta
    n = two_n / 2.0
    eps = epsilon(_n_effective(dc, two_n))
    num = (dc.m1 + dc.m2) * (dc.m1 - dc.m2)
    base = (dc.m_plus + half_delta) * (dc.m_plus + half_delta + 1.0)
    js = [dc.m_plus + k for k in range(d)]
    pairs = [(n1, d - 1 - n1) for n1 in range(d)]   # (n1, n2)
    return Block(
        dim=d,
        spherical_labels=tuple(f"j={format_half_integer(dc.two_m_plus + 2 * k)}"
                               for k in range(d)),
        parabolic_labels=tuple(f"n1={n1}" for n1 in range(d)),
        angular=np.array([(j + half_delta) * (j + half_delta + 1.0) for j in js]),
        x_diag=np.array([
            0.0 if num == 0.0 else num / ((2.0 * j + delta) * (2.0 * j + delta + 2.0))
            for j in js
        ]),
        x_off=np.array([
            -2.0 / (2.0 * n + delta) * _coupling(dc, two_n, dc.two_m_plus + 2 * k)
            for k in range(1, d)
        ]),
        m_diag=np.array([
            2.0 * n1 * n2 + n1 * dc.m2 + n2 * dc.m1 + n1 + n2 + base for n1, n2 in pairs
        ]),
        m_off=np.array([
            -math.sqrt((n1 + 1.0) * n2 * (n1 + dc.m1 + 1.0) * (n2 + dc.m2))
            for n1, n2 in pairs[:-1]
        ]),
        betas=np.array([_separation_constant(dc, eps, n1, n2) for n1, n2 in pairs]),
    )


# the LAPACK driver scipy.linalg.eigh_tridiagonal selects for a full spectrum
_STEVD, = scipy.linalg.get_lapack_funcs(("stevd",), dtype=np.float64)


def _eigh_stack(diags: np.ndarray, offdiags: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """One symmetric tridiagonal eigensolve per row of ``diags``.

    ``offdiags`` holds one row per point or a single row shared by all.
    Returns ascending eigenvalues (P, d) and eigenvectors stored one per
    row, ``vectors[p, q]`` being eigenvector q at point p.  Each point is
    one direct ``dstevd`` call, the same doubles ``eigh_tridiagonal``
    returns without its per-call validation.  Raises ValueError for a
    non-finite band and RuntimeError if LAPACK does not converge.
    """
    points, d = diags.shape
    if not (np.isfinite(diags).all() and np.isfinite(offdiags).all()):
        raise ValueError("array must not contain infs or NaNs")  # scipy's wording
    if d == 1:
        return diags.copy(), np.ones((points, 1, 1))
    offdiags = np.broadcast_to(offdiags, (points, d - 1))
    lambdas = np.empty((points, d))
    vectors = np.empty((points, d, d))
    for p in range(points):
        lambdas[p], v, info = _STEVD(diags[p], offdiags[p])
        if info > 0:
            raise RuntimeError(
                f"tridiagonal eigensolver failed to converge for a system of dimension {d}")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of internal stevd")
        vectors[p] = v.T
    return lambdas, vectors


def _mixing_matrix(blk: Block) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors of the block's X as columns in ascending beta (ascending n1),
    and those ascending eigenvalues, from one eigensolve.

    Each column is signed so that its j = m_plus entry is positive.  That
    entry never vanishes: the off-diagonal of X has no zero inside a block,
    and an eigenvector of an unreduced tridiagonal matrix with a zero first
    component would vanish entirely.
    """
    eigenvalues, vectors = _eigh_stack(blk.x_diag[None], blk.x_off)
    vectors = vectors[0].T
    vectors *= np.sign(vectors[0])
    return vectors, eigenvalues[0]


def expansion_matrix(params: SystemParams, two_n: int, two_m: int) -> ExpansionMatrix:
    """Orthogonal d x d matrix; rows are spherical j, columns parabolic n1."""
    blk = block(params, two_n, two_m)
    return ExpansionMatrix(dim=blk.dim, entries=_mixing_matrix(blk)[0],
                           row_labels=blk.spherical_labels,
                           col_labels=blk.parabolic_labels)


def inverse_expansion_matrix(params: SystemParams, two_n: int, two_m: int
                             ) -> ExpansionMatrix:
    """Transpose of :func:`expansion_matrix`; rows n1, columns j."""
    w = expansion_matrix(params, two_n, two_m)
    return ExpansionMatrix(dim=w.dim, entries=w.entries.T.copy(),
                           row_labels=w.col_labels, col_labels=w.row_labels)


def radial_overlap_closed_form(params: SystemParams, two_n: int, two_m: int,
                               two_j: int, two_jp: int) -> float:
    """Closed form of the unweighted radial overlap integral.

    Same-level radial functions in different angular channels are
    orthogonal without the r^2 weight; the diagonal value is
    2 / (n_eff^3 (2j + delta1 + delta2 + 1)).
    """
    if two_j != two_jp:
        return 0.0
    dc = derive_constants(params, two_m)
    n_eff = _n_effective(dc, two_n)
    j = two_j / 2.0
    return 2.0 / (n_eff**3 * (2.0 * j + dc.delta_total + 1.0))
