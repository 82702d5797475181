"""Prolate spheroidal basis via the separation-constant eigenproblem.

At fixed level (n, m) the spheroidal states diagonalize the operator
combining the generalized angular momentum square with R times the
generalized Runge-Lenz z-component.  In the spherical basis this is a
symmetric tridiagonal matrix in j; in the parabolic basis a symmetric
tridiagonal matrix in n1.  Both representations share one spectrum
lambda_q(R), q = 0 .. d-1 ascending, and their eigenvector matrices are
related by the interbasis mixing matrix.

The parabolic-side matrix uses the closed form rederived from the
Clebsch-Gordan ladder relation; it is symmetric by construction and its
spectrum reproduces the angular eigenvalue list exactly (both facts are
enforced by the verification suite).

Only R varies within a block: the spherical-side matrix is A + R X, with
A the diagonal angular spectrum and X the Runge-Lenz matrix, and the
parabolic-side matrix is M + R diag(beta).  Both are kept as bands of a
:class:`mickepler.interbasis.Block`, derived once per block, so a sweep
builds them once for its whole grid and no dense matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interbasis import (
    Block,
    ExpansionMatrix,
    _coupling,
    _eigh_stack,
    _mixing_matrix,
    block,
)
from .qnum import QuantumNumberError, SystemParams, derive_constants

__all__ = [
    "SpheroidalSolution",
    "LimitReport",
    "angular_coupling",
    "solve",
    "limits",
    "sweep",
]


@dataclass(frozen=True)
class SpheroidalSolution:
    """Eigenvalues and both coefficient matrices at one R."""

    R: float
    lambdas: np.ndarray                      # ascending; index is q
    spherical_coefficients: ExpansionMatrix  # rows j, columns q
    parabolic_coefficients: ExpansionMatrix  # rows n1, columns q


@dataclass(frozen=True)
class LimitReport:
    """Max deviations of the four limit relations, signs aligned per column."""

    r_small: float
    r_large: float
    u_identity_dev: float   # U(r_small) vs identity
    u_mixing_dev: float     # U(r_large) vs mixing matrix
    v_identity_dev: float   # V(r_large) vs identity
    v_mixing_dev: float     # V(r_small) vs transposed mixing matrix

    def max_deviation(self) -> float:
        return max(self.u_identity_dev, self.u_mixing_dev,
                   self.v_identity_dev, self.v_mixing_dev)


def angular_coupling(params: SystemParams, two_n: int, two_j: int, two_m: int) -> float:
    """Coupling strength between adjacent angular channels j-1 and j.

    Vanishes at the formal band ends j = m_plus and j = n; raises outside
    m_plus <= j <= n.
    """
    dc = derive_constants(params, two_m)
    if two_j < dc.two_m_plus or two_j > two_n or (two_j - dc.two_m_plus) % 2 != 0:
        raise QuantumNumberError(
            f"coupling defined for m_plus <= j <= n, got two_j={two_j}"
        )
    return _coupling(dc, two_n, two_j)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # first nonzero component of each eigenvector (last axis) made positive
    first = np.argmax(vectors != 0.0, axis=-1)[..., None]
    lead = np.take_along_axis(vectors, first, axis=-1)
    vectors *= np.where(lead < 0.0, -1.0, 1.0)
    return vectors


def _continue_signs(vectors: np.ndarray) -> None:
    """Flip an eigenvector when its overlap with the same one at the previous,
    already continued grid point is negative; an overlap of 0 never flips.

    Flipping is exact, so that overlap is the raw one times the running
    sign of the previous point: the sign is the product of the raw overlap
    signs since the last exactly 0 overlap, where it restarts at +1.
    """
    overlap = np.einsum("pqk,pqk->pq", vectors[:-1], vectors[1:])
    negative = np.cumsum(overlap < 0.0, axis=0)
    # the count is nondecreasing, so its running max over the 0 overlaps is
    # its value at the last one
    negative -= np.maximum.accumulate(np.where(overlap == 0.0, negative, 0), axis=0)
    vectors[1:][negative % 2 == 1] *= -1.0


def _eigensolve(blk: Block, r_values: list[float]
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ascending eigenvalues of the spherical and of the parabolic side, and
    the sign-fixed U and V stacks (vectors as rows), at each R."""
    r = np.asarray(r_values, dtype=float)[:, None]
    lambdas, u = _eigh_stack(*blk.spherical_bands(r))
    lambdas_par, v = _eigh_stack(*blk.parabolic_bands(r))
    return lambdas, lambdas_par, _fix_signs(u), _fix_signs(v)


def _solutions(blk: Block, r_values: list[float], lambdas: np.ndarray,
               u: np.ndarray, v: np.ndarray) -> list[SpheroidalSolution]:
    # entries are column-major views into the stacks: column q is vector q
    q_labels = tuple(f"q={q}" for q in range(blk.dim))
    return [
        SpheroidalSolution(
            R=R,
            lambdas=lambdas[p],
            spherical_coefficients=ExpansionMatrix(
                dim=blk.dim, entries=u[p].T,
                row_labels=blk.spherical_labels, col_labels=q_labels),
            parabolic_coefficients=ExpansionMatrix(
                dim=blk.dim, entries=v[p].T,
                row_labels=blk.parabolic_labels, col_labels=q_labels),
        )
        for p, R in enumerate(r_values)
    ]


def solve(params: SystemParams, two_n: int, two_m: int, R: float
          ) -> SpheroidalSolution:
    """Diagonalize both representations at one R.

    Eigenvalues ascend (defining q); eigenvectors are unit columns with
    the first nonzero component positive.  The two eigenvalue sets agree
    to solver accuracy since both matrices represent the same operator.
    """
    blk = block(params, two_n, two_m)
    lambdas, _, u, v = _eigensolve(blk, [R])
    return _solutions(blk, [R], lambdas, u, v)[0]


def _aligned_deviation(actual: np.ndarray, target: np.ndarray) -> float:
    """Max entry deviation after flipping each column to best match the target."""
    flip = np.einsum("kq,kq->q", actual, target) < 0.0
    return float(np.abs(np.where(flip, -actual, actual) - target).max())


def limits(params: SystemParams, two_n: int, two_m: int,
           r_small: float, r_large: float) -> LimitReport:
    """Deviations of the four limit relations at the probe R values.

    As R -> 0 the spherical-side eigenvectors approach unit vectors and
    the parabolic-side ones the transposed mixing matrix; as R -> inf the
    roles swap.  Deviations fall off linearly in R (or 1/R).
    """
    blk = block(params, two_n, two_m)
    return _limits(blk, _mixing_matrix(blk), r_small, r_large)


def _limits(blk: Block, w: np.ndarray, r_small: float, r_large: float) -> LimitReport:
    """:func:`limits` for a block already derived and its mixing matrix ``w``."""
    d = blk.dim
    r_values = [r_small, r_large]
    lambdas, _, u, v = _eigensolve(blk, r_values)
    small, large = _solutions(blk, r_values, lambdas, u, v)
    return LimitReport(
        r_small=r_small,
        r_large=r_large,
        u_identity_dev=_aligned_deviation(
            small.spherical_coefficients.entries, np.eye(d)),
        u_mixing_dev=_aligned_deviation(
            large.spherical_coefficients.entries, w),
        v_identity_dev=_aligned_deviation(
            large.parabolic_coefficients.entries, np.eye(d)),
        v_mixing_dev=_aligned_deviation(
            small.parabolic_coefficients.entries, w.T),
    )


def _ascending(r_grid) -> list[float]:
    """The grid as floats; raises ValueError if it is empty or descends."""
    r_grid = [float(r) for r in r_grid]
    if not r_grid:
        raise ValueError("R grid must contain at least one point")
    if any(b < a for a, b in zip(r_grid, r_grid[1:])):
        raise ValueError("R grid must be ascending")
    return r_grid


def _sweep_lambdas(params: SystemParams, two_n: int, two_m: int, r_grid) -> np.ndarray:
    """The eigenvalues of :func:`sweep`, (P, d), from the spherical solve alone."""
    r = np.asarray(_ascending(r_grid))[:, None]
    return _eigh_stack(*block(params, two_n, two_m).spherical_bands(r))[0]


def _sweep_stacks(params: SystemParams, two_n: int, two_m: int, r_grid
                  ) -> tuple[Block, np.ndarray, np.ndarray, np.ndarray]:
    """The block and the stacks of :func:`sweep`: lambdas (P, d), and U and V
    (P, d, d) with sign-continued eigenvector q of point p in ``[p, q]``."""
    r_grid = _ascending(r_grid)
    blk = block(params, two_n, two_m)
    lambdas, _, u, v = _eigensolve(blk, r_grid)
    _continue_signs(u)
    _continue_signs(v)
    return blk, lambdas, u, v


def sweep(params: SystemParams, two_n: int, two_m: int, r_grid) -> list[SpheroidalSolution]:
    """Solutions along an ascending R grid with sign-continued eigenvectors.

    Each eigenvector column keeps the sign that maximizes its overlap
    with the previous grid point, so lambda branches and coefficient
    curves are continuous along the grid.  The block's bands are built
    once for the whole grid; the returned coefficient matrices are views
    into shared per-grid stacks.
    """
    r_grid = _ascending(r_grid)
    blk, lambdas, u, v = _sweep_stacks(params, two_n, two_m, r_grid)
    return _solutions(blk, r_grid, lambdas, u, v)
