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
builds them once for its whole grid.

:func:`solve`, :func:`sweep` and the CLI diagonalize the spherical side
alone: the parabolic-side coefficients are V = W^T U, with W the block's
mixing matrix, signed like U.  The verification suite and :func:`limits`
keep the independent parabolic-side eigensolve, which checks both.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .interbasis import (
    Block,
    ExpansionMatrix,
    _eigh_stack,
    _fix_signs,
    _mixing_matrix,
    block,
)
from .qnum import SystemParams

__all__ = [
    "SpheroidalSolution",
    "LimitReport",
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
    the sign-fixed U and V stacks (vectors as rows), at each R, from one eigensolve
    of each side: the independent V that verification and :func:`limits` check
    against U; :func:`sweep` takes V from U instead."""
    r = np.asarray(r_values, dtype=float)[:, None]
    lambdas, u = _eigh_stack(*blk.spherical_bands(r))
    lambdas_par, v = _eigh_stack(*blk.parabolic_bands(r))
    return lambdas, lambdas_par, _fix_signs(u), _fix_signs(v)


@functools.cache
def _q_labels(d: int) -> tuple[str, ...]:
    return tuple(f"q={q}" for q in range(d))


def _q_matrix(vectors: np.ndarray, row_labels: tuple[str, ...]) -> ExpansionMatrix:
    # entries are a column-major view into the stack: column q is vector q
    return ExpansionMatrix(dim=len(row_labels), entries=vectors.T,
                           row_labels=row_labels, col_labels=_q_labels(len(row_labels)))


def solve(params: SystemParams, two_n: int, two_m: int, R: float
          ) -> SpheroidalSolution:
    """Eigenvalues and both coefficient matrices at one R: :func:`sweep` over [R].

    Eigenvalues ascend (defining q).  U's columns are the spherical side's
    unit eigenvectors and V = W^T U; each column has its first nonzero
    component positive.
    """
    return sweep(params, two_n, two_m, [R])[0]


def _coefficients(params: SystemParams, two_n: int, two_m: int, R: float,
                  parabolic: bool) -> ExpansionMatrix:
    """V of :func:`solve` if ``parabolic``, else U; U needs no mixing matrix."""
    blk = block(params, two_n, two_m)
    u = _fix_signs(_eigh_stack(*blk.spherical_bands(np.array([[float(R)]])))[1])
    if not parabolic:
        return _q_matrix(u[0], blk.spherical_labels)
    return _q_matrix(_parabolic_rows(blk, u)[0], blk.parabolic_labels)


def _aligned_deviation(actual: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Max entry deviation of each (..., d, d) matrix after flipping each column
    to best match the target's."""
    flip = np.einsum("...kq,...kq->...q", actual, target) < 0.0
    return np.abs(np.where(flip[..., None, :], -actual, actual) - target).max(axis=(-2, -1))


def limits(params: SystemParams, two_n: int, two_m: int,
           r_small: float, r_large: float) -> LimitReport:
    """Deviations of the four limit relations at the probe R values.

    As R -> 0 the spherical-side eigenvectors approach unit vectors and
    the parabolic-side ones the transposed mixing matrix; as R -> inf the
    roles swap.  Deviations fall off linearly in R (or 1/R).
    """
    blk = block(params, two_n, two_m)
    _, _, u, v = _eigensolve(blk, [r_small, r_large])
    deviations = _limits(_mixing_matrix(blk)[0], u[None], v[None])[0]
    return LimitReport(r_small, r_large, *deviations.tolist())


def _limits(w: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The four deviations of :class:`LimitReport`, in its order, one row per
    probe pair, from the block's mixing matrix ``w`` and the U and V stacks
    (pairs, 2, d, d) of :func:`_eigensolve` at each (r_small, r_large)."""
    eye = np.eye(len(w))
    u, v = u.swapaxes(-1, -2), v.swapaxes(-1, -2)   # eigenvectors as columns
    return np.stack([_aligned_deviation(u[:, 0], eye), _aligned_deviation(u[:, 1], w),
                     _aligned_deviation(v[:, 1], eye), _aligned_deviation(v[:, 0], w.T)],
                    axis=-1)


def _ascending(r_grid) -> list[float]:
    """The grid as floats; raises ValueError if it is empty or descends."""
    r_grid = [float(r) for r in r_grid]
    if not r_grid:
        raise ValueError("R grid must contain at least one point")
    if any(b < a for a, b in zip(r_grid, r_grid[1:])):
        raise ValueError("R grid must be ascending")
    return r_grid


def _sweep_lambdas(params: SystemParams, two_n: int, two_m: int, r_grid) -> np.ndarray:
    """The eigenvalues of :func:`sweep`, (P, d), from an eigenvalue-only spherical
    solve: LAPACK ``dsterf``'s, which may differ from ``sweep``'s in the last bits."""
    r = np.asarray(_ascending(r_grid))[:, None]
    return _eigh_stack(*block(params, two_n, two_m).spherical_bands(r), vectors=False)[0]


def _parabolic_rows(blk: Block, u: np.ndarray) -> np.ndarray:
    """The sign-fixed V stack of a sign-fixed U stack (vectors as rows): V = W^T U,
    so each row of V is that row of U times the mixing matrix W."""
    # numpy's own loop, not BLAS: a first BLAS matrix product maps its work
    # buffer, 0.3 MiB more peak memory for a sweep that calls no other
    return _fix_signs(np.einsum("pqk,kn->pqn", u, _mixing_matrix(blk)[0]))


def _sweep_stacks(params: SystemParams, two_n: int, two_m: int, r_grid
                  ) -> tuple[Block, np.ndarray, np.ndarray, np.ndarray]:
    """The block and the stacks of :func:`sweep`: lambdas (P, d), and U and V
    (P, d, d) with sign-continued eigenvector q of point p in ``[p, q]``; one
    spherical-side eigensolve per point, V from U."""
    r = np.asarray(_ascending(r_grid))[:, None]
    blk = block(params, two_n, two_m)
    lambdas, u = _eigh_stack(*blk.spherical_bands(r))
    u = _fix_signs(u)
    v = _parabolic_rows(blk, u)
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
    return [SpheroidalSolution(R=R, lambdas=lambdas[p],
                               spherical_coefficients=_q_matrix(u[p], blk.spherical_labels),
                               parabolic_coefficients=_q_matrix(v[p], blk.parabolic_labels))
            for p, R in enumerate(r_grid)]
