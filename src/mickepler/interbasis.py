"""Expansion coefficients connecting the parabolic and spherical bases.

A parabolic bound state of the level (n, m) is a finite mixture of the
d = n - m_plus spherical states of the same level.  The parabolic states
are the eigenstates of the generalized Runge-Lenz z-component, which is
a symmetric tridiagonal matrix X in the spherical basis, so the real
orthogonal mixing matrix is the eigenvector matrix of X: column n1 is
the eigenvector of the n1-th smallest separation constant beta, its
j = m_plus entry positive by X's recursion, the one sign rule of every
eigenvector here.  One tridiagonal eigensolve per block keeps every
entry accurate to rounding at any dimension.

The paper's closed form of the same coefficients, the analytic
continuation of the SU(2) Clebsch-Gordan closed form, is evaluated
exactly in :mod:`mickepler.numkernel` as the oracle of the verification
suite and the tests.

A :class:`Block` holds the R-independent bands of the spherical side of
the spheroidal separation operator of one (n, m) level: the angular
spectrum and X.  :func:`block` derives them once; the mixing matrix here
and every spheroidal solve in :mod:`mickepler.spheroidal` read them, and
both diagonalize them through one stacked tridiagonal eigensolver.  The
spheroidal coefficients over n1 are those over j times the mixing matrix,
one function for :mod:`mickepler.spheroidal` and :mod:`mickepler.verify`.
The parabolic side, the angular momentum square M and the betas, is built
only in :mod:`mickepler.verify`, as the recursion its residuals hold V to.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .qnum import (
    DerivedConstants,
    SystemParams,
    _block_dimension,
    derive_constants,
    format_half_integer,
)

__all__ = [
    "Block",
    "ExpansionMatrix",
    "block",
    "expansion_matrix",
    "inverse_expansion_matrix",
]


def _eq_by_value(self, other) -> bool:
    """``==`` of a dataclass with array fields: the same class and equal fields,
    arrays bit for bit (shape, dtype and bytes); it never raises, and an object
    of another class, an array too, is unequal."""
    if other.__class__ is not self.__class__:
        return False
    for f in fields(self):
        a, b = getattr(self, f.name), getattr(other, f.name)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            a, b = np.asarray(a), np.asarray(b)
            if (a.shape, a.dtype, a.tobytes()) != (b.shape, b.dtype, b.tobytes()):
                return False
        elif a != b:
            return False
    return True


@dataclass(frozen=True, eq=False)
class ExpansionMatrix:
    """Square coefficient matrix with printable row/column labels.

    Column k holds the expansion coefficients of the k-th expanded state
    over the basis labelling the rows.  Two matrices are equal when their
    labels are and their entries are bit-equal; a matrix is not hashable.
    """

    dim: int
    entries: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    __eq__ = _eq_by_value


def _coupling(dc: DerivedConstants, two_n: int, two_j: int) -> float:
    """Coupling between the adjacent angular channels j - 1 and j of a block,
    m_plus < j < n; it vanishes at the formal band ends j = m_plus and j = n."""
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
    """R-independent bands of the separation operator of one (n, m) block,
    on its spherical side: diag(angular) + R X, with X = (x_diag, x_off) the
    Runge-Lenz z-component in the spherical basis; its eigenvalues are the
    betas.  The spherical labels name the rows of the mixing matrix and the
    parabolic labels its columns; each is formatted the first time it is read.
    """

    dim: int
    two_m_plus: int
    angular: np.ndarray
    x_diag: np.ndarray
    x_off: np.ndarray

    @functools.cached_property
    def spherical_labels(self) -> tuple[str, ...]:
        return tuple(f"j={format_half_integer(self.two_m_plus + 2 * k)}"
                     for k in range(self.dim))

    @functools.cached_property
    def parabolic_labels(self) -> tuple[str, ...]:
        return tuple(f"n1={n1}" for n1 in range(self.dim))

    def spherical_bands(self, R) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal at R, a scalar or a column of grid values.

        Raises ValueError if any R is non-finite or negative.
        """
        _check_r(R)
        return self.angular + R * self.x_diag, R * self.x_off


def block(params: SystemParams, two_n: int, two_m: int) -> Block:
    """Bands of the (n, m) block, derived once from the block constants.

    Raises ValueError naming c1 and c2 if any band overflows.
    """
    dc = derive_constants(params, two_m)
    d = _block_dimension(dc, two_n)
    delta = dc.delta_total
    half_delta = 0.5 * delta
    n = two_n / 2.0
    num = (dc.m1 + dc.m2) * (dc.m1 - dc.m2)
    js = [dc.m_plus + k for k in range(d)]
    blk = Block(
        dim=d,
        two_m_plus=dc.two_m_plus,
        angular=np.array([(j + half_delta) * (j + half_delta + 1.0) for j in js]),
        x_diag=np.array([
            0.0 if num == 0.0 else num / ((2.0 * j + delta) * (2.0 * j + delta + 2.0))
            for j in js
        ]),
        x_off=np.array([
            -2.0 / (2.0 * n + delta) * _coupling(dc, two_n, dc.two_m_plus + 2 * k)
            for k in range(1, d)
        ]),
    )
    if not np.isfinite(np.concatenate((blk.angular, blk.x_diag, blk.x_off))).all():
        raise ValueError(f"c1={params.c1:g}, c2={params.c2:g} are too large: the bands of the "
                         f"n={format_half_integer(two_n)}, m={format_half_integer(two_m)} "
                         "block overflow")
    return blk


_CHUNK = 256   # points per dense stack, so a long grid never holds two (P, d, d) copies


def _eigh_stack(diags: np.ndarray, offdiags: np.ndarray, vectors: bool = True
                ) -> tuple[np.ndarray, np.ndarray | None]:
    """One symmetric tridiagonal eigensolve per row of ``diags``.

    ``offdiags`` holds one row per point or a single row shared by all, entries
    <= 0 as in :func:`block`'s bands.  Returns ascending eigenvalues (P, d) and, if
    ``vectors``, eigenvectors as rows (P, d, d), ``[p, q]`` being eigenvector q at
    point p, signed by :func:`_sign_by_recursion`; without ``vectors``, None in
    their place.  Up to _CHUNK points at a time go to one stacked ``numpy.linalg.eigh``
    (``eigvalsh`` without vectors) as dense matrices, only the diagonal and lower
    band filled; LAPACK reduces them with identity reflectors, so the doubles are
    those of ``dstevd`` (``dsterf`` without vectors), each vector up to its sign.
    Raises ValueError for a non-finite band, RuntimeError if the solver does not converge.
    """
    points, d = diags.shape
    if not (np.isfinite(diags).all() and np.isfinite(offdiags).all()):
        raise ValueError("array must not contain infs or NaNs")  # scipy's wording
    offdiags = np.broadcast_to(offdiags, (points, d - 1))
    lambdas = np.empty((points, d))
    stack = np.empty((points, d, d)) if vectors else None
    for start in range(0, points, _CHUNK):
        part = slice(start, min(start + _CHUNK, points))
        dense = np.zeros((part.stop - start, d * d))
        dense[:, ::d + 1] = diags[part]
        dense[:, d::d + 1] = offdiags[part]   # both solvers read the lower triangle
        dense = dense.reshape(-1, d, d)
        try:
            if vectors:
                lambdas[part], v = np.linalg.eigh(dense)
                stack[part] = v.swapaxes(-1, -2)
            else:
                lambdas[part] = np.linalg.eigvalsh(dense)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("tridiagonal eigensolver failed to converge for a system "
                               f"of dimension {d}") from exc
        if vectors:
            _sign_by_recursion(diags[part], offdiags[part], lambdas[part], stack[part])
    return lambdas, stack


def _sign_by_recursion(diags: np.ndarray, offdiags: np.ndarray, lambdas: np.ndarray,
                       u: np.ndarray) -> None:
    """Make the first component of each eigenvector row ``u[p, q]`` of the bands
    (P, d) and (P, d - 1) positive, by the band's recursion, never by that
    component, which can lie below rounding.  The b_j are <= 0 (X's and R times
    X's, by :func:`block`), so v_0 has the largest component's sign times (-1) per
    negative forward LDL^T pivot D_j of T - lambda_q below it.  Each point is
    scaled by the power of two that brings max |lambda| (>= every |entry|)
    below 1, and a pivot under the smallest normal counts as minus it, as in
    LAPACK ``dstebz``; the last one, D_{d-2}, divides nothing and is only counted.
    """
    largest = np.argmax(np.abs(u), axis=-1)
    negative = np.take_along_axis(u, largest[..., None], axis=-1)[..., 0] < 0.0
    scale = np.ldexp(1.0, -np.frexp(np.abs(lambdas).max(-1))[1])[:, None]
    pivots = (diags[:, :-1] * scale).T[:, :, None] - lambdas * scale   # [j, p, q], j < d - 1
    squares = ((offdiags * scale) ** 2).T[:, :, None]
    tiny = np.finfo(float).tiny
    for pivot, following, square in zip(pivots, pivots[1:], squares):
        pivot[np.abs(pivot) < tiny] = -tiny
        following -= square / pivot
    below = np.arange(len(pivots))[:, None, None] < largest
    negative ^= np.logical_xor.reduce((pivots < tiny) & below, axis=0)   # < tiny: as if guarded
    u[negative] *= -1.0


def _mixing_matrix(x_diag: np.ndarray, x_off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row b of the stacked X bands (B, d) and (B, d - 1): the eigenvectors of
    X as columns in ascending beta (ascending n1), and those ascending eigenvalues,
    (B, d, d) and (B, d) from one eigensolve.

    Each column's j = m_plus entry is positive, the sign :func:`_eigh_stack` gives
    it from X's recursion, whose off-diagonal is <= 0.  The entry is nonzero in
    exact arithmetic, since that off-diagonal has no zero inside a block, and from
    c1 = 1e4 at d = 64 it drops below rounding, so it is never read for its sign.
    """
    eigenvalues, vectors = _eigh_stack(x_diag, x_off)
    return vectors.swapaxes(-1, -2), eigenvalues


def _to_parabolic(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Eigenvectors over j as rows, (..., P, d, d), over n1: each row times the
    mixing matrix ``w`` (..., d, d), so V = W^T U with no sign of its own."""
    # numpy's own loop, not BLAS: a first BLAS matrix product maps its work
    # buffer, 0.3 MiB more peak memory for a sweep that calls no other
    return np.einsum("...pqk,...kn->...pqn", u, w)


def expansion_matrix(params: SystemParams, two_n: int, two_m: int) -> ExpansionMatrix:
    """Orthogonal d x d matrix; rows are spherical j, columns parabolic n1."""
    blk = block(params, two_n, two_m)
    w = _mixing_matrix(blk.x_diag[None], blk.x_off[None])[0][0]
    return ExpansionMatrix(dim=blk.dim, entries=w,
                           row_labels=blk.spherical_labels,
                           col_labels=blk.parabolic_labels)


def inverse_expansion_matrix(params: SystemParams, two_n: int, two_m: int
                             ) -> ExpansionMatrix:
    """Transpose of :func:`expansion_matrix`; rows n1, columns j."""
    w = expansion_matrix(params, two_n, two_m)
    return ExpansionMatrix(dim=w.dim, entries=w.entries.T.copy(),
                           row_labels=w.col_labels, col_labels=w.row_labels)

