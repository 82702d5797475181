"""Prolate spheroidal basis via the separation-constant eigenproblem.

At fixed level (n, m) the spheroidal states diagonalize the operator
combining the generalized angular momentum square with R times the
generalized Runge-Lenz z-component.  In the spherical basis this is a
symmetric tridiagonal matrix in j; in the parabolic basis a symmetric
tridiagonal matrix in n1.  Both representations share one spectrum
lambda_q(R), q = 0 .. d-1 ascending, and their eigenvector matrices are
related by the interbasis mixing matrix.

Only R varies within a block: the spherical-side matrix is A + R X, with
A the diagonal angular spectrum and X the Runge-Lenz matrix, kept as the
bands of a :class:`mickepler.interbasis.Block`, derived once per block, so
a sweep builds them once for its whole grid.

:func:`sweep`, the one path (:func:`solve` and the CLI call it),
diagonalizes the spherical side alone: V = W^T U, with W the block's mixing
matrix, signed like U.  The parabolic-side matrix M + R diag(beta) and its
independent eigensolve live in :mod:`mickepler.verify`, the reference its
checks hold both sides to.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .interbasis import (
    Block,
    ExpansionMatrix,
    _eigh_stack,
    _eq_by_value,
    _fix_signs,
    _mixing_matrix,
    block,
)
from .qnum import SystemParams

__all__ = [
    "SpheroidalSolution",
    "SpheroidalSweep",
    "solve",
    "sweep",
]


@dataclass(frozen=True, eq=False)
class SpheroidalSolution:
    """Eigenvalues and both coefficient matrices at one R.

    Two solutions are equal when their R and matrices are and their lambdas
    are bit-equal, so ``in`` and ``index`` find ``s[p]`` in its sweep ``s``;
    a solution is not hashable.
    """

    R: float
    lambdas: np.ndarray                      # ascending; index is q
    spherical_coefficients: ExpansionMatrix  # rows j, columns q
    parabolic_coefficients: ExpansionMatrix  # rows n1, columns q

    __eq__ = _eq_by_value


@dataclass(frozen=True, eq=False)
class SpheroidalSweep(Sequence):
    """The solutions of one block along an R grid, as stacks; ``[p]`` is the
    :class:`SpheroidalSolution` at point p, its matrices views into the stacks.

    Eigenvector q at point p is ``u[p, q]`` (over j) and ``v[p, q]`` (over n1).
    V = W^T U is formed when first read, so ``lambdas`` and ``u`` alone never
    build W.  Without vectors ``u`` and ``v`` are None and indexing raises
    ValueError.
    """

    block: Block
    grid: tuple[float, ...]          # P ascending R values
    lambdas: np.ndarray              # (P, d), ascending per point; index is q
    u: np.ndarray | None             # (P, d, d), sign-continued

    @functools.cached_property
    def v(self) -> np.ndarray | None:
        """(P, d, d): U's rows times W, each first nonzero made positive, then
        continued like U (flipping a row of U flips that row of V exactly)."""
        if self.u is None:
            return None
        w = _mixing_matrix(self.block.x_diag[None], self.block.x_off[None])[0][0]
        # numpy's own loop, not BLAS: a first BLAS matrix product maps its work
        # buffer, 0.3 MiB more peak memory for a sweep that calls no other
        v = _fix_signs(np.einsum("pqk,kn->pqn", self.u, w))
        _continue_signs(v)
        return v

    def spherical_coefficients(self, p: int) -> ExpansionMatrix:
        """U at point p: rows j, columns q."""
        return self._q_matrix(self.u, self.block.spherical_labels, p)

    def parabolic_coefficients(self, p: int) -> ExpansionMatrix:
        """V at point p: rows n1, columns q."""
        return self._q_matrix(self.v, self.block.parabolic_labels, p)

    def _q_matrix(self, stack, row_labels: tuple[str, ...], p: int) -> ExpansionMatrix:
        if stack is None:
            raise ValueError("a sweep without vectors has no coefficient matrices")
        # entries are a column-major view into the stack: column q is vector q
        return ExpansionMatrix(dim=len(row_labels), entries=stack[p].T, row_labels=row_labels,
                               col_labels=tuple(f"q={q}" for q in range(len(row_labels))))

    def __len__(self) -> int:
        return len(self.grid)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[p] for p in range(len(self))[index]]
        p = range(len(self))[index]     # a negative index counts from the end
        return SpheroidalSolution(self.grid[p], self.lambdas[p],
                                  self.spherical_coefficients(p), self.parabolic_coefficients(p))


def _continue_signs(vectors: np.ndarray) -> None:
    """Flip an eigenvector when its overlap with the same one at the previous,
    already continued grid point is negative; an overlap of 0 never flips.

    Flipping is exact, so that overlap is the raw one times the running
    sign of the previous point: the sign is the product of the raw overlap
    signs since the last exactly 0 overlap, where it restarts at +1.
    """
    if len(vectors) < 2:    # a one-point solve: skip a dozen calls on empty arrays
        return
    overlap = np.einsum("pqk,pqk->pq", vectors[:-1], vectors[1:])
    negative = np.cumsum(overlap < 0.0, axis=0)
    # the count is nondecreasing, so its running max over the 0 overlaps is
    # its value at the last one
    negative -= np.maximum.accumulate(np.where(overlap == 0.0, negative, 0), axis=0)
    vectors[1:][negative % 2 == 1] *= -1.0


def solve(params: SystemParams, two_n: int, two_m: int, R: float
          ) -> SpheroidalSolution:
    """Eigenvalues and both coefficient matrices at one R: :func:`sweep` over [R].

    Eigenvalues ascend (defining q).  U's columns are the spherical side's
    unit eigenvectors and V = W^T U; each column has its first nonzero
    component positive.
    """
    return sweep(params, two_n, two_m, [R])[0]


def sweep(params: SystemParams, two_n: int, two_m: int, r_grid,
          vectors: bool = True) -> SpheroidalSweep:
    """The block's solutions along an ascending R grid, stacked, from one
    spherical-side eigensolve per point with the bands built once.

    Each eigenvector keeps the sign that makes its overlap with the previous
    point nonnegative, so coefficient curves are continuous along the grid.
    Without ``vectors`` only the eigenvalues are solved for: LAPACK
    ``dsterf``'s, which may differ in the last bits from ``dstevd``'s.
    """
    grid = tuple(map(float, r_grid))
    if not grid:
        raise ValueError("R grid must contain at least one point")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("R grid must be ascending")
    blk = block(params, two_n, two_m)
    lambdas, u = _eigh_stack(*blk.spherical_bands(np.array(grid)[:, None]), vectors=vectors)
    if u is not None:
        _continue_signs(_fix_signs(u))
    return SpheroidalSweep(blk, grid, lambdas, u)
