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
diagonalizes the spherical side alone, U's columns with first components
positive, and V = W^T U exactly, W the block's mixing matrix.  The parabolic
side M + R diag(beta) lives in :mod:`mickepler.verify` alone, whose checks hold
these lambda, U and V to the recursions of both sides by their residuals.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .interbasis import (Block, ExpansionMatrix, _eigh_stack, _eq_by_value, _mixing_matrix,
                         _to_parabolic, block)
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
    u: np.ndarray | None             # (P, d, d), first components positive

    @functools.cached_property
    def v(self) -> np.ndarray | None:
        """(P, d, d): U's rows times W, so V = W^T U with no sign of its own."""
        if self.u is None:
            return None
        w = _mixing_matrix(self.block.x_diag[None], self.block.x_off[None])[0][0]
        return _to_parabolic(self.u, w)

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


def solve(params: SystemParams, two_n: int, two_m: int, R: float
          ) -> SpheroidalSolution:
    """Eigenvalues and both coefficient matrices at one R: :func:`sweep` over [R].

    Eigenvalues ascend (defining q).  U's columns are the spherical side's
    unit eigenvectors, first components positive (U = diag((-1)^q) at R = 0,
    the limit R -> 0+), and V = W^T U: the bytes of any sweep's point at R.
    """
    return sweep(params, two_n, two_m, [R])[0]


def sweep(params: SystemParams, two_n: int, two_m: int, r_grid,
          vectors: bool = True) -> SpheroidalSweep:
    """The block's solutions along an ascending R grid, stacked, from one
    spherical-side eigensolve per point with the bands built once.

    Each eigenvector is signed at its own R, its first component positive;
    that component never vanishes for R > 0, so the curves are continuous on
    any grid.  Without ``vectors`` only the eigenvalues are solved for:
    LAPACK ``dsterf``'s, which may differ in the last bits from ``dstevd``'s.
    """
    grid = tuple(map(float, r_grid))
    if not grid:
        raise ValueError("R grid must contain at least one point")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("R grid must be ascending")
    blk = block(params, two_n, two_m)
    lambdas, u = _eigh_stack(*blk.spherical_bands(np.array(grid)[:, None]), vectors=vectors)
    return SpheroidalSweep(blk, grid, lambdas, u)
