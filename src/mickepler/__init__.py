"""Bound-state spectral analysis of the generalized MIC-Kepler system.

A charge in the field of a Dirac dyon with two ring-shaped perturbation
terms stays exactly solvable: the level (n, m) carries a d-fold
degenerate multiplet that can be organized in spherical, parabolic, or
prolate spheroidal form.  This package evaluates all three bases, the
orthogonal coefficient matrices connecting them (eigenvectors of the
tridiagonal Runge-Lenz matrix, checked against analytic continuations of
SU(2) Clebsch-Gordan coefficients), the spheroidal separation-constant
eigenproblem, and a quadrature harness that verifies every identity
numerically.
"""

from .qnum import (
    DerivedConstants,
    ParabolicQN,
    QuantumNumberError,
    SphericalQN,
    SystemParams,
    derive_constants,
    energy,
    parabolic_separation_constant,
)
from .bases import (
    ParabolicState,
    SphericalState,
    parabolic_state,
    psi_parabolic,
    psi_spherical,
    spherical_state,
)
from .interbasis import (
    Block,
    ExpansionMatrix,
    block,
    expansion_matrix,
    inverse_expansion_matrix,
)
from .spheroidal import SpheroidalSolution, SpheroidalSweep, solve, sweep
from .verify import CheckReport, run_suite

__all__ = [
    "Block",
    "CheckReport",
    "DerivedConstants",
    "ExpansionMatrix",
    "ParabolicQN",
    "ParabolicState",
    "QuantumNumberError",
    "SphericalQN",
    "SphericalState",
    "SpheroidalSolution",
    "SpheroidalSweep",
    "SystemParams",
    "block",
    "derive_constants",
    "energy",
    "expansion_matrix",
    "inverse_expansion_matrix",
    "parabolic_separation_constant",
    "parabolic_state",
    "psi_parabolic",
    "psi_spherical",
    "run_suite",
    "solve",
    "spherical_state",
    "sweep",
]

__version__ = "0.1.0"
