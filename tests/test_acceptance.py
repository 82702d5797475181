"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them all).
The parameter grid is three monopole numbers {0, 1/2, 1} crossed with
ring strengths {(0, 0), (0.3, 0.7)}.  Tolerances are fixed here, not
calibrated.
"""

import math
import subprocess
import sys
import time

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from sympy import Rational
from sympy.physics.quantum.cg import CG

from conftest import (
    blocks_by_dimension,
    blocks_up_to,
    grid_cases,
    limit_deviations,
    parabolic_bands,
    reference_eigensolve,
    w_mpmath,
)

from mickepler.interbasis import block, expansion_matrix
from mickepler.numkernel import clebsch_gordan_block
from mickepler.qnum import (
    ParabolicQN,
    SystemParams,
    derive_constants,
    energy,
    parabolic_separation_constant,
)
from mickepler.spheroidal import solve
from mickepler.verify import (
    _aligned_deviation,
    _angular_gram,
    _biorthogonality,
    _identity_deviation,
    _overlap_matrix,
    _parabolic_norms,
    _parabolic_side,
    _radial_gram,
    _States,
)

GRID = grid_cases()


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def test_criterion_1_biorthogonality():
    """Quadrature radial overlaps match the closed form on the full grid.

    Without the r^2 weight, same-level radial functions of different j are
    orthogonal and the diagonal is 2 / (n_eff^3 (2j + delta1 + delta2 + 1)).
    """
    t0 = time.perf_counter()
    worst = 0.0
    for params in GRID:
        states = _States(params)
        for two_n, two_m in blocks_up_to(params, 5):
            level = states.levels([(two_n, two_m)])
            two_js = np.array([st.qn.two_j for st in level.sph])
            closed = np.diag(2.0 / (level.n_eff[0]**3
                                    * (two_js + level.dcs[0].delta_total + 1.0)))
            worst = max(worst, float(np.abs(_biorthogonality(level)[0] - closed).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _line("criterion-1 bi-orthogonality", ok,
          f"max residual {worst:.2e} (tol 1e-8), {elapsed:.1f}s (limit 10s)")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_2_interbasis_ground_truth():
    """Closed-form mixing coefficients equal brute-force overlap quadrature."""
    t0 = time.perf_counter()
    worst = 0.0
    for params in GRID:
        states = _States(params)
        for two_n, two_m in blocks_up_to(params, 5, d_max=4):
            w = expansion_matrix(params, two_n, two_m).entries
            quad = _overlap_matrix(states.levels([(two_n, two_m)]))[0]
            worst = max(worst, float(np.abs(quad - w).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 60.0
    _line("criterion-2 interbasis ground truth", ok,
          f"max residual {worst:.2e} (tol 1e-7), {elapsed:.1f}s (limit 60s)")
    assert worst <= 1e-7
    assert elapsed < 60.0


def test_criterion_3_cg_continuation():
    """The exact CG form agrees with the 3F2 form; integer case matches the Racah oracle."""
    rng = np.random.default_rng(1234)
    worst_rel = 0.0
    checked = 0
    while checked < 500:
        two_s = int(rng.integers(-3, 4))
        params = SystemParams(two_s=two_s, c1=float(rng.uniform(0, 2)),
                              c2=float(rng.uniform(0, 2)))
        two_m = two_s + 2 * int(rng.integers(-3, 4))
        dc = derive_constants(params, two_m)
        d = int(rng.integers(1, 7))
        two_n = dc.two_m_plus + 2 * d
        n1 = int(rng.integers(0, d))
        k = int(rng.integers(0, d))
        direct = w_mpmath(two_s, params.c1, params.c2, two_n, dc.two_m_plus + 2 * k, n1, two_m)
        via_cg = clebsch_gordan_block(dc, two_n)[k, n1]
        worst_rel = max(worst_rel, abs(direct - via_cg)
                        / max(abs(direct), abs(via_cg)))
        checked += 1

    worst_int = 0.0
    for n in range(1, 5):
        for m in range(-(n - 1), n):
            d = n - abs(m)
            w = clebsch_gordan_block(derive_constants(SystemParams(two_s=0), 2 * m), 2 * n)
            for k in range(d):
                j = abs(m) + k
                for n1 in range(d):
                    n2 = d - 1 - n1
                    ref = float(
                        (-1) ** n1 * CG(
                            Rational(n - 1, 2), Rational(abs(m) + n2 - n1, 2),
                            Rational(n - 1, 2), Rational(abs(m) + n1 - n2, 2),
                            j, abs(m)).doit())
                    worst_int = max(worst_int, abs(w[k, n1] - ref))
    ok = worst_rel <= 1e-10 and worst_int <= 1e-12
    _line("criterion-3 CG continuation", ok,
          f"500 random labels rel {worst_rel:.2e} (tol 1e-10), "
          f"integer case vs Racah {worst_int:.2e} (tol 1e-12)")
    assert worst_rel <= 1e-10
    assert worst_int <= 1e-12


def test_criterion_4_operator_spectrum_identities():
    """Runge-Lenz and angular-momentum matrices carry the exact spectra."""
    worst = 0.0
    for params in GRID:
        two_m_values = range(params.two_s - 6, params.two_s + 7, 2)
        for two_n, two_m in blocks_by_dimension(params, range(1, 11), two_m_values):
            dc = derive_constants(params, two_m)
            blk = block(params, two_n, two_m)
            d = blk.dim
            x_eigs = eigvalsh_tridiagonal(blk.x_diag, blk.x_off)
            betas = np.sort([
                parabolic_separation_constant(params, ParabolicQN(n1, d - 1 - n1, two_m))
                for n1 in range(d)])
            worst = max(worst, float(np.abs(x_eigs - betas).max()))
            m_eigs = eigvalsh_tridiagonal(*_parabolic_side(dc, two_n)[:2])
            half = 0.5 * dc.delta_total
            expected = np.sort([(dc.m_plus + k + half) * (dc.m_plus + k + half + 1)
                                for k in range(d)])
            worst = max(worst, float(np.abs(m_eigs - expected).max()))
    ok = worst <= 1e-10
    _line("criterion-4 operator spectra", ok, f"max deviation {worst:.2e} (tol 1e-10)")
    assert worst <= 1e-10


def test_criterion_5_cross_basis_spectrum_equality():
    """Both tridiagonal representations share eigenvalues; U = W V per column, with
    V from the parabolic side's own eigensolve (solve's V is W^T U by definition)."""
    worst_lam = 0.0
    worst_uv = 0.0
    for params in GRID:
        two_m_values = range(params.two_s - 4, params.two_s + 5, 2)
        for two_n, two_m in blocks_by_dimension(params, range(1, 9), two_m_values):
            w = expansion_matrix(params, two_n, two_m).entries
            for R in (0.1, 1.0, 10.0, 100.0):
                sol = solve(params, two_n, two_m, R)
                lam_par = eigvalsh_tridiagonal(*parabolic_bands(params, two_n, two_m, R))
                worst_lam = max(worst_lam, float(
                    np.abs(np.sort(sol.lambdas) - lam_par).max()))
                _, _, u, v = reference_eigensolve(params, two_n, two_m, [R])
                worst_uv = max(worst_uv, float(_aligned_deviation(w @ v[0].T, u[0].T)))
    ok = worst_lam <= 1e-10 and worst_uv <= 1e-9
    _line("criterion-5 cross-basis spectrum", ok,
          f"lambda sets {worst_lam:.2e} (tol 1e-10), U vs WV {worst_uv:.2e} (tol 1e-9)")
    assert worst_lam <= 1e-10
    assert worst_uv <= 1e-9


def test_criterion_6_limit_relations():
    """Limit deviations small at the probe R and shrinking 10x per decade.

    The four deviations are the verify suite's: U(r_small) vs identity,
    U(r_large) vs W, V(r_large) vs identity and V(r_small) vs W^T.  The
    absolute bound applies to the smallest nontrivial blocks (d = 2); the
    first-order deviation constant grows with the block dimension.
    """
    worst_dev = 0.0
    worst_ratio = 0.0
    for params in GRID:
        two_m_values = range(params.two_s - 2, params.two_s + 3, 2)
        for two_n, two_m in blocks_by_dimension(params, [2], two_m_values):
            inner = limit_deviations(params, two_n, two_m, 1e-6, 1e6)
            outer = limit_deviations(params, two_n, two_m, 1e-7, 1e7)
            worst_dev = max(worst_dev, float(inner.max()))
            for k in range(4):
                worst_ratio = max(worst_ratio, outer[k] / inner[k])
    ok = worst_dev <= 1e-5 and worst_ratio <= 0.101
    _line("criterion-6 limit relations", ok,
          f"max deviation {worst_dev:.2e} (tol 1e-5), "
          f"decade shrink ratio {worst_ratio:.4f} (limit 0.101)")
    assert worst_dev <= 1e-5
    assert worst_ratio <= 0.101


def test_criterion_7_normalization_orthonormality():
    """Quadrature normalization residuals across the grid, n <= 4."""
    worst = 0.0
    for params in GRID:
        states = _States(params)
        blocks = blocks_up_to(params, 4)
        m_done = set()
        for two_n, two_m in blocks:
            norms = _parabolic_norms(states.levels([(two_n, two_m)]))
            worst = max(worst, float(np.abs(norms - 1.0).max()))
            if two_m not in m_done:
                m_done.add(two_m)
                dc = derive_constants(params, two_m)
                worst = max(worst, _identity_deviation(_angular_gram(states, dc)))
                j_list = sorted({tj for tn, tm in blocks if tm == two_m
                                 for tj in range(dc.two_m_plus, tn - 1, 2)})
                for two_j in j_list:
                    n_list = [tn for tn, tm in blocks
                              if tm == two_m and tn >= two_j + 2]
                    worst = max(worst, _identity_deviation(
                        _radial_gram(states, dc, two_j, n_list)))
    ok = worst <= 1e-8
    _line("criterion-7 normalization/orthonormality", ok,
          f"max residual {worst:.2e} (tol 1e-8)")
    assert worst <= 1e-8


def test_criterion_8_hydrogen_reduction():
    """Every quantity reduces to independently coded hydrogen formulas."""
    params = SystemParams(two_s=0)
    worst = 0.0

    def coupling_ref(n, j, m):
        return math.sqrt((j * j - m * m) * (n * n - j * j) / (4.0 * j * j - 1.0))

    for n in range(1, 6):
        worst = max(worst, abs(energy(params, 0, 2 * n) + 1.0 / (2.0 * n * n)))
        for m in range(-(n - 1), n):
            d = n - abs(m)
            js = [abs(m) + k for k in range(d)]
            # couplings: the off-diagonal of X is -(1/n) times the coupling
            # of the channels j - 1 and j
            x_off = block(params, 2 * n, 2 * m).x_off
            for j in js[1:]:
                worst = max(worst, abs(-n * x_off[j - abs(m) - 1] - coupling_ref(n, j, m)))
            # mixing matrix against the exact Clebsch-Gordan table
            w = expansion_matrix(params, 2 * n, 2 * m).entries
            for k, j in enumerate(js):
                for n1 in range(d):
                    n2 = d - 1 - n1
                    ref = float((-1) ** n1 * CG(
                        Rational(n - 1, 2), Rational(abs(m) + n2 - n1, 2),
                        Rational(n - 1, 2), Rational(abs(m) + n1 - n2, 2),
                        j, abs(m)).doit())
                    worst = max(worst, abs(w[k, n1] - ref))
            # separation constants from the independently built tridiagonal
            for R in (0.5, 5.0):
                diag = np.array([j * (j + 1.0) for j in js])
                off = np.array([-(R / n) * coupling_ref(n, j + 1, m)
                                for j in js[:-1]])
                matrix = np.diag(diag)
                if d > 1:
                    matrix += np.diag(off, 1) + np.diag(off, -1)
                expected = np.sort(np.linalg.eigvalsh(matrix))
                sol = solve(params, 2 * n, 2 * m, R)
                worst = max(worst, float(np.abs(sol.lambdas - expected).max()))
    ok = worst <= 1e-10
    _line("criterion-8 hydrogen reduction", ok, f"max deviation {worst:.2e} (tol 1e-10)")
    assert worst <= 1e-10


def test_criterion_9_full_verify_suite():
    """The CLI verification run with default settings passes within budget."""
    t0 = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "mickepler.cli", "verify"],
        capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - t0
    ok = result.returncode == 0 and elapsed < 300.0
    _line("criterion-9 full verify suite", ok,
          f"exit {result.returncode}, {elapsed:.1f}s (limit 300s)")
    assert result.returncode == 0, result.stdout[-2000:]
    assert elapsed < 300.0
