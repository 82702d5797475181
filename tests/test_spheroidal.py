import math

import numpy as np
import pytest
from pytest import approx
from scipy.linalg import eigvalsh_tridiagonal

from mickepler.interbasis import block, expansion_matrix
from mickepler.qnum import (
    ParabolicQN,
    QuantumNumberError,
    SystemParams,
    derive_constants,
    parabolic_separation_constant,
)
from mickepler.spheroidal import (
    _aligned_deviation,
    _continue_signs,
    _eigensolve,
    angular_coupling,
    limits,
    solve,
    sweep,
)

HYDROGEN = SystemParams(two_s=0)


def hydrogen_coupling(n, j, m):
    """Independently coded unperturbed coupling: A^2 = (j^2-m^2)(n^2-j^2)/(4j^2-1)."""
    return math.sqrt((j * j - m * m) * (n * n - j * j) / (4.0 * j * j - 1.0))


class TestAngularCoupling:
    def test_band_terminates_at_top(self):
        assert angular_coupling(HYDROGEN, 4, 4, 0) == 0.0     # j = n

    def test_band_terminates_at_bottom(self):
        assert angular_coupling(HYDROGEN, 4, 0, 0) == 0.0     # j = m_plus

    def test_hydrogen_n2_by_hand(self):
        assert angular_coupling(HYDROGEN, 4, 2, 0) == approx(1.0, rel=1e-15)

    def test_outside_band_raises(self):
        with pytest.raises(QuantumNumberError):
            angular_coupling(HYDROGEN, 4, 6, 0)

    def test_hydrogen_reduction(self):
        for n in range(2, 7):
            for m in range(-(n - 1), n):
                for j in range(abs(m) + 1, n):
                    ours = angular_coupling(HYDROGEN, 2 * n, 2 * j, 2 * m)
                    assert ours == approx(hydrogen_coupling(n, j, m), rel=1e-13)


class TestRungeLenzMatrix:
    def test_d1_equals_separation_constant(self):
        params = SystemParams(two_s=1, c1=0.3, c2=0.8)
        dc = derive_constants(params, 1)
        blk = block(params, dc.two_m_plus + 2, 1)
        beta = parabolic_separation_constant(params, ParabolicQN(0, 0, 1))
        assert (blk.x_diag.shape, blk.x_off.shape) == ((1,), (0,))
        assert blk.x_diag[0] == approx(beta, rel=1e-13)

    def test_hydrogen_n2_by_hand(self):
        blk = block(HYDROGEN, 4, 0)
        assert blk.x_diag == approx(np.array([0.0, 0.0]), abs=1e-15)
        assert blk.x_off == approx(np.array([-0.5]), abs=1e-15)
        assert eigvalsh_tridiagonal(blk.x_diag, blk.x_off) == approx([-0.5, 0.5], rel=1e-14)

    def test_eigenvalues_are_separation_constants(self):
        params = SystemParams(two_s=1, c1=0.3)
        d = 3
        dc = derive_constants(params, 1)
        two_n = dc.two_m_plus + 2 * d    # n = 7/2
        blk = block(params, two_n, 1)
        eigs = eigvalsh_tridiagonal(blk.x_diag, blk.x_off)
        betas = np.sort([parabolic_separation_constant(params, ParabolicQN(n1, d - 1 - n1, 1))
                         for n1 in range(d)])
        assert np.abs(eigs - betas).max() <= 1e-10


class TestAngularMomentumMatrix:
    def test_d1_value(self):
        params = SystemParams(two_s=0, c1=0.4, c2=0.9)
        dc = derive_constants(params, 2)
        blk = block(params, dc.two_m_plus + 2, 2)
        expected = (dc.m_plus + dc.delta_total / 2) * (dc.m_plus + dc.delta_total / 2 + 1)
        assert blk.m_diag[0] == approx(expected, rel=1e-13)

    def test_hydrogen_n2_spectrum(self):
        blk = block(HYDROGEN, 4, 0)
        assert eigvalsh_tridiagonal(blk.m_diag, blk.m_off) == approx([0.0, 2.0], abs=1e-14)

    def test_perturbed_spectrum_identity(self):
        params = SystemParams(two_s=1, c1=0.55, c2=1.3)
        dc = derive_constants(params, -1)
        d = 4
        two_n = dc.two_m_plus + 2 * d
        blk = block(params, two_n, -1)
        eigs = eigvalsh_tridiagonal(blk.m_diag, blk.m_off)
        half = dc.delta_total / 2
        expected = np.sort([(dc.m_plus + k + half) * (dc.m_plus + k + half + 1)
                            for k in range(d)])
        assert np.abs(eigs - expected).max() <= 1e-10


class TestSolve:
    def test_r_zero_identity(self):
        sol = solve(HYDROGEN, 6, 0, 0.0)
        dc = derive_constants(HYDROGEN, 0)
        assert sol.lambdas == approx([0.0, 2.0, 6.0], abs=1e-14)
        assert np.array_equal(sol.spherical_coefficients.entries, np.eye(3))

    def test_hydrogen_n2_closed_form(self):
        # 2x2 oracle: eigenvalues of [[0, -3/2], [-3/2, 2]]
        R = 3.0
        disc = math.sqrt(1.0 + (R / 2.0) ** 2)
        expected = [1.0 - disc, 1.0 + disc]
        sol = solve(HYDROGEN, 4, 0, R)
        assert sol.lambdas == approx(expected, rel=1e-14)

    def test_large_r_slope_is_runge_lenz_spectrum(self):
        params = SystemParams(two_s=0, c1=0.3, c2=0.7)
        R = 1e6
        d = 3
        dc = derive_constants(params, 0)
        two_n = dc.two_m_plus + 2 * d
        sol = solve(params, two_n, 0, R)
        betas = np.sort([parabolic_separation_constant(params, ParabolicQN(n1, d - 1 - n1, 0))
                         for n1 in range(d)])
        assert np.abs(sol.lambdas / R - betas).max() <= 1e-4

    def test_spectrum_equality_both_sides(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            two_s = int(rng.integers(-2, 3))
            params = SystemParams(two_s=two_s, c1=rng.uniform(0, 1.5),
                                  c2=rng.uniform(0, 1.5))
            two_m = two_s + 2 * int(rng.integers(-1, 2))
            dc = derive_constants(params, two_m)
            d = int(rng.integers(1, 8))
            two_n = dc.two_m_plus + 2 * d
            R = float(rng.uniform(0, 50))
            blk = block(params, two_n, two_m)
            lam_s = eigvalsh_tridiagonal(*blk.spherical_bands(R))
            lam_p = eigvalsh_tridiagonal(*blk.parabolic_bands(R))
            assert np.abs(lam_s - lam_p).max() <= 1e-10

    def test_basis_change_u_equals_wv(self):
        params = SystemParams(two_s=1, c1=0.4, c2=0.2)
        two_n, two_m = 9, 1
        w = expansion_matrix(params, two_n, two_m).entries
        for R in (0.1, 1.0, 10.0, 100.0):
            sol = solve(params, two_n, two_m, R)
            u = sol.spherical_coefficients.entries
            v = sol.parabolic_coefficients.entries
            wv = w @ v
            for q in range(u.shape[1]):
                col = wv[:, q] if np.dot(wv[:, q], u[:, q]) >= 0 else -wv[:, q]
                assert np.abs(col - u[:, q]).max() <= 1e-9

    def test_columns_unit_norm(self):
        sol = solve(SystemParams(two_s=2, c1=1.0, c2=0.5), 12, 2, 7.0)
        for mat in (sol.spherical_coefficients.entries,
                    sol.parabolic_coefficients.entries):
            assert np.abs(np.linalg.norm(mat, axis=0) - 1.0).max() <= 1e-12

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            solve(HYDROGEN, 4, 0, -1.0)

    @pytest.mark.parametrize("R", [-1.0, np.array([[0.0], [2.0], [-1e-300]])])
    def test_negative_r_rejected_by_bands(self, R):
        blk = block(HYDROGEN, 6, 0)
        for bands in (blk.spherical_bands, blk.parabolic_bands):
            with pytest.raises(ValueError, match="nonnegative"):
                bands(R)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_r_rejected(self, bad):
        blk = block(HYDROGEN, 6, 0)
        for bands in (blk.spherical_bands, blk.parabolic_bands):
            with pytest.raises(ValueError, match="finite"):
                bands(bad)
            with pytest.raises(ValueError, match="finite"):
                bands(np.array([[0.0], [1.0], [bad]]))
        with pytest.raises(ValueError, match="finite"):
            solve(HYDROGEN, 6, 0, bad)
        with pytest.raises(ValueError, match="finite"):
            limits(HYDROGEN, 6, 0, 1e-6, bad)
        with pytest.raises(ValueError, match="finite"):
            sweep(HYDROGEN, 6, 0, [0.0, 1.0, bad] if bad > 0 else [bad, 0.0])


class TestLimits:
    def test_d1_exact(self):
        rep = limits(HYDROGEN, 2, 0, 1e-6, 1e6)
        assert rep.max_deviation() == 0.0

    def test_hydrogen_n2_small_r(self):
        rep = limits(HYDROGEN, 4, 0, 1e-6, 1e6)
        assert rep.u_identity_dev <= 1e-5
        assert rep.u_mixing_dev <= 1e-5
        assert rep.v_identity_dev <= 1e-5
        assert rep.v_mixing_dev <= 1e-5

    def test_first_order_scaling(self):
        inner = limits(HYDROGEN, 4, 0, 1e-6, 1e6)
        outer = limits(HYDROGEN, 4, 0, 1e-7, 1e7)
        for field in ("u_identity_dev", "u_mixing_dev",
                      "v_identity_dev", "v_mixing_dev"):
            assert getattr(outer, field) <= 0.101 * getattr(inner, field)


class TestSweep:
    def test_single_point_equals_solve(self):
        grid_sol = sweep(HYDROGEN, 4, 0, [3.0])[0]
        direct = solve(HYDROGEN, 4, 0, 3.0)
        assert np.array_equal(grid_sol.lambdas, direct.lambdas)
        assert np.array_equal(grid_sol.spherical_coefficients.entries,
                              direct.spherical_coefficients.entries)

    def test_branches_never_cross(self):
        grid = np.linspace(0.0, 100.0, 80)
        sols = sweep(HYDROGEN, 6, 0, grid)
        for sol in sols[1:]:   # at R=0 hydrogen m=0 spacing is smallest
            gaps = np.diff(sol.lambdas)
            assert gaps.min() > 1e-8

    def test_vector_continuity(self):
        grid = np.linspace(0.0, 20.0, 60)
        sols = sweep(SystemParams(two_s=1, c1=0.3, c2=0.7), 7, 1, grid)
        for prev, cur in zip(sols, sols[1:]):
            for attr in ("spherical_coefficients", "parabolic_coefficients"):
                a = getattr(prev, attr).entries
                b = getattr(cur, attr).entries
                overlaps = np.sum(a * b, axis=0)
                assert overlaps.min() > 0.9

    def test_endpoints_match_limit_relations(self):
        params = SystemParams(two_s=0, c1=0.3, c2=0.7)
        w = expansion_matrix(params, 4, 0).entries
        sols = sweep(params, 4, 0, [1e-6, 1.0, 1e6])
        def aligned_dev(actual, target):
            worst = 0.0
            for q in range(target.shape[1]):
                col = actual[:, q]
                if np.dot(col, target[:, q]) < 0:
                    col = -col
                worst = max(worst, np.abs(col - target[:, q]).max())
            return worst

        # all limit comparisons are up to a per-column sign
        assert aligned_dev(sols[0].spherical_coefficients.entries, np.eye(2)) <= 1e-5
        assert aligned_dev(sols[0].parabolic_coefficients.entries, w.T) <= 1e-5
        assert aligned_dev(sols[-1].parabolic_coefficients.entries, np.eye(2)) <= 1e-5
        assert aligned_dev(sols[-1].spherical_coefficients.entries, w) <= 1e-5

    def test_every_point_equals_solve_up_to_continued_sign(self):
        params = SystemParams(two_s=1, c1=0.3, c2=0.7)
        two_n, two_m = 11, 1
        grid = np.linspace(0.0, 40.0, 57)
        previous = None
        for R, sol in zip(grid, sweep(params, two_n, two_m, grid)):
            direct = solve(params, two_n, two_m, float(R))
            assert sol.R == R
            assert np.array_equal(sol.lambdas, direct.lambdas)
            for attr in ("spherical_coefficients", "parabolic_coefficients"):
                cont = getattr(sol, attr).entries
                ref = getattr(direct, attr).entries
                for q in range(ref.shape[1]):
                    flipped = not np.array_equal(cont[:, q], ref[:, q])
                    if flipped:
                        assert np.array_equal(cont[:, q], -ref[:, q])
                    # continuation rule: flip exactly when the overlap with the
                    # previous, already continued column is negative
                    expected = (previous is not None and np.dot(
                        getattr(previous, attr).entries[:, q], ref[:, q]) < 0.0)
                    assert flipped == expected
            previous = sol

    def test_one_dimensional_block(self):
        params = SystemParams(two_s=0, c1=0.3, c2=0.7)
        beta = parabolic_separation_constant(params, ParabolicQN(0, 0, 0))
        sols = sweep(params, 2, 0, [0.0, 2.0, 4.0])
        base = sols[0].lambdas[0]
        for sol in sols:
            assert sol.lambdas[0] == approx(base + sol.R * beta, rel=1e-15)
            assert sol.spherical_coefficients.entries.tolist() == [[1.0]]
            assert sol.parabolic_coefficients.entries.tolist() == [[1.0]]

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(HYDROGEN, 4, 0, [1.0, 0.5])
        with pytest.raises(ValueError):
            sweep(HYDROGEN, 4, 0, [])


def continue_signs_loop(vectors):
    """Per-point reference: flip a vector whose overlap with the previous,
    already continued one is negative."""
    for p in range(1, len(vectors)):
        overlap = np.einsum("qk,qk->q", vectors[p - 1], vectors[p])
        vectors[p][overlap < 0.0] *= -1.0


class TestContinueSigns:
    def check(self, raw):
        expected = raw.copy()
        continue_signs_loop(expected)
        got = raw.copy()
        _continue_signs(got)
        assert np.array_equal(got, expected)
        return got

    @pytest.mark.parametrize("points, d", [(1, 3), (2, 1), (40, 2), (300, 7)])
    def test_random_stacks_match_point_loop(self, points, d):
        rng = np.random.default_rng(points + d)
        # slowly drifting vectors with random signs: long runs of flips
        raw = np.cumsum(rng.standard_normal((points, d, d)) * 0.2, axis=0)
        raw *= rng.choice([-1.0, 1.0], size=(points, d, 1))
        self.check(raw)

    def test_solver_stack_matches_point_loop(self):
        blk = block(SystemParams(two_s=1, c1=0.3, c2=0.7), 13, 1)
        _, _, u, v = _eigensolve(blk, list(np.linspace(0.0, 60.0, 500)))
        self.check(u)
        self.check(v)

    def test_negative_and_zero_overlaps(self):
        e0, e1 = np.eye(2)
        # vector 0: a negative overlap flips, the flip carries on, an exact
        # 0 overlap restarts the sign at +1, and the next negative one flips
        column = [e0, -e0, -e0, e1, -e1, -e1]
        raw = np.array([[c, e1] for c in column])
        got = self.check(raw)
        assert np.array_equal(got[:, 0], np.array([e0, e0, e0, e1, e1, e1]))
        assert np.array_equal(got[:, 1], raw[:, 1])


def test_aligned_deviation_matches_column_loop():
    rng = np.random.default_rng(3)
    for d in (1, 2, 5, 12):
        target = rng.normal(size=(d, d))
        actual = (target + 1e-3 * rng.normal(size=(d, d))) * rng.choice([-1.0, 1.0], d)
        expected = 0.0
        for q in range(d):
            col = actual[:, q]
            if np.dot(col, target[:, q]) < 0.0:
                col = -col
            expected = max(expected, float(np.abs(col - target[:, q]).max()))
        assert _aligned_deviation(actual, target) == expected


class TestHydrogenReduction:
    def test_lambda_from_independent_hydrogen_matrix(self):
        # independently coded unperturbed system: diag j(j+1), offdiag -(R/n) A
        for n, m, R in [(2, 0, 0.5), (3, 1, 2.0), (4, -2, 11.0), (5, 0, 31.0)]:
            d = n - abs(m)
            js = [abs(m) + k for k in range(d)]
            diag = np.array([j * (j + 1.0) for j in js])
            off = np.array([-(R / n) * hydrogen_coupling(n, j + 1, m) for j in js[:-1]])
            matrix = np.diag(diag)
            if d > 1:
                matrix += np.diag(off, 1) + np.diag(off, -1)
            expected = np.sort(np.linalg.eigvalsh(matrix))
            sol = solve(HYDROGEN, 2 * n, 2 * m, R)
            assert np.abs(sol.lambdas - expected).max() <= 1e-10
