import functools
import math

import mpmath
import numpy as np
import pytest
from pytest import approx
from scipy.linalg import eigh, eigvalsh_tridiagonal

from conftest import (aligned_deviation, limit_deviations, parabolic_bands, reference_eigensolve,
                      sign_by_first_component)

import mickepler.spheroidal as spheroidal
from mickepler.interbasis import _coupling, _mixing_matrix, block, expansion_matrix
from mickepler.qnum import (
    ParabolicQN,
    SystemParams,
    derive_constants,
    parabolic_separation_constant,
)
from mickepler.spheroidal import solve, sweep
from mickepler.verify import _parabolic_side

HYDROGEN = SystemParams(two_s=0)


def hydrogen_coupling(n, j, m):
    """Independently coded unperturbed coupling: A^2 = (j^2-m^2)(n^2-j^2)/(4j^2-1)."""
    return math.sqrt((j * j - m * m) * (n * n - j * j) / (4.0 * j * j - 1.0))


class TestAngularCoupling:
    """The coupling of the channels j - 1 and j, read off the off-diagonal of X,
    which is -2 / (2n + delta1 + delta2) times it (-1/n for hydrogen). `block`
    forms it only for m_plus < j < n; the band-end zeros are `_coupling`'s."""

    def test_band_terminates_at_top(self):
        assert _coupling(derive_constants(HYDROGEN, 0), 4, 4) == 0.0     # j = n

    def test_band_terminates_at_bottom(self):
        assert _coupling(derive_constants(HYDROGEN, 0), 4, 0) == 0.0     # j = m_plus

    def test_hydrogen_n2_by_hand(self):
        assert -2.0 * block(HYDROGEN, 4, 0).x_off[0] == approx(1.0, rel=1e-15)

    def test_hydrogen_reduction(self):
        for n in range(2, 7):
            for m in range(-(n - 1), n):
                x_off = block(HYDROGEN, 2 * n, 2 * m).x_off
                for j in range(abs(m) + 1, n):
                    ours = -n * x_off[j - abs(m) - 1]
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
    """M, the parabolic side at R = 0, of the verify suite's reference bands."""

    def test_d1_value(self):
        params = SystemParams(two_s=0, c1=0.4, c2=0.9)
        dc = derive_constants(params, 2)
        m_diag, _, _ = _parabolic_side(dc, dc.two_m_plus + 2)
        expected = (dc.m_plus + dc.delta_total / 2) * (dc.m_plus + dc.delta_total / 2 + 1)
        assert m_diag[0] == approx(expected, rel=1e-13)

    def test_hydrogen_n2_spectrum(self):
        m_diag, m_off, _ = _parabolic_side(derive_constants(HYDROGEN, 0), 4)
        assert eigvalsh_tridiagonal(m_diag, m_off) == approx([0.0, 2.0], abs=1e-14)

    def test_perturbed_spectrum_identity(self):
        params = SystemParams(two_s=1, c1=0.55, c2=1.3)
        dc = derive_constants(params, -1)
        d = 4
        two_n = dc.two_m_plus + 2 * d
        eigs = eigvalsh_tridiagonal(*_parabolic_side(dc, two_n)[:2])
        half = dc.delta_total / 2
        expected = np.sort([(dc.m_plus + k + half) * (dc.m_plus + k + half + 1)
                            for k in range(d)])
        assert np.abs(eigs - expected).max() <= 1e-10


class TestSolve:
    def test_r_zero_identity(self):
        # the limit R -> 0+ of a positive first component: column q is (-1)^q e_q
        sol = solve(HYDROGEN, 6, 0, 0.0)
        assert sol.lambdas == approx([0.0, 2.0, 6.0], abs=1e-14)
        assert np.array_equal(sol.spherical_coefficients.entries, np.diag([1.0, -1.0, 1.0]))

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
            lam_p = eigvalsh_tridiagonal(*parabolic_bands(params, two_n, two_m, R))
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
        with pytest.raises(ValueError, match="nonnegative"):
            blk.spherical_bands(R)
        with pytest.raises(ValueError, match="nonnegative"):
            reference_eigensolve(HYDROGEN, 6, 0, np.ravel(R))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_r_rejected(self, bad):
        blk = block(HYDROGEN, 6, 0)
        with pytest.raises(ValueError, match="finite"):
            blk.spherical_bands(bad)
        with pytest.raises(ValueError, match="finite"):
            blk.spherical_bands(np.array([[0.0], [1.0], [bad]]))
        with pytest.raises(ValueError, match="finite"):
            solve(HYDROGEN, 6, 0, bad)
        with pytest.raises(ValueError, match="finite"):
            limit_deviations(HYDROGEN, 6, 0, 1e-6, bad)
        with pytest.raises(ValueError, match="finite"):
            sweep(HYDROGEN, 6, 0, [0.0, 1.0, bad] if bad > 0 else [bad, 0.0])


class TestLimits:
    """The verify suite's four limit deviations: U(r_small) vs diag((-1)^q),
    U(r_large) vs W, V(r_large) vs identity and V(r_small) vs W^T diag((-1)^q)."""

    def test_d1_exact(self):
        assert limit_deviations(HYDROGEN, 2, 0, 1e-6, 1e6).max() == 0.0

    def test_hydrogen_n2_small_r(self):
        deviations = limit_deviations(HYDROGEN, 4, 0, 1e-6, 1e6)
        assert deviations.shape == (4,)
        for deviation in deviations:
            assert deviation <= 1e-5

    def test_first_order_scaling(self):
        inner = limit_deviations(HYDROGEN, 4, 0, 1e-6, 1e6)
        outer = limit_deviations(HYDROGEN, 4, 0, 1e-7, 1e7)
        for k in range(4):
            assert outer[k] <= 0.101 * inner[k]

    @pytest.mark.parametrize("params, two_n, two_m", [
        (SystemParams(two_s=0, c1=0.3, c2=0.7), 6, 0),
        (SystemParams(two_s=1, c1=0.3, c2=0.7), 7, 1),
    ])
    def test_limit_convergence(self, params, two_n, two_m):
        # perturbed levels: every deviation falls tenfold per decade of R
        # (or 1/R) from 1e-3 down to 1e-6
        reports = [limit_deviations(params, two_n, two_m, 10.0**-k, 10.0**k)
                   for k in (3, 4, 5, 6)]
        for inner, outer in zip(reports, reports[1:]):
            for k in range(4):
                assert outer[k] / inner[k] == approx(0.1, rel=1e-2)


class TestSweep:
    def test_single_point_equals_solve(self):
        # solve is a one-point sweep: its lambdas and U must equal the sign-fixed
        # stacked spherical solve at that R alone, its V the rows of that U times W,
        # and both a dense eigh of the spherical-side matrix and
        # the independent parabolic-side solve to rounding
        for params, two_n, two_m, R in ((HYDROGEN, 4, 0, 3.0),
                                        (SystemParams(two_s=1, c1=0.3, c2=0.7), 13, 1, 2.5)):
            blk = block(params, two_n, two_m)
            lambdas, _, u, v = reference_eigensolve(params, two_n, two_m, [R])
            direct = solve(params, two_n, two_m, R)
            assert np.array_equal(direct.lambdas, lambdas[0])
            assert np.array_equal(direct.spherical_coefficients.entries, u[0].T)
            w = expansion_matrix(params, two_n, two_m).entries
            assert np.array_equal(direct.parabolic_coefficients.entries,
                                  np.einsum("pqk,kn->pqn", u, w)[0].T)
            assert aligned_deviation(direct.parabolic_coefficients.entries, v[0].T) <= 1e-13

            diag, off = blk.spherical_bands(R)
            ref_lambdas, ref_u = eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
            scale = np.abs(ref_lambdas).max()
            assert np.abs(direct.lambdas - ref_lambdas).max() <= 1e-14 * scale
            assert aligned_deviation(direct.spherical_coefficients.entries, ref_u) <= 1e-13
            assert (direct.spherical_coefficients.entries[0] > 0.0).all()

    def test_branches_never_cross(self):
        grid = np.linspace(0.0, 100.0, 80)
        sols = sweep(HYDROGEN, 6, 0, grid)
        for sol in sols[1:]:   # at R=0 hydrogen m=0 spacing is smallest
            gaps = np.diff(sol.lambdas)
            assert gaps.min() > 1e-8

    @pytest.mark.parametrize("two_s, two_n, two_m, grid", [
        (1, 7, 1, np.linspace(0.0, 20.0, 60)),
        # the spheroidal-sweep benchmark's d = 10 grid, signed point by point
        (0, 20, 0, np.linspace(0.0, 50.0, 2000)),
    ])
    def test_vector_continuity(self, two_s, two_n, two_m, grid):
        sols = sweep(SystemParams(two_s=two_s, c1=0.3, c2=0.7), two_n, two_m, grid)
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
        signs = np.diag([1.0, -1.0])   # the limit R -> 0+ of the sign convention

        # every limit holds with its signs: U -> diag((-1)^q), V -> W^T diag((-1)^q)
        # as R -> 0+, and V -> I, U -> W as R -> inf
        for actual, target in ((sols[0].spherical_coefficients, signs),
                               (sols[0].parabolic_coefficients, w.T @ signs),
                               (sols[-1].parabolic_coefficients, np.eye(2)),
                               (sols[-1].spherical_coefficients, w)):
            assert np.abs(actual.entries - target).max() <= 1e-5

    def test_every_point_equals_solve(self):
        # each point is signed at its own R alone, so no grid changes a byte
        params = SystemParams(two_s=1, c1=0.3, c2=0.7)
        two_n, two_m = 11, 1
        grid = np.linspace(0.0, 40.0, 57)
        for R, sol in zip(grid, sweep(params, two_n, two_m, grid)):
            self.assert_same_solution(sol, solve(params, two_n, two_m, float(R)))

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

    @staticmethod
    def assert_same_solution(a, b):
        assert a.R == b.R and np.array_equal(a.lambdas, b.lambdas)
        for attr in ("spherical_coefficients", "parabolic_coefficients"):
            x, y = getattr(a, attr), getattr(b, attr)
            assert (x.dim, x.row_labels, x.col_labels) == (y.dim, y.row_labels, y.col_labels)
            assert np.array_equal(x.entries, y.entries)

    def test_sequence_views(self):
        # len, negative indices, slices and iteration give the same views, and
        # each equals the one-point solve
        params = SystemParams(two_s=1, c1=0.3, c2=0.7)
        grid = [0.0, 0.5, 3.0, 12.5, 40.0]
        sols = sweep(params, 11, 1, grid)
        assert len(sols) == len(grid)
        listed = list(sols)
        assert [sol.R for sol in listed] == grid
        self.assert_same_solution(sols[-1], listed[4])
        self.assert_same_solution(sols[-5], listed[0])
        for got, expected in zip(sols[1:4], listed[1:4]):
            self.assert_same_solution(got, expected)
        assert [sol.R for sol in sols[::-2]] == grid[::-2]
        assert sols[5:] == []
        for index in (5, -6):
            with pytest.raises(IndexError):
                sols[index]
        for sol, R in zip(sols, grid):
            self.assert_same_solution(sol, solve(params, 11, 1, R))

    def test_solutions_compare_by_value(self):
        params = SystemParams(two_s=1, c1=0.3, c2=0.7)
        one, other = solve(params, 11, 1, 2.5), solve(params, 11, 1, 2.5)
        assert one is not other and one == other and not one != other
        assert one != solve(params, 11, 1, 3.0) and one != solve(params, 13, 1, 2.5)
        assert one != one.lambdas and one != None   # noqa: E711
        with pytest.raises(TypeError, match="unhashable"):
            hash(one)
        sols = sweep(params, 11, 1, [0.0, 2.5, 2.5, 40.0])
        # each read builds a fresh view, found by value; a repeated R has the
        # same bytes, so the first of two equal points is the one found
        assert sols[0] is not sols[0] and sols[0] == sols[0]
        assert all(sol in sols for sol in sols)
        assert [sols.index(sols[p]) for p in range(4)] == [0, 1, 1, 3]
        assert sols.index(sols[-1]) == 3 and sols.count(sols[1]) == 2

    def test_lambdas_alone_are_dsterfs(self):
        params = SystemParams(two_s=1, c1=0.3, c2=0.7)
        grid = np.linspace(0.0, 50.0, 40)
        result = sweep(params, 13, 1, grid, vectors=False)
        assert len(result) == 40 and result.u is None and result.v is None
        blk = block(params, 13, 1)
        for R, lambdas in zip(grid, result.lambdas):
            assert np.array_equal(lambdas, eigvalsh_tridiagonal(
                *blk.spherical_bands(R), lapack_driver="sterf"))
        for index in (0, -1, slice(0, 2)):
            with pytest.raises(ValueError, match="without vectors"):
                result[index]
        with pytest.raises(ValueError, match="without vectors"):
            result.spherical_coefficients(0)
        with pytest.raises(ValueError, match="without vectors"):
            list(result)

    def test_v_is_formed_once_and_only_when_read(self, monkeypatch):
        params = SystemParams(two_s=1, c1=0.3, c2=0.7)
        grid = np.linspace(0.0, 20.0, 30)

        def no_mixing_matrix(x_diag, x_off):
            raise AssertionError("the mixing matrix was built")

        monkeypatch.setattr(spheroidal, "_mixing_matrix", no_mixing_matrix)
        result = sweep(params, 13, 1, grid)
        d = result.block.dim
        assert result.u.shape == (30, d, d) and result.lambdas.shape == (30, d)
        assert result.spherical_coefficients(-1).entries.shape == (d, d)
        assert sweep(params, 13, 1, grid, vectors=False).v is None
        with pytest.raises(AssertionError, match="mixing matrix"):
            result.v
        calls = []

        def counting(x_diag, x_off):
            calls.append((x_diag, x_off))
            return _mixing_matrix(x_diag, x_off)

        monkeypatch.setattr(spheroidal, "_mixing_matrix", counting)
        v = result.v
        assert result.v is v
        # one stack of B = 1: the X bands of the sweep's block
        ((x_diag, x_off),) = calls
        assert np.array_equal(x_diag, result.block.x_diag[None])
        assert np.array_equal(x_off, result.block.x_off[None])
        assert np.array_equal(result[7].parabolic_coefficients.entries, v[7].T)
        assert len(calls) == 1
        # V = W^T U exactly: no sign of its own
        assert np.array_equal(v, np.einsum("pqk,kn->pqn", result.u,
                                           expansion_matrix(params, 13, 1).entries))


RING = SystemParams(two_s=0, c1=0.3, c2=0.7)


@functools.lru_cache(maxsize=2)
def exact_signed_u(two_n, R, c1=RING.c1):
    """U of the ring's (n, m=0) block at R (at strength c1) from an 80-digit
    eigensolve of production's own double band, each first component made
    positive."""
    diag, off = block(SystemParams(two_s=0, c1=c1, c2=RING.c2), two_n, 0).spherical_bands(R)
    d = len(diag)
    with mpmath.workdps(80):
        band = mpmath.matrix(d, d)
        for i in range(d):
            band[i, i] = mpmath.mpf(float(diag[i]))
        for i in range(d - 1):
            band[i, i + 1] = band[i + 1, i] = mpmath.mpf(float(off[i]))
        values, vectors = mpmath.eigsy(band)
        order = sorted(range(d), key=lambda q: values[q])
        return np.array([[float(vectors[i, q] if vectors[0, q] > 0 else -vectors[i, q])
                          for q in order] for i in range(d)])


def assert_signed_like(u, exact):
    assert (np.sum(u * exact, axis=0) > 0.0).all()
    assert np.abs(u - exact).max() <= 1e-14


class TestSignsAgainstExactReference:
    """At d = 30, R = 10 the first components of the top levels lie far below
    rounding, seven of them computed as 0.0, so no sign read off them can be
    trusted; the band's recursion gives each one."""

    @pytest.mark.parametrize("R", [10.0, 100.0])
    def test_every_column_matches(self, R):
        assert_signed_like(solve(RING, 60, 0, R).spherical_coefficients.entries,
                           exact_signed_u(60, R))

    def test_raw_first_component_fails(self):
        # negative control: U signed by its first component as computed
        u = solve(RING, 60, 0, 10.0).spherical_coefficients.entries
        with pytest.raises(AssertionError):
            assert_signed_like(sign_by_first_component(u.T).T, exact_signed_u(60, 10.0))

    @pytest.mark.parametrize("c1, two_n, R", [
        # entries near 1e300: the recursion runs on a power-of-two scaled band,
        # so no square overflows into a RuntimeWarning
        (RING.c1, 20, 1e300),
        # a strong ring: 19 of the 20 first components compute as 0.0
        (1e16, 40, 10.0),
    ])
    def test_extreme_bands(self, c1, two_n, R):
        u = solve(SystemParams(two_s=0, c1=c1, c2=RING.c2), two_n, 0, R)
        assert_signed_like(u.spherical_coefficients.entries, exact_signed_u(two_n, R, c1))


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
