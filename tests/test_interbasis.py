import functools
import math

import numpy as np
import pytest
import scipy.linalg
from pytest import approx
from sympy import Rational
from sympy.physics.quantum.cg import CG

from conftest import (blocks_by_dimension, blocks_up_to, grid_cases, sign_by_first_component,
                      w_mpmath)

import mickepler.interbasis as interbasis
from mickepler.interbasis import _eigh_stack, block, expansion_matrix, inverse_expansion_matrix
from mickepler.numkernel import clebsch_gordan_block
from mickepler.qnum import (
    ParabolicQN,
    QuantumNumberError,
    SystemParams,
    _n_effective,
    derive_constants,
    parabolic_separation_constant,
)
from mickepler.verify import (
    _biorthogonality,
    _completeness_draws,
    _completeness_residual,
    _overlap_matrix,
    _parabolic_side,
    _States,
)

HYDROGEN = SystemParams(two_s=0)


def overlap_quadrature(params, two_n, two_m):
    """Overlaps <parabolic n1 | spherical j> by 2D quadrature, rows j, columns n1."""
    return _overlap_matrix(_States(params).levels([(two_n, two_m)]))[0]


def radial_overlaps(params, two_n, two_m):
    """Unweighted radial overlaps of the level's spherical states, rows and columns j."""
    return _biorthogonality(_States(params).levels([(two_n, two_m)]))[0]


def closed_radial_overlap(params, two_n, two_m, two_j):
    """Diagonal radial overlap 2 / (n_eff^3 (2j + delta1 + delta2 + 1))."""
    dc = derive_constants(params, two_m)
    return 2.0 / (_n_effective(dc, two_n) ** 3 * (two_j + dc.delta_total + 1.0))


def cg_exact(two_a, two_al, two_b, two_be, two_c, two_ga) -> float:
    """Racah-formula oracle through sympy's exact Clebsch-Gordan machinery."""
    value = CG(Rational(two_a, 2), Rational(two_al, 2),
               Rational(two_b, 2), Rational(two_be, 2),
               Rational(two_c, 2), Rational(two_ga, 2)).doit()
    return float(value)


def cg_oracle(params, two_n, two_m):
    """The exact continued-CG coefficients of the (n, m) block."""
    return clebsch_gordan_block(derive_constants(params, two_m), two_n)


class TestContinuedCG:
    def test_matches_su2_tables(self):
        # without ring terms delta1 = delta2 = 0 and every block is a table of
        # SU(2) coefficients, W = (-1)^n1 C(a alpha; b beta | c gamma) with
        # 2a = n + m_minus - 1 = m2 + d - 1, 2 alpha = m2 + n2 - n1,
        # 2b = n - m_minus - 1 = m1 + d - 1, 2 beta = m1 + n1 - n2, c = j and
        # gamma = m_plus; a != b when s != 0
        checked = 0
        for two_s in range(-3, 4):
            params = SystemParams(two_s=two_s)
            for two_m in range(two_s - 4, two_s + 5, 2):
                dc = derive_constants(params, two_m)
                for d in range(1, 5):
                    two_n = dc.two_m_plus + 2 * d
                    w = cg_oracle(params, two_n, two_m)
                    m1, m2 = abs(two_m - two_s) // 2, abs(two_m + two_s) // 2
                    for k in range(d):
                        for n1 in range(d):
                            n2 = d - 1 - n1
                            ref = (-1) ** n1 * cg_exact(
                                m2 + d - 1, m2 + n2 - n1, m1 + d - 1, m1 + n1 - n2,
                                dc.two_m_plus + 2 * k, dc.two_m_plus)
                            assert w[k, n1] == approx(ref, rel=1e-15, abs=1e-15)
                            checked += 1
        assert checked > 1000


class TestExpansionCoefficient:
    def test_single_state_block(self):
        # d = 1: normalization forces the single coefficient to one, exactly
        assert np.array_equal(cg_oracle(HYDROGEN, 2, 0), np.ones((1, 1)))
        params = SystemParams(two_s=3, c1=0.4, c2=0.1)
        dc = derive_constants(params, 3)
        assert np.array_equal(cg_oracle(params, dc.two_m_plus + 2, 3), np.ones((1, 1)))

    def test_hydrogen_n2_magnitudes(self):
        # overlap-quadrature oracle gives |W| = 1/sqrt(2) for every entry
        quad = overlap_quadrature(HYDROGEN, 4, 0)
        w = expansion_matrix(HYDROGEN, 4, 0).entries
        assert np.abs(quad - w).max() <= 1e-10
        assert np.abs(np.abs(w) - 1.0 / math.sqrt(2.0)).max() <= 1e-14

    def test_perturbed_half_integer_block_vs_quadrature(self):
        params = SystemParams(two_s=1, c1=0.3, c2=0.7)
        quad = overlap_quadrature(params, 5, 1)   # n = 5/2, m = 1/2
        w = expansion_matrix(params, 5, 1).entries
        assert np.abs(quad - w).max() <= 1e-8

    def test_invalid_labels(self):
        # (params, two_n, two_m): n not above m_plus, then n - m_plus not an integer
        ring_half = SystemParams(two_s=1, c1=0.3, c2=0.7)   # m = 1/2: m_plus = 1/2
        for params, two_n, two_m in ((HYDROGEN, 4, 4), (HYDROGEN, 5, 0),
                                     (ring_half, 1, 1), (ring_half, 6, 1)):
            with pytest.raises(QuantumNumberError):
                cg_oracle(params, two_n, two_m)

    def test_matrix_orthogonality_random_systems(self):
        rng = np.random.default_rng(8)
        for _ in range(12):
            two_s = int(rng.integers(-2, 3))
            params = SystemParams(two_s=two_s, c1=rng.uniform(0, 2),
                                  c2=rng.uniform(0, 2))
            two_m = two_s + 2 * int(rng.integers(-2, 3))
            dc = derive_constants(params, two_m)
            d = int(rng.integers(1, 9))
            two_n = dc.two_m_plus + 2 * d
            w = expansion_matrix(params, two_n, two_m).entries
            assert np.abs(w.T @ w - np.eye(d)).max() <= 1e-10
            assert np.abs(w @ w.T - np.eye(d)).max() <= 1e-10


class TestCGForm:
    def test_integer_case_matches_racah_oracle(self):
        # hydrogen: W = (-1)^{n1} C(a alpha; b beta | c gamma) with
        # a = b = (n-1)/2, alpha = (|m|+n2-n1)/2, beta = (|m|+n1-n2)/2,
        # c = j, gamma = |m|
        for n in range(1, 5):
            for m in range(-(n - 1), n):
                d = n - abs(m)
                w = cg_oracle(HYDROGEN, 2 * n, 2 * m)
                for k in range(d):
                    j = abs(m) + k
                    for n1 in range(d):
                        n2 = d - 1 - n1
                        ref = (-1.0) ** n1 * cg_exact(
                            n - 1, abs(m) + n2 - n1, n - 1, abs(m) + n1 - n2,
                            2 * j, 2 * abs(m))
                        assert w[k, n1] == approx(ref, rel=1e-15, abs=1e-15)

    def test_single_state_block_phase(self):
        assert cg_oracle(HYDROGEN, 2, 0)[0, 0] == 1.0

    def test_agrees_with_direct_form(self):
        # the 3F2 closed form, at 60 digits with the ring constants derived
        # at that precision, against the exact CG form
        rng = np.random.default_rng(31)
        for _ in range(120):
            two_s = int(rng.integers(-2, 3))
            params = SystemParams(two_s=two_s, c1=rng.uniform(0, 1.5),
                                  c2=rng.uniform(0, 1.5))
            two_m = two_s + 2 * int(rng.integers(-3, 4))
            dc = derive_constants(params, two_m)
            d = int(rng.integers(1, 7))
            two_n = dc.two_m_plus + 2 * d
            n1 = int(rng.integers(0, d))
            k = int(rng.integers(0, d))
            direct = w_mpmath(two_s, params.c1, params.c2, two_n, dc.two_m_plus + 2 * k,
                              n1, two_m)
            assert cg_oracle(params, two_n, two_m)[k, n1] == approx(direct, rel=1e-13,
                                                                     abs=1e-15)


class TestInverseExpansion:
    def test_single_state_block(self):
        assert np.array_equal(inverse_expansion_matrix(HYDROGEN, 2, 0).entries, np.ones((1, 1)))

    def test_transpose_relation(self):
        params = SystemParams(two_s=1, c1=0.4, c2=0.2)
        w = expansion_matrix(params, 7, 1)
        wt = inverse_expansion_matrix(params, 7, 1)
        assert np.array_equal(wt.entries, w.entries.T)
        assert wt.row_labels == w.col_labels
        assert wt.col_labels == w.row_labels

    def test_row_orthogonality(self):
        # sum over n1 of Wt[n1, j] Wt[n1, j'] = delta_{jj'}
        rng = np.random.default_rng(77)
        for _ in range(8):
            two_s = int(rng.integers(-1, 3))
            params = SystemParams(two_s=two_s, c1=rng.uniform(0, 1),
                                  c2=rng.uniform(0, 1))
            two_m = two_s
            dc = derive_constants(params, two_m)
            d = int(rng.integers(1, 6))
            wt = inverse_expansion_matrix(params, dc.two_m_plus + 2 * d, two_m).entries
            assert np.abs(wt.T @ wt - np.eye(d)).max() <= 1e-10


class TestRadialOverlap:
    def test_hydrogen_ground_state_direct(self):
        # integral of (2 e^{-r})^2 is 2, matching 2/(n_eff^3 (2j+1))
        assert radial_overlaps(HYDROGEN, 2, 0)[0, 0] == approx(2.0, rel=1e-12)
        assert closed_radial_overlap(HYDROGEN, 2, 0, 0) == approx(2.0)

    def test_hydrogen_n3_off_diagonal_vanishes(self):
        table = radial_overlaps(HYDROGEN, 6, 0)   # rows and columns j = 0, 1, 2
        for ka, kb in [(0, 1), (0, 2), (1, 2)]:
            assert abs(table[ka, kb]) <= 1e-9

    def test_perturbed_half_integer_diagonal(self):
        params = SystemParams(two_s=1, c1=0.2)
        dc = derive_constants(params, 1)
        table = radial_overlaps(params, 7, 1)
        for k in range(len(table)):
            closed = closed_radial_overlap(params, 7, 1, dc.two_m_plus + 2 * k)
            assert table[k, k] == approx(closed, abs=1e-9)

    def test_closed_form_value(self):
        # n = 3, j = j' = 1 hydrogen: (2/27)/3 = 2/81
        assert closed_radial_overlap(HYDROGEN, 6, 0, 2) == approx(2.0 / 81.0, rel=1e-15)
        assert radial_overlaps(HYDROGEN, 6, 0)[1, 1] == approx(2.0 / 81.0, rel=1e-11)


class TestCompleteness:
    def test_parabolic_reconstruction(self):
        rng = np.random.default_rng(55)
        for params, two_n, two_m in [
            (HYDROGEN, 6, 0),
            (SystemParams(two_s=1, c1=0.3, c2=0.7), 7, 1),
            (SystemParams(two_s=0, c1=1.1, c2=0.2), 8, -2),
        ]:
            w = expansion_matrix(params, two_n, two_m).entries
            level = _States(params).levels([(two_n, two_m)])
            assert _completeness_residual(level, w[None], _completeness_draws(rng, 1)) <= 1e-8


class TestEigenvectorMatrix:
    """Production W: eigenvectors of the Runge-Lenz matrix X, signed by its recursion."""

    @pytest.mark.parametrize("d", [20, 30, 60])
    def test_matches_high_precision_closed_form(self, d, rng):
        for two_s, c1, c2, two_m in [(0, 0.3, 0.7, 0), (1, 0.3, 0.7, -3)]:
            params = SystemParams(two_s=two_s, c1=c1, c2=c2)
            two_m_plus = derive_constants(params, two_m).two_m_plus
            two_n = two_m_plus + 2 * d
            w = expansion_matrix(params, two_n, two_m).entries
            for k, n1 in rng.integers(0, d, size=(6, 2)):
                ref = w_mpmath(two_s, c1, c2, two_n, two_m_plus + 2 * int(k),
                               int(n1), two_m)
                assert abs(w[k, n1] - ref) <= 1e-13

    def test_orthogonal_at_large_dimension(self):
        params = SystemParams(two_s=0, c1=0.3, c2=0.7)
        w = expansion_matrix(params, 600, 0).entries
        assert w.shape == (300, 300)
        assert np.abs(w.T @ w - np.eye(300)).max() <= 1e-13

    def test_diagonalizes_runge_lenz_in_n1_order(self):
        for params, two_n, two_m in [
            (HYDROGEN, 16, 2),
            (SystemParams(two_s=1, c1=0.3, c2=0.7), 41, -3),
            (SystemParams(two_s=2, c1=1.5, c2=0.0), 124, 4),
        ]:
            w = expansion_matrix(params, two_n, two_m).entries
            blk = block(params, two_n, two_m)
            d = blk.dim
            x = np.diag(blk.x_diag) + np.diag(blk.x_off, 1) + np.diag(blk.x_off, -1)
            betas = [parabolic_separation_constant(params, ParabolicQN(n1, d - 1 - n1, two_m))
                     for n1 in range(d)]
            assert np.abs(w.T @ x @ w - np.diag(betas)).max() <= 1e-12
            assert np.all(w[0, :] > 0.0)

    def test_single_state_block(self):
        params = SystemParams(two_s=1, c1=0.4, c2=0.1)
        dc = derive_constants(params, 3)
        w = expansion_matrix(params, dc.two_m_plus + 2, 3)
        assert w.dim == 1 and np.array_equal(w.entries, np.ones((1, 1)))

    @pytest.mark.parametrize("params", grid_cases(), ids=repr)
    def test_agrees_with_exact_closed_form_up_to_d20(self, params):
        # the CG form is exact and rounded once, so W must match it to rounding
        two_m_values = range(params.two_s - 4, params.two_s + 5, 2)
        for two_n, two_m in blocks_by_dimension(params, range(1, 21), two_m_values):
            w = expansion_matrix(params, two_n, two_m).entries
            assert np.abs(w - cg_oracle(params, two_n, two_m)).max() <= 1e-14

    def test_moved_entry_fails_the_exact_comparison(self):
        # negative control: W with one entry moved by 1e-12 is caught at 1e-14
        params = SystemParams(two_s=1, c1=0.3, c2=0.7)
        w = expansion_matrix(params, 21, 1).entries.copy()
        w[3, 5] += 1e-12
        assert np.abs(w - cg_oracle(params, 21, 1)).max() > 1e-14

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 13: bands relative to a known "
                       "spectral origin; W loses digits from c1 = 1e8 and block() refuses "
                       "most blocks at c1 = 1e300")
    def test_matches_exact_closed_form_at_huge_strengths(self):
        # item 13's first "Done when": every n <= 8 block within 1e-14 of the exact
        # form at s = 0 and 1/2, c2 = 0 and 0.7, c1 from 1e4 to 1e300, and at
        # c1 = c2 = 1e200; a refused block fails it too
        points = [SystemParams(two_s=two_s, c1=c1, c2=c2) for two_s in (0, 1)
                  for c2 in (0.0, 0.7) for c1 in (1e4, 1e8, 1e12, 1e30, 1e100, 1e200, 1e300)]
        points += [SystemParams(two_s=two_s, c1=1e200, c2=1e200) for two_s in (0, 1)]
        worst, refused = 0.0, []
        for params in points:
            for two_n, two_m in blocks_up_to(params, 8):
                try:
                    w = expansion_matrix(params, two_n, two_m).entries
                except ValueError:
                    refused.append((params, two_n, two_m))
                    continue
                worst = max(worst, np.abs(w - cg_oracle(params, two_n, two_m)).max())
        assert refused == [] and worst <= 1e-14

    def test_equality_by_labels_and_bits(self):
        params = SystemParams(two_s=1, c1=0.3, c2=0.7)
        w = expansion_matrix(params, 9, 1)
        again = expansion_matrix(params, 9, 1)
        assert w is not again and w == again and not w != again
        assert w != inverse_expansion_matrix(params, 9, 1)     # labels swapped
        assert w != expansion_matrix(params, 11, 1)             # other shape
        flipped = interbasis.ExpansionMatrix(w.dim, w.entries * -1.0, w.row_labels, w.col_labels)
        assert w != flipped and w != w.entries and w != None   # noqa: E711
        # bit for bit: -0.0 is not 0.0, and a NaN equals the same NaN
        zero = interbasis.ExpansionMatrix(1, np.array([[0.0]]), ("j=0",), ("n1=0",))
        assert zero != interbasis.ExpansionMatrix(1, np.array([[-0.0]]), ("j=0",), ("n1=0",))
        nan = interbasis.ExpansionMatrix(1, np.array([[np.nan]]), ("j=0",), ("n1=0",))
        assert nan == interbasis.ExpansionMatrix(1, np.array([[np.nan]]), ("j=0",), ("n1=0",))
        with pytest.raises(TypeError, match="unhashable"):
            hash(w)

    def test_overflowing_bands_name_the_strengths(self):
        # at c1 = 1e300 the coupling's product of six factors of order 1e150
        # overflows; the n = 1 block has no coupling and stays finite
        params = SystemParams(two_s=0, c1=1e300)
        assert np.isfinite(block(params, 2, 0).x_diag).all()
        with pytest.raises(ValueError, match=r"c1=1e\+300, c2=0 are too large: "
                                             r"the bands of the n=2, m=0 block overflow"):
            block(params, 4, 0)
        with pytest.raises(ValueError, match=r"c1=0, c2=1e\+300 .* n=3, m=0 block"):
            expansion_matrix(SystemParams(two_s=0, c2=1e300), 6, 0)

    @pytest.mark.parametrize("accepted, refused", [((1e152, 1e152), (1e154, 1e154)),
                                                   ((1e204, 0.0), (1e206, 0.0)),
                                                   ((1e204, 0.7), (1e206, 0.7))])
    def test_overflow_edge_is_set_by_the_spherical_bands(self, accepted, refused):
        # the n = 4, m = 0 block at s = 0, c two decades apart: block() refuses
        # once its own bands overflow, and verify's parabolic-side bands are
        # still finite on both sides of that edge, so checking them too, as
        # block() once did, would refuse at the same c
        blk = block(SystemParams(two_s=0, c1=accepted[0], c2=accepted[1]), 8, 0)
        assert np.isfinite(np.concatenate([blk.angular, blk.x_diag, blk.x_off])).all()
        with pytest.raises(ValueError, match=r"too large: the bands of the n=4, m=0 block"):
            block(SystemParams(two_s=0, c1=refused[0], c2=refused[1]), 8, 0)
        for c1, c2 in (accepted, refused):
            dc = derive_constants(SystemParams(two_s=0, c1=c1, c2=c2), 0)
            assert np.isfinite(np.concatenate(_parabolic_side(dc, 8))).all()


# (c1, d) at s = 0, m = 0, c2 = 0.7 where W's j = m_plus entries lie below rounding:
# signed by those entries as computed, 10, 1, 1 and 18 columns were flipped
STRONG_RINGS = [(1e4, 64), (1e6, 32), (1e8, 32), (1e8, 64)]


@functools.cache
def strong_ring(c1, d):
    """Production W and its exact continued-CG form for the s = 0, m = 0 block of
    dimension d at c1 and c2 = 0.7."""
    params = SystemParams(two_s=0, c1=c1, c2=0.7)
    dc = derive_constants(params, 0)
    two_n = dc.two_m_plus + 2 * d
    return expansion_matrix(params, two_n, 0).entries, clebsch_gordan_block(dc, two_n)


def assert_exact_signs(w, exact):
    """Each column of ``w`` has the sign of ``exact``'s column at its largest entry."""
    at = np.argmax(np.abs(exact), axis=0), range(len(exact))
    assert np.array_equal(np.sign(w[at]), np.sign(exact[at]))


class TestSignsAtStrongRings:
    """X's recursion signs every column of W, also where the first entries it
    fixes positive lie below rounding."""

    def test_matches_exact_form_at_c1_1e4_d_64(self):
        w, exact = strong_ring(1e4, 64)
        assert np.abs(w - exact).max() <= 1e-14

    @pytest.mark.parametrize("c1, d", STRONG_RINGS)
    def test_every_column_has_the_exact_sign(self, c1, d):
        assert_exact_signs(*strong_ring(c1, d))

    @pytest.mark.parametrize("c1, d", STRONG_RINGS)
    def test_signs_read_off_first_entries_fail(self, c1, d):
        # negative control: W re-signed by its first entries as computed
        w, exact = strong_ring(c1, d)
        with pytest.raises(AssertionError):
            assert_exact_signs(sign_by_first_component(w.T).T, exact)


def assert_rows_equal_up_to_sign(vectors, reference):
    """Each row of ``vectors`` is that of ``reference`` or its negation, exactly."""
    same = (vectors == reference).all(axis=-1)
    assert (same | (vectors == -reference).all(axis=-1)).all()


class TestEigenStack:
    """The stacked dense ``eigh`` against scipy's ``dstevd`` wrapper, double for
    double: the eigenvalues bit-equal, each eigenvector up to its sign."""

    @pytest.mark.parametrize("d", [*range(1, 41), 64, 127])
    def test_bit_equal_to_eigh_tridiagonal(self, d):
        rng = np.random.default_rng(d)
        diags = rng.standard_normal((3, d)) * 10.0 ** rng.integers(-3, 4, (3, 1))
        for offdiags in (rng.standard_normal(d - 1), rng.standard_normal((3, d - 1))):
            lambdas, vectors = _eigh_stack(diags, offdiags)
            for p in range(3):
                off = offdiags if offdiags.ndim == 1 else offdiags[p]
                w, v = scipy.linalg.eigh_tridiagonal(diags[p], off, lapack_driver="stevd")
                assert np.array_equal(lambdas[p], w)
                assert_rows_equal_up_to_sign(vectors[p], v.T)

    @pytest.mark.parametrize("d", [2, 7])
    def test_bit_equal_across_chunks(self, d):
        points = 2 * interbasis._CHUNK + 3
        rng = np.random.default_rng(points + d)
        diags = rng.standard_normal((points, d))
        for offdiags in (rng.standard_normal(d - 1), rng.standard_normal((points, d - 1))):
            lambdas, vectors = _eigh_stack(diags, offdiags)
            assert lambdas.shape == (points, d) and vectors.shape == (points, d, d)
            for p in range(points):
                off = offdiags if offdiags.ndim == 1 else offdiags[p]
                w, v = scipy.linalg.eigh_tridiagonal(diags[p], off, lapack_driver="stevd")
                assert np.array_equal(lambdas[p], w)
                assert_rows_equal_up_to_sign(vectors[p], v.T)

    @pytest.mark.parametrize("d", [*range(1, 41), 64, 127])
    def test_values_only_bit_equal_to_sterf(self, d):
        rng = np.random.default_rng(d)
        diags = rng.standard_normal((3, d)) * 10.0 ** rng.integers(-3, 4, (3, 1))
        for offdiags in (rng.standard_normal(d - 1), rng.standard_normal((3, d - 1))):
            lambdas, vectors = _eigh_stack(diags, offdiags, vectors=False)
            assert vectors is None
            for p in range(3):
                off = offdiags if offdiags.ndim == 1 else offdiags[p]
                w = scipy.linalg.eigvalsh_tridiagonal(diags[p], off, lapack_driver="sterf")
                assert np.array_equal(lambdas[p], w)

    @pytest.mark.parametrize("d", [2, 7])
    def test_values_only_bit_equal_across_chunks(self, d):
        points = 2 * interbasis._CHUNK + 3
        rng = np.random.default_rng(points + d)
        diags = rng.standard_normal((points, d))
        for offdiags in (rng.standard_normal(d - 1), rng.standard_normal((points, d - 1))):
            lambdas, vectors = _eigh_stack(diags, offdiags, vectors=False)
            assert lambdas.shape == (points, d) and vectors is None
            for p in range(points):
                off = offdiags if offdiags.ndim == 1 else offdiags[p]
                w = scipy.linalg.eigvalsh_tridiagonal(diags[p], off, lapack_driver="sterf")
                assert np.array_equal(lambdas[p], w)

    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_band_raises(self, d, bad):
        for vectors in (True, False):
            diags, offdiags = np.ones((2, d)), np.full(d - 1, 0.5)
            diags[1, -1] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                _eigh_stack(diags, offdiags, vectors)
            if d > 1:
                diags[1, -1] = 1.0
                offdiags[0] = bad
                with pytest.raises(ValueError, match="infs or NaNs"):
                    _eigh_stack(diags, offdiags, vectors)

    def test_convergence_failure_raises(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        for vectors in (True, False):
            with pytest.raises(RuntimeError, match="failed to converge.*dimension 3"):
                _eigh_stack(np.ones((2, 3)), np.ones(2), vectors)
        with pytest.raises(RuntimeError, match="failed to converge"):
            expansion_matrix(HYDROGEN, 6, 0)
