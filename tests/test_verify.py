import collections
import hashlib
import math
import re
import sys

import numpy as np
import pytest
from pytest import approx
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_genlaguerre, roots_jacobi, roots_legendre

from conftest import (
    blocks_up_to,
    grid_cases,
    limit_deviations,
    parabolic_bands,
    reference_eigensolve,
)

import mickepler.bases as bases
import mickepler.cli as cli
import mickepler.interbasis as interbasis
from mickepler.bases import (
    angular_profile,
    parabolic_factor,
    parabolic_profile,
    parabolic_state,
    psi_parabolic,
    psi_spherical,
    radial_r,
    spherical_state,
)
from mickepler.coords import SphericalPoint, spherical_to_parabolic
from mickepler.interbasis import block
from mickepler.qnum import (
    QuantumNumberError,
    SystemParams,
    _block_dimension,
    _n_effective,
    derive_constants,
    enumerate_blocks,
)
from mickepler.spheroidal import solve
import mickepler.verify as verify
from mickepler.verify import _aligned_deviation
from mickepler.verify import CheckReport, run_suite, summary_table, to_json_lines

HYDROGEN = SystemParams(two_s=0)
RING_HALF = SystemParams(two_s=1, c1=0.3, c2=0.7)
R_LIST = [0.1, 1.0, 10.0, 100.0]


def laguerre_integral(f, scale, order, power=0.0):
    """Integral of f over (0, inf) for f ~ r^power e^(-scale r) q(r), by the
    suite's rescaled Gauss-Laguerre rule after the substitution t = scale r."""
    t, w = verify._laguerre(order, power)
    return float(np.sum(w * f(t / scale)) / scale)


class TestQuadratureRules:
    """The scipy rules the suite's self-test and its cached rules are built from."""

    def test_legendre_invariants(self):
        nodes, weights = roots_legendre(64)
        assert weights.min() > 0.0
        assert nodes.min() > -1.0 and nodes.max() < 1.0
        worst = 0.0
        for k in range(128):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            approx_val = float(np.sum(weights * nodes**k))
            worst = max(worst, abs(approx_val - exact) / max(abs(exact), 1.0))
        assert worst <= 1e-12

    def test_laguerre_invariants(self):
        nodes, weights = roots_genlaguerre(64, 0.0)
        assert weights.min() > 0.0
        assert nodes.min() > 0.0
        worst = 0.0
        for k in range(128):
            log_terms = np.log(weights) + k * np.log(nodes)
            top = log_terms.max()
            value = math.exp(top) * float(np.exp(log_terms - top).sum())
            exact = math.factorial(k)
            worst = max(worst, abs(value - exact) / exact)
        assert worst <= 1e-12

    def test_generalized_laguerre_moment(self):
        # the rescaled weighted rule integrates t^alpha e^{-t} t^k exactly
        alpha = 1.095
        t, w = verify._laguerre(32, alpha)
        for k in range(5):
            value = float(np.sum(w * t**(alpha + k) * np.exp(-t)))
            exact = math.exp(math.lgamma(alpha + k + 1.0))
            assert value == approx(exact, rel=1e-13)

    def test_rules_are_cached(self):
        assert verify._jacobi(9, 0.37, 1.5) is verify._jacobi(9, 0.37, 1.5)
        assert verify._laguerre(40, 0.5) is verify._laguerre(40, 0.5)


class TestIntegrateRadial:
    def test_plain_exponential(self):
        for scale in (1.0, 0.5, 2.0):
            assert laguerre_integral(lambda r: np.exp(-r), scale, 128) == approx(
                1.0, rel=1e-11)

    def test_hydrogen_ground_density(self):
        value = laguerre_integral(lambda r: 4.0 * r * r * np.exp(-2.0 * r), 2.0, 128)
        assert value == approx(1.0, rel=1e-13)

    def test_biorthogonality_target_value(self):
        # hydrogen n=3, j=j'=1 unweighted radial overlap equals 2/81
        level = verify._States(HYDROGEN).levels([(6, 0)])
        assert verify._biorthogonality(level)[0, 1, 1] == approx(2.0 / 81.0, rel=1e-11)

    def test_fractional_power_exactness(self):
        power = 2.769
        value = laguerre_integral(lambda r: r**power * np.exp(-1.3 * r), 1.3, 128, power)
        exact = math.exp(math.lgamma(power + 1.0)) / 1.3 ** (power + 1.0)
        assert value == approx(exact, rel=1e-13)


def completeness_point_loop(params, two_n, two_m, rng, w, npoints=20):
    """Reference: one scalar draw triple and one psi call per state and point."""
    dc = derive_constants(params, two_m)
    d = _block_dimension(dc, two_n)
    sph = [spherical_state(params, two_n, dc.two_m_plus + 2 * k, two_m) for k in range(d)]
    par = [parabolic_state(params, n1, d - 1 - n1, two_m) for n1 in range(d)]
    scale = _n_effective(dc, two_n) ** 2
    worst = 0.0
    for _ in range(npoints):
        point = SphericalPoint(r=scale * rng.uniform(0.05, 3.0),
                               theta=math.acos(rng.uniform(-1.0, 1.0)),
                               phi=rng.uniform(0.0, 2.0 * math.pi))
        ppoint = spherical_to_parabolic(point)
        sph_values = np.array([psi_spherical(st, point) for st in sph])
        for n1, st in enumerate(par):
            worst = max(worst, abs(psi_parabolic(st, ppoint) - np.dot(w[:, n1], sph_values)))
    return worst


def test_completeness_residual_matches_point_loop():
    # with W's columns rolled the residual is O(1) and depends on every drawn
    # r and theta (phi enters only through the block's common phase), so
    # agreement shows the same points and the same maximum; the generator
    # state shows the same number of draws
    params = SystemParams(two_s=1, c1=0.3, c2=0.7)
    two_n, two_m = 9, 1
    rolled = np.roll(interbasis.expansion_matrix(params, two_n, two_m).entries, 1, axis=1)
    rng_new, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    (got,) = verify._completeness_residual(verify._States(params).levels([(two_n, two_m)]),
                                           rolled[None], verify._completeness_draws(rng_new, 1))
    expected = completeness_point_loop(params, two_n, two_m, rng_ref, rolled)
    assert expected > 1e-3
    assert got == approx(expected, rel=1e-12)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


class TestCheckReport:
    def test_pass_iff_within_tolerance(self):
        r1 = CheckReport("x", "ctx", 1e-9, 1e-8, True)
        assert r1.residual <= r1.tolerance
        reports = run_suite(HYDROGEN, n_max=2, r_list=[1.0])
        for r in reports:
            assert r.passed == (r.residual <= r.tolerance)
            assert r.residual >= 0.0


class TestRunSuite:
    def test_hydrogen_all_pass(self):
        reports = run_suite(HYDROGEN, n_max=3, r_list=[0.1, 1.0, 10.0])
        assert reports and all(r.passed for r in reports)

    def test_perturbed_half_integer_all_pass(self):
        reports = run_suite(SystemParams(two_s=1, c1=0.3, c2=0.7),
                            n_max=3, r_list=[0.1, 10.0])
        assert reports and all(r.passed for r in reports)

    def test_no_block_label_is_built(self, monkeypatch):
        # labels name the rows and columns of printed tables; the suite prints none
        read = []
        for name in ("spherical_labels", "parabolic_labels"):
            monkeypatch.setattr(interbasis.Block, name,
                                property(lambda blk, name=name: read.append(name)))
        reports = run_suite(SystemParams(two_s=0, c1=0.3, c2=0.7), n_max=4, r_list=[1.0])
        assert reports and read == []

    def test_deterministic_output(self):
        a = to_json_lines(run_suite(HYDROGEN, n_max=2, r_list=[1.0], seed=3))
        b = to_json_lines(run_suite(HYDROGEN, n_max=2, r_list=[1.0], seed=3))
        assert a == b

    def test_single_state_blocks_trivial(self):
        # s = 0, n = 1 has only the d = 1 block: algebraic residuals vanish
        reports = run_suite(HYDROGEN, n_max=1, r_list=[1.0])
        for r in reports:
            if r.check_id in ("spheroidal.basis_change", "spheroidal.spectrum_equality"):
                assert r.residual == 0.0

    def test_expected_check_families(self):
        reports = run_suite(HYDROGEN, n_max=2, r_list=[1.0])
        ids = {r.check_id for r in reports}
        for expected in [
            "quad.legendre.monomials", "quad.laguerre.monomials",
            "kernel.laguerre.exact", "kernel.jacobi.exact", "kernel.bailey",
            "bases.angular.orthonormality", "bases.radial.orthonormality",
            "bases.parabolic.normalization", "interbasis.biorthogonality",
            "interbasis.orthogonality", "interbasis.cg_equivalence",
            "interbasis.overlap", "interbasis.completeness",
            "spheroidal.runge_lenz_spectrum", "spheroidal.angular_spectrum",
            "spheroidal.r_linearity", "spheroidal.spectrum_equality",
            "spheroidal.basis_change", "spheroidal.normalization",
            "spheroidal.limits", "spheroidal.limit_scaling",
        ]:
            assert expected in ids, expected

    def test_sorted_and_exhaustive(self):
        reports = run_suite(HYDROGEN, n_max=2, r_list=[0.5, 5.0])
        keys = [(r.check_id, r.context) for r in reports]
        assert keys == sorted(keys)
        # one spectrum-equality entry per (block, R): blocks n=2 has 3 m-values,
        # n=1 has one, times two R values
        count = sum(r.check_id == "spheroidal.spectrum_equality" for r in reports)
        assert count == 4 * 2

    def test_negative_control_corrupted_mixing_matrix(self, monkeypatch):
        # the suite reads W from the one eigensolve that also gives eig(X)
        real = verify._mixing_matrix

        def corrupted(x_diag, x_off):
            w, x_eigs = real(x_diag, x_off)
            w[:, 0, 0] += 1e-3
            return w, x_eigs

        monkeypatch.setattr(verify, "_mixing_matrix", corrupted)
        reports = run_suite(HYDROGEN, n_max=2, r_list=[1.0])
        failed = {r.check_id for r in reports if not r.passed}
        assert {"interbasis.orthogonality", "interbasis.cg_equivalence"} <= failed
        # the suite's one W is also the one the quadrature checks compare against
        assert {"interbasis.overlap", "interbasis.completeness"} <= failed

    def test_negative_control_shifted_runge_lenz_spectrum(self, monkeypatch):
        real = verify._mixing_matrix

        def shifted(x_diag, x_off):
            w, x_eigs = real(x_diag, x_off)
            return w, x_eigs + 1e-8

        monkeypatch.setattr(verify, "_mixing_matrix", shifted)
        failed = {r.check_id for r in run_suite(HYDROGEN, n_max=3, r_list=R_LIST)
                  if not r.passed}
        assert failed == {"spheroidal.runge_lenz_spectrum"}

    @staticmethod
    def _corrupt_stack_at(monkeypatch, r_values, corrupt):
        """Make the suite's stacked eigensolve pass its rows at the given R
        values through ``corrupt(lambdas_par, u, p)``."""
        real = verify._eigensolve

        def corrupted(diag, off, parabolic, r_stack):
            lambdas, lambdas_par, u, v = real(diag, off, parabolic, r_stack)
            for p, R in enumerate(r_stack):
                if R in r_values:
                    for b in range(len(u)):   # every block of the stack
                        corrupt(lambdas_par[b], u[b], p)
            return lambdas, lambdas_par, u, v

        monkeypatch.setattr(verify, "_eigensolve", corrupted)

    def test_negative_control_shifted_r0_parabolic_spectrum(self, monkeypatch):
        def shift(lambdas_par, u, p):
            lambdas_par[p] += 1e-8

        self._corrupt_stack_at(monkeypatch, {0.0}, shift)
        failed = {r.check_id for r in run_suite(HYDROGEN, n_max=3, r_list=R_LIST)
                  if not r.passed}
        assert failed == {"spheroidal.angular_spectrum"}

    def test_negative_control_moved_limit_probe_vector(self, monkeypatch):
        def move(lambdas_par, u, p):
            u[p, 0, 0] += 1e-3

        self._corrupt_stack_at(monkeypatch, {1e-7}, move)
        failed = {r.check_id for r in run_suite(HYDROGEN, n_max=3, r_list=R_LIST)
                  if not r.passed}
        assert failed == {"spheroidal.limit_scaling"}

    def test_negative_control_scaled_kummer(self, monkeypatch):
        # the self-check compares the production Laguerre kernel with its exact
        # polynomial; scaling the kernel moves every quadrature check by far less
        # than its tolerance
        real = verify._laguerre_factor
        monkeypatch.setattr(verify, "_laguerre_factor",
                            lambda *labels: real(*labels) * (1.0 + 1e-10))
        reports = run_suite(HYDROGEN, n_max=2, r_list=R_LIST)
        assert {r.check_id for r in reports if not r.passed} == {"kernel.laguerre.exact"}
        (laguerre,) = [r for r in reports if r.check_id == "kernel.laguerre.exact"]
        # the kernel's own rounding, at most a few 1e-14 of the row max, rides on top
        assert laguerre.residual == approx(1e-10, rel=1e-3)

    def test_negative_control_tilted_laguerre_kernel(self, monkeypatch):
        real = verify._laguerre_factor
        monkeypatch.setattr(verify, "_laguerre_factor",
                            lambda n, c, power, log_const, scale, x:
                            real(n, c, power, log_const, scale, x) * (1.0 + 1e-9 * (scale * x)))
        failed = {r.check_id for r in verify._check_kernel(np.random.default_rng(0))
                  if not r.passed}
        assert failed == {"kernel.laguerre.exact"}

    def test_negative_control_swapped_angular_powers(self, monkeypatch):
        real = verify._angular
        monkeypatch.setattr(verify, "_angular",
                            lambda k, m1, m2, log_norm, theta: real(k, m2, m1, log_norm, theta))
        failed = {r.check_id for r in verify._check_kernel(np.random.default_rng(0))
                  if not r.passed}
        assert failed == {"kernel.jacobi.exact"}

    def test_laguerre_check_fails_at_radial_quantum_number_500(self):
        # the radial function of n_r = 500 at 17 points across its support: the kernel
        # returns NaN at the last five, where its polynomial overflows while the
        # envelope underflows; the exact polynomial times the envelope stays finite
        labels = bases._radial_labels(spherical_state(HYDROGEN, 1004, 2, 0))
        assert labels[0] == 500
        n, c, power, log_const, scale = (np.array([[label]]) for label in labels)
        t = np.linspace(1.0, 2000.0, 17)[None]
        kernel = bases._laguerre_factor(*labels, t[0] / labels[4])
        assert np.isnan(kernel).sum() == 5
        deviation = verify._laguerre_deviation(n, c, power, log_const, scale, t / scale)
        assert not verify._report("kernel.laguerre.exact", "", deviation.max(),
                                  verify.TOL_QUADRATURE).passed

    def test_self_checks_do_not_move_the_completeness_points(self, monkeypatch):
        # the kernel self-checks draw from a generator of their own
        def completeness():
            return {r.context: r.residual for r in run_suite(RING_HALF, n_max=3, r_list=[1.0])
                    if r.check_id == "interbasis.completeness"}

        def more_draws(rng):
            rng.uniform(size=1000)
            return []

        before = completeness()
        monkeypatch.setattr(verify, "_check_kernel", more_draws)
        assert completeness() == before

    def test_json_lines_round_trip(self):
        import json
        reports = run_suite(HYDROGEN, n_max=1, r_list=[1.0])
        lines = to_json_lines(reports).splitlines()
        assert len(lines) == len(reports)
        parsed = [json.loads(line) for line in lines]
        for rec, rep in zip(parsed, reports):
            assert rec["check_id"] == rep.check_id
            assert rec["residual"] == rep.residual

    def test_summary_table_counts(self):
        reports = run_suite(HYDROGEN, n_max=1, r_list=[1.0])
        table = summary_table(reports)
        lines = table.splitlines()
        assert len(lines) == len(reports) + 1
        assert lines[-1] == f"checks: {len(reports)}  passed: {len(reports)}  failed: 0"


class TestBlockCores:
    """The suite's block-taking cores against the per-call forms they replace."""

    CASES = [(params, two_n, two_m) for params in (HYDROGEN, RING_HALF)
             for two_n, two_m in enumerate_blocks(params, 5)]
    # d = 16, 24 and 40 at m = s, where U's rounding passes through a larger W
    LARGE_CASES = [(SystemParams(two_s=two_s, c1=0.3, c2=0.7), two_s + 2 * d, two_s)
                   for two_s in (0, 1) for d in (16, 24, 40)]

    def test_biorthogonality_table_matches_scalar_integral(self):
        for params, two_n, two_m in self.CASES:
            level = verify._States(params).levels([(two_n, two_m)])
            table = verify._biorthogonality(level)[0]
            for ka, sa in enumerate(level.sph):
                for kb, sb in enumerate(level.sph):
                    # R_j R_j' is r^(j + j' + delta) e^(-2 eps r) times two Laguerre
                    # polynomials, of degrees n - j - 1 and n - j' - 1, on its own rule
                    two_j, two_jp = sa.qn.two_j, sb.qn.two_j
                    scalar = laguerre_integral(
                        lambda r: bases.radial_r(sa, r) * bases.radial_r(sb, r), 2.0 * sa.eps,
                        verify._gauss_order(two_n - 2 - (two_j + two_jp) // 2),
                        (two_j + two_jp) / 2.0 + level.dcs[0].delta_total)
                    assert abs(table[ka, kb] - scalar) <= 1e-14

    def test_stacked_eigensolve_is_bit_equal_to_solve(self):
        # solve's lambdas and U are the suite's; its V is U times W with signs fixed,
        # and the suite's own parabolic-side solve agrees with it to rounding
        for params, two_n, two_m in self.CASES + self.LARGE_CASES:
            blk = block(params, two_n, two_m)
            lambdas, lambdas_par, u, v = reference_eigensolve(params, two_n, two_m, R_LIST)
            w = interbasis._mixing_matrix(blk.x_diag[None], blk.x_off[None])[0][0]
            v_from_u = interbasis._fix_signs(np.einsum("pqk,kn->pqn", u, w))
            for p, R in enumerate(R_LIST):
                sol = solve(params, two_n, two_m, R)
                assert np.array_equal(lambdas[p], sol.lambdas)
                assert np.array_equal(u[p].T, sol.spherical_coefficients.entries)
                assert np.array_equal(v_from_u[p].T, sol.parabolic_coefficients.entries)
                assert _aligned_deviation(v[p].T, sol.parabolic_coefficients.entries) <= 1e-13
                # the parabolic spectrum is the one scipy returns for that side alone
                par_diag, par_off = parabolic_bands(params, two_n, two_m, R)
                assert np.array_equal(lambdas_par[p],
                                      eigh_tridiagonal(par_diag, par_off)[0])

    def test_block_limits_are_bit_equal_to_limits(self):
        # the suite's stacked probes against the four deviations of each probe pair alone
        for params in (HYDROGEN, RING_HALF):
            residuals = {(r.check_id, r.context): r.residual
                         for r in run_suite(params, n_max=5, r_list=R_LIST)}
            for two_n, two_m in enumerate_blocks(params, 5):
                d = block(params, two_n, two_m).dim
                if d < 2:
                    continue
                ctx = verify._context(verify._params_context(params), two_m=two_m, two_n=two_n)
                inner = limit_deviations(params, two_n, two_m, 1e-6, 1e6)
                outer = limit_deviations(params, two_n, two_m, 1e-7, 1e7)
                ratio = max((outer[k] / inner[k] for k in range(4) if inner[k] > 0.0),
                            default=0.0)
                assert residuals["spheroidal.limit_scaling", ctx] == ratio
                if d == 2:
                    assert residuals["spheroidal.limits", ctx] == inner.max()

    def test_staged_overlap_matches_five_operand_einsum(self):
        for params, two_n, two_m in self.CASES:
            level = verify._States(params).levels([(two_n, two_m)])
            if len(level.sph) > 4:
                continue
            # the block's own Gauss-Jacobi rule: d nodes, weight (1-x)^m2 (1+x)^m1
            # divided out of the weights
            m1, m2 = level.dcs[0].m1, level.dcs[0].m2
            x, w_jacobi = roots_jacobi(len(level.sph), m2, m1)
            w_x = w_jacobi / ((1.0 - x) ** m2 * (1.0 + x) ** m1)
            theta = np.arccos(x)
            r = level.r[0][:, None]
            ang = np.array([angular_profile(st, theta) for st in level.sph])
            pab = np.array([parabolic_profile(st, r * (1.0 + x), r * (1.0 - x))
                            for st in level.par])
            reference = math.sqrt(2.0 * math.pi) * np.einsum(
                "i,ji,k,jk,lik->jl", (level.w_r * level.r * level.r)[0], level.rad[0],
                w_x, ang, pab)
            staged = verify._overlap_matrix(level)[0]
            assert np.abs(staged - reference).max() <= 1e-14 * np.abs(reference).max()

    def test_radial_gram_matches_pairwise_integrals(self):
        # reference: one laguerre_integral per pair, each on its own nodes, with
        # the weight exponent 2 m_plus + delta of the block's level tables and
        # the chain's order (2k + 2 + 2 n_r,max) // 2 + 1, k = j - m_plus
        for params, two_m, two_j in ((HYDROGEN, 0, 0), (HYDROGEN, 2, 2),
                                     (RING_HALF, 1, 1), (RING_HALF, -3, 3)):
            dc = verify.derive_constants(params, two_m)
            n_list = list(range(two_j + 2, 14, 2))
            states = [spherical_state(params, tn, two_j, two_m) for tn in n_list]
            k = (two_j - dc.two_m_plus) // 2
            n_r_max = (n_list[-1] - two_j - 2) // 2
            order = (2 * k + 2 + 2 * n_r_max) // 2 + 1
            gram = np.array([[laguerre_integral(
                lambda r, a=a, b=b: bases.radial_r(a, r) * bases.radial_r(b, r) * r * r,
                a.eps + b.eps, order, dc.two_m_plus + dc.delta_total)
                for b in states] for a in states])
            expected = float(np.abs(gram - np.eye(len(states))).max())
            got = verify._identity_deviation(
                verify._radial_gram(verify._States(params), dc, two_j, n_list))
            assert got == approx(expected, rel=1e-12, abs=1e-15)


class TestBatchedRows:
    """The public bases functions over a list of states, as verify calls them,
    against the per-state calls: each row equal bit for bit, t = 0 and
    theta = 0, pi included."""

    R = np.array([0.0, 1e-3, 0.5, 3.0, 17.0, 60.0])
    THETA = np.array([0.0, 1e-3, 0.7, 0.5 * math.pi, 2.4, math.pi])
    X = np.array([0.0, 0.02, 1.3, 8.0, 45.0])
    # 36 spherical points, with a leading axis of length 1 for the rows
    POINT = SphericalPoint(r=np.repeat(R, 6)[None], theta=np.tile(THETA, 6)[None],
                           phi=np.linspace(0.0, 6.0, 36)[None])

    @pytest.mark.parametrize("params", grid_cases(), ids=repr)
    def test_rows_equal_per_state_calls(self, params):
        states = verify._States(params)
        zero_powers = set()
        for two_n, two_m in blocks_up_to(params, 8):
            lv = states.levels([(two_n, two_m)])
            dc = lv.dcs[0]
            zero_powers |= {axis for axis, m_i in enumerate((dc.m1, dc.m2)) if m_i == 0.0}
            radial = radial_r(lv.sph, self.R[None])
            angular = angular_profile(lv.sph, self.THETA[None])
            # per-state points, as the radial Gram matrix passes them
            own_r = np.outer(np.arange(1.0, len(lv.sph) + 1.0), self.R)
            radial_own = radial_r(lv.sph, own_r)
            for k, st in enumerate(lv.sph):
                assert np.array_equal(radial[k], radial_r(st, self.R))
                assert np.array_equal(radial_own[k], radial_r(st, own_r[k]))
                assert np.array_equal(lv.rad[0, k], radial_r(st, lv.r[0]))
                assert np.array_equal(angular[k], angular_profile(st, self.THETA))
            for axis in (0, 1):
                factors = parabolic_factor(lv.par, axis, self.X[None])
                for k, st in enumerate(lv.par):
                    assert np.array_equal(factors[k], parabolic_factor(st, axis, self.X))
            xi, eta = np.meshgrid(self.X, self.X[::-1])
            profiles = parabolic_profile(lv.par, xi[None], eta[None])
            ppoint = spherical_to_parabolic(self.POINT)
            psi_sph = psi_spherical(lv.sph, self.POINT)
            psi_par = psi_parabolic(lv.par, ppoint)
            for k, st in enumerate(lv.par):
                assert np.array_equal(profiles[k], parabolic_profile(st, xi, eta))
                assert np.array_equal(psi_par[k], psi_parabolic(st, ppoint)[0])
            for k, st in enumerate(lv.sph):
                assert np.array_equal(psi_sph[k], psi_spherical(st, self.POINT)[0])
        # the power-0 branch of both parabolic factors is among the cases
        if params.c1 == params.c2 == 0.0:
            assert zero_powers == {0, 1}

    @pytest.mark.parametrize("params", [HYDROGEN, RING_HALF], ids=repr)
    def test_radial_chain_has_its_own_eps_per_row(self, params):
        # a _radial_gram chain: one j, several n, so eps and the degree change per row
        two_m = params.two_s
        two_j = derive_constants(params, two_m).two_m_plus + 2
        chain = [spherical_state(params, two_n, two_j, two_m)
                 for two_n in range(two_j + 2, two_j + 12, 2)]
        assert len({st.eps for st in chain}) == len(chain)
        own_r = np.outer(np.arange(1.0, len(chain) + 1.0), self.R)
        for r in (self.R[None], own_r):
            rows = radial_r(chain, r)
            for k, st in enumerate(chain):
                assert np.array_equal(rows[k], radial_r(st, r[min(k, len(r) - 1)]))
        # a scalar point gives one value per state, each the per-state float
        assert radial_r(chain, 1.3).tolist() == [radial_r(st, 1.3) for st in chain]

    @pytest.mark.parametrize("params", [HYDROGEN, RING_HALF], ids=repr)
    def test_profile_list_from_two_levels(self, params):
        # the levels d = 2 and d = 5 of one m, whose states have two eps
        par = [parabolic_state(params, n1, d - 1 - n1, params.two_s)
               for d in (2, 5) for n1 in range(d)]
        assert len({st.eps for st in par}) == 2
        xi, eta = np.meshgrid(self.X, self.X[::-1])
        profiles = parabolic_profile(par, xi[None], eta[None])
        for k, st in enumerate(par):
            assert np.array_equal(profiles[k], parabolic_profile(st, xi, eta))

    @pytest.mark.parametrize("params", [HYDROGEN, RING_HALF], ids=repr)
    def test_psi_list_mixing_two_m(self, params):
        # states of two m have two windings m - s, each row with its own phase
        two_n = params.two_s % 2 + 8
        sph, par = [], []
        for two_m in (params.two_s - 2, params.two_s + 2):
            dc = derive_constants(params, two_m)
            d = (two_n - dc.two_m_plus) // 2
            sph += [spherical_state(params, two_n, dc.two_m_plus + 2 * k, two_m)
                    for k in range(d)]
            par += [parabolic_state(params, n1, d - 1 - n1, two_m) for n1 in range(d)]
        assert len({st.qn.two_m for st in sph}) == len({st.qn.two_m for st in par}) == 2
        ppoint = spherical_to_parabolic(self.POINT)
        psi_sph = psi_spherical(sph, self.POINT)
        psi_par = psi_parabolic(par, ppoint)
        for k, st in enumerate(sph):
            assert np.array_equal(psi_sph[k], psi_spherical(st, self.POINT)[0])
        for k, st in enumerate(par):
            assert np.array_equal(psi_par[k], psi_parabolic(st, ppoint)[0])


def test_suite_builds_one_laguerre_rule_per_exponent():
    # one rule per distinct (order, exponent) the suite asks for: per block
    # the level rule (d + 1 nodes, exponent 2 m_plus + delta) and the
    # parabolic-norm rules (d, m1) and (d, m2); per chain j of an m the
    # radial Gram rule of the level exponent with k + 2 + n_r,max nodes,
    # k = j - m_plus; and the self-test's 64-node rule of exponent 0
    blocks = enumerate_blocks(RING_HALF, 8)
    rules = {(64, 0.0)}
    for two_n, two_m in blocks:
        dc = verify.derive_constants(RING_HALF, two_m)
        d = (two_n - dc.two_m_plus) // 2
        power = dc.two_m_plus + dc.delta_total
        rules |= {(d + 1, power), (d, dc.m1), (d, dc.m2)}
        two_n_max = max(tn for tn, tm in blocks if tm == two_m)
        for two_j in range(dc.two_m_plus, two_n - 1, 2):
            k = (two_j - dc.two_m_plus) // 2
            rules.add((k + 2 + (two_n_max - two_j - 2) // 2, power))
    verify._laguerre.cache_clear()
    run_suite(RING_HALF, n_max=8, r_list=R_LIST)
    assert verify._laguerre.cache_info().misses == len(rules)


def test_rule_memos_are_bounded_and_hold_a_benchmark_pass():
    # each ring strength brings rules of its own weights, so a scan over c1
    # would keep every rule it built in an unbounded memo
    memos = (verify._laguerre, verify._jacobi)
    for k in range(20):
        run_suite(SystemParams(two_s=0, c1=0.3 + 0.01 * k, c2=0.7), n_max=3, r_list=[1.0])
    for memo in memos:
        info = memo.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
    # verify --n-max 8 at both benchmark points: the bound holds all their rules,
    # so a second pass over them builds none
    for memo in memos:
        memo.cache_clear()
    misses = []
    for _ in range(2):
        for params in (RING_HALF, HYDROGEN):
            run_suite(params, n_max=8, r_list=R_LIST)
        misses.append([memo.cache_info().misses for memo in memos])
    assert misses[0] == misses[1]


def test_suite_builds_each_block_and_state_once(monkeypatch):
    counts = {name: collections.Counter()
              for name in ("block", "spherical_state", "parabolic_state")}
    reals = {"block": interbasis.block, "spherical_state": bases.spherical_state,
             "parabolic_state": bases.parabolic_state}

    def counting(name, real):
        def wrapper(params, *labels):
            counts[name][labels] += 1
            return real(params, *labels)
        return wrapper

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").split(".")[0] != "mickepler":
            continue
        for name, real in reals.items():
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting(name, real))

    # per block dimension d, one eigensolve for W and eig(X) of all its blocks,
    # and one per side over their stacked R axes
    eigensolves = collections.Counter()
    real_eigh_stack = interbasis._eigh_stack

    def counting_eigh_stack(diags, offdiags):
        eigensolves["calls"] += 1
        return real_eigh_stack(diags, offdiags)

    for module in (interbasis, verify, sys.modules["mickepler.spheroidal"]):
        if getattr(module, "_eigh_stack", None) is real_eigh_stack:
            monkeypatch.setattr(module, "_eigh_stack", counting_eigh_stack)

    reports = run_suite(RING_HALF, n_max=4, r_list=R_LIST)
    blocks = enumerate_blocks(RING_HALF, 4)
    assert len(reports) == 285
    assert counts["block"] == collections.Counter(dict.fromkeys(blocks, 1))
    dims = {block(RING_HALF, two_n, two_m).dim for two_n, two_m in blocks}
    assert eigensolves["calls"] == 3 * len(dims) < 3 * len(blocks)
    assert not hasattr(verify, "eigvalsh_tridiagonal")
    for name in ("spherical_state", "parabolic_state"):
        assert counts[name] and max(counts[name].values()) == 1, name


def test_suite_eigensolves_once_per_block_dimension(monkeypatch):
    # every eigensolve the suite makes, W's in interbasis included: at most three
    # per distinct d, not three per block (56 blocks of 7 dimensions here)
    calls = collections.Counter()
    real = interbasis._eigh_stack

    def counting(diags, offdiags, *args, **kwargs):
        calls[diags.shape[-1]] += 1
        return real(diags, offdiags, *args, **kwargs)

    for module in (interbasis, verify, sys.modules["mickepler.spheroidal"]):
        monkeypatch.setattr(module, "_eigh_stack", counting)
    run_suite(RING_HALF, n_max=8, r_list=R_LIST)
    dims = {block(RING_HALF, two_n, two_m).dim for two_n, two_m in enumerate_blocks(RING_HALF, 8)}
    assert len(dims) == 7 and set(calls) == dims
    assert max(calls.values()) <= 3


# the points of the derived-order checks: (s, c1, c2) = (1/2, .3, .7),
# (0, .3, .7) and (1, 0, .5)
ORDER_POINTS = [SystemParams(two_s=1, c1=0.3, c2=0.7), SystemParams(two_s=0, c1=0.3, c2=0.7),
                SystemParams(two_s=2, c1=0.0, c2=0.5)]


def quadrature_matrices(params, n_max=8):
    """Every quadrature matrix behind the suite's checks at n <= n_max, by key."""
    states = verify._States(params)
    blocks = enumerate_blocks(params, n_max)
    matrices = {}
    for two_n, two_m in blocks:
        level = states.levels([(two_n, two_m)])
        matrices["biorthogonality", two_n, two_m] = verify._biorthogonality(level)[0]
        matrices["overlap", two_n, two_m] = verify._overlap_matrix(level)[0]
        matrices["parabolic_norms", two_n, two_m] = verify._parabolic_norms(level)[0]
    for two_m in sorted({two_m for _, two_m in blocks}):
        dc = verify.derive_constants(params, two_m)
        matrices["angular_gram", two_m] = verify._angular_gram(states, dc)
        n_list = [two_n for two_n, tm in blocks if tm == two_m]
        for two_j in range(dc.two_m_plus, max(n_list) - 1, 2):
            chain = [two_n for two_n in n_list if two_n >= two_j + 2]
            matrices["radial_gram", two_m, two_j] = verify._radial_gram(
                states, dc, two_j, chain)
    return matrices


class TestDerivedOrders:
    def test_eight_more_nodes_move_no_matrix(self, monkeypatch):
        # each rule is exact for its integrand, so more nodes change only rounding
        real = verify._gauss_order
        for params in ORDER_POINTS:
            derived = quadrature_matrices(params)
            with monkeypatch.context() as patch:
                patch.setattr(verify, "_gauss_order", lambda degree: real(degree) + 8)
                richer = quadrature_matrices(params)
            assert derived.keys() == richer.keys()
            for key, matrix in derived.items():
                assert matrix.shape == richer[key].shape, key
                assert np.abs(matrix - richer[key]).max() <= 1e-13, key

    def test_orders_follow_the_integrand_degree(self):
        level = verify._States(RING_HALF).levels([(9, 1)])   # n = 9/2, d = 4
        assert level.r.shape == (1, 5)
        assert verify._gauss_order(0) == 1
        assert verify._gauss_order(7) == 4
        assert verify._gauss_order(8) == 5
        assert verify._gauss_order(254) == verify.DEFAULT_RADIAL_ORDER
        for degree in (256, 10**6):
            with pytest.raises(ValueError, match=f"degree {degree} .*DEFAULT_RADIAL_ORDER"):
                verify._gauss_order(degree)

    def test_blocks_past_the_node_cap_are_refused(self):
        # hydrogen n = 127 (d = 127) is the largest block whose rules all fit
        states = verify._States(HYDROGEN)
        assert np.abs(verify._parabolic_norms(states.levels([(254, 0)])) - 1.0).max() <= 1e-12
        with pytest.raises(ValueError, match="DEFAULT_RADIAL_ORDER"):
            states.levels([(258, 0)])
        with pytest.raises(ValueError, match="DEFAULT_RADIAL_ORDER"):
            run_suite(HYDROGEN, n_max=128, r_list=R_LIST)

    def test_huge_ranges_are_refused_before_enumerating(self, monkeypatch):
        # the O(n_max^2) blocks of n_max = 1e9 would never be enumerated
        def no_enumeration(*args):
            raise AssertionError("enumerate_blocks was called")

        monkeypatch.setattr(verify, "enumerate_blocks", no_enumeration)
        for params in (HYDROGEN, RING_HALF, SystemParams(two_s=-3)):
            with pytest.raises(ValueError, match="DEFAULT_RADIAL_ORDER"):
                run_suite(params, 1e9, [1.0])
        # the cap is the largest block, at m = s: n = 129/2 at s = 1/2 fits (d = 64)
        with pytest.raises(AssertionError, match="enumerate_blocks"):
            run_suite(RING_HALF, 64.5, [1.0])

    @pytest.mark.parametrize("n_max", [math.inf, math.nan])
    def test_non_finite_n_max_is_refused(self, n_max):
        # checked where enumerate_blocks checks it, before the rules are sized
        with pytest.raises(QuantumNumberError, match=f"n_max must be finite, got {n_max:g}"):
            run_suite(HYDROGEN, n_max, R_LIST)

    def test_empty_r_list_is_refused(self):
        # no R would leave no per-R spheroidal check, and the rest would all PASS
        with pytest.raises(ValueError, match="r_list must hold at least one R"):
            run_suite(HYDROGEN, 2, [])

    def test_perturbed_radial_polynomial_fails_the_quadrature_checks(self, monkeypatch):
        # the suite evaluates every radial and parabolic factor through the public
        # bases functions, which share one Laguerre kernel; its argument is t = scale * x
        real = bases._laguerre_factor
        monkeypatch.setattr(bases, "_laguerre_factor",
                            lambda n, c, power, log_const, scale, x:
                            real(n, c, power, log_const, scale, x) * (1.0 + 1e-6 * (scale * x)))
        failed = {r.check_id for r in run_suite(RING_HALF, n_max=4, r_list=R_LIST)
                  if not r.passed}
        assert {"interbasis.biorthogonality", "interbasis.overlap",
                "bases.radial.orthonormality", "bases.parabolic.normalization"} <= failed

    def test_perturbed_angular_profile_fails_angular_orthonormality(self, monkeypatch):
        # the suite evaluates every angular profile through the one angular kernel
        real = bases._angular
        monkeypatch.setattr(bases, "_angular",
                            lambda k, m1, m2, log_norm, theta:
                            real(k, m1, m2, log_norm, theta) * (1.0 + 1e-6 * theta))
        failed = {r.check_id for r in run_suite(RING_HALF, n_max=4, r_list=R_LIST)
                  if not r.passed}
        assert "bases.angular.orthonormality" in failed


# checks per family of verify --n-max 8 at both benchmark points together
BENCHMARK_REPORT_COUNTS = {
    "bases.angular.orthonormality": 29, "bases.parabolic.normalization": 120,
    "bases.radial.orthonormality": 120, "interbasis.biorthogonality": 120,
    "interbasis.cg_equivalence": 120, "interbasis.completeness": 120,
    "interbasis.orthogonality": 120, "interbasis.overlap": 92, "kernel.bailey": 2,
    "kernel.jacobi.exact": 2, "kernel.laguerre.exact": 2,
    "quad.laguerre.monomials": 2, "quad.legendre.monomials": 2,
    "spheroidal.angular_spectrum": 120, "spheroidal.basis_change": 480,
    "spheroidal.limit_scaling": 91, "spheroidal.limits": 25,
    "spheroidal.normalization": 480, "spheroidal.r_linearity": 120,
    "spheroidal.runge_lenz_spectrum": 120, "spheroidal.spectrum_equality": 480,
}
# sha256 of both reports, one line after the other, with the residual= fields removed
BENCHMARK_REPORT_SHA256 = "f16b792c96c0ba11986a45ff11b56d0c4a01421dc5267172f6b1492d1082973f"


def test_verify_report_at_benchmark_points(capsys):
    # verify --n-max 8 at both benchmark points: 2767 checks, and the only
    # FAILs are spheroidal.limits in three blocks (both signs of m) per point;
    # every status, check id, context and tolerance is pinned, only residual
    # digits may move
    known = {f"s={s} c1={c1} c2={c2} n={n} m={sign}{m}"
             for s, c1, c2, blocks in (
                 ("1/2", "0.3", "0.7", (("11/2", "7/2"), ("13/2", "9/2"), ("15/2", "11/2"))),
                 ("0", "0", "0", (("6", "4"), ("7", "5"), ("8", "6"))))
             for n, m in blocks for sign in ("-", "")}
    lines = []
    for s, c1, c2 in (("1/2", "0.3", "0.7"), ("0", "0", "0")):
        code = cli.main(["verify", "--s", s, "--c1", c1, "--c2", c2,
                         "--n-max", "8", "--seed", "0"])
        lines += capsys.readouterr().out.splitlines()
        assert code == 1
    checks = [line for line in lines if line.startswith(("PASS", "FAIL"))]
    fails = [line for line in checks if line.startswith("FAIL")]
    assert len(checks) == 2767
    assert sorted(line.split()[1] for line in fails) == ["spheroidal.limits"] * 12
    assert {" ".join(line.split()[2:-2]) for line in fails} == known
    assert collections.Counter(line.split()[1] for line in checks) == BENCHMARK_REPORT_COUNTS
    stripped = "\n".join(re.sub(r" residual=\S+", "", line) for line in lines)
    assert hashlib.sha256(stripped.encode()).hexdigest() == BENCHMARK_REPORT_SHA256
