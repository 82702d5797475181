import collections
import dataclasses
import math
import sys

import numpy as np
from pytest import approx
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_jacobi

import mickepler.bases as bases
import mickepler.cli as cli
import mickepler.interbasis as interbasis
from mickepler.bases import (
    angular_profile,
    parabolic_profile,
    parabolic_state,
    psi_parabolic,
    psi_spherical,
    spherical_state,
)
from mickepler.coords import SphericalPoint, spherical_to_parabolic
from mickepler.interbasis import block, expansion_matrix
from mickepler.qnum import SystemParams, enumerate_basis, enumerate_blocks, n_effective
from mickepler.spheroidal import _eigensolve, _limits, limits, solve
import mickepler.verify as verify
from mickepler.verify import (
    CheckReport,
    completeness_residual,
    gauss_laguerre,
    gauss_legendre,
    integrate_radial,
    radial_overlap_integral,
    run_suite,
    summary_table,
    to_json_lines,
)

HYDROGEN = SystemParams(two_s=0)
RING_HALF = SystemParams(two_s=1, c1=0.3, c2=0.7)
R_LIST = [0.1, 1.0, 10.0, 100.0]


class TestQuadratureRules:
    def test_legendre_invariants(self):
        rule = gauss_legendre(64)
        assert rule.weights.min() > 0.0
        assert rule.nodes.min() > -1.0 and rule.nodes.max() < 1.0
        worst = 0.0
        for k in range(128):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            approx_val = float(np.sum(rule.weights * rule.nodes**k))
            worst = max(worst, abs(approx_val - exact) / max(abs(exact), 1.0))
        assert worst <= 1e-12

    def test_laguerre_invariants(self):
        rule = gauss_laguerre(64)
        assert rule.weights.min() > 0.0
        assert rule.nodes.min() > 0.0
        worst = 0.0
        for k in range(128):
            log_terms = np.log(rule.weights) + k * np.log(rule.nodes)
            top = log_terms.max()
            value = math.exp(top) * float(np.exp(log_terms - top).sum())
            exact = math.factorial(k)
            worst = max(worst, abs(value - exact) / exact)
        assert worst <= 1e-12

    def test_generalized_laguerre_moment(self):
        # weighted rule integrates t^alpha e^{-t} t^k exactly
        alpha = 1.095
        rule = gauss_laguerre(32, alpha)
        for k in range(5):
            value = float(np.sum(rule.weights * rule.nodes**k))
            exact = math.exp(math.lgamma(alpha + k + 1.0))
            assert value == approx(exact, rel=1e-13)

    def test_rules_are_cached(self):
        assert gauss_legendre(40) is gauss_legendre(40)
        assert gauss_laguerre(40, 0.5) is gauss_laguerre(40, 0.5)


class TestIntegrateRadial:
    def test_plain_exponential(self):
        for scale in (1.0, 0.5, 2.0):
            assert integrate_radial(lambda r: np.exp(-r), scale) == approx(
                1.0, rel=1e-11)

    def test_hydrogen_ground_density(self):
        value = integrate_radial(lambda r: 4.0 * r * r * np.exp(-2.0 * r), 2.0)
        assert value == approx(1.0, rel=1e-13)

    def test_biorthogonality_target_value(self):
        # hydrogen n=3, j=j'=1 unweighted radial overlap equals 2/81
        assert radial_overlap_integral(HYDROGEN, 6, 0, 2, 2) == approx(
            2.0 / 81.0, rel=1e-11)

    def test_fractional_power_exactness(self):
        power = 2.769
        value = integrate_radial(lambda r: r**power * np.exp(-1.3 * r), 1.3,
                                 singular_power=power)
        exact = math.exp(math.lgamma(power + 1.0)) / 1.3 ** (power + 1.0)
        assert value == approx(exact, rel=1e-13)


def completeness_point_loop(params, two_n, two_m, rng, w, npoints=20):
    """Reference: one scalar draw triple and one psi call per state and point."""
    sph_qns, par_qns = enumerate_basis(params, two_m, two_n)
    sph = [spherical_state(params, q.two_n, q.two_j, q.two_m) for q in sph_qns]
    par = [parabolic_state(params, q.n1, q.n2, q.two_m) for q in par_qns]
    scale = n_effective(params, two_m, two_n) ** 2
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


def test_completeness_residual_matches_point_loop(monkeypatch):
    # with W's columns rolled the residual is O(1) and depends on every drawn
    # r and theta (phi enters only through the block's common phase), so
    # agreement shows the same points and the same maximum; the generator
    # state shows the same number of draws
    params = SystemParams(two_s=1, c1=0.3, c2=0.7)
    two_n, two_m = 9, 1
    real = verify.expansion_matrix

    def rolled(params, two_n, two_m):
        mat = real(params, two_n, two_m)
        return dataclasses.replace(mat, entries=np.roll(mat.entries, 1, axis=1))

    monkeypatch.setattr(verify, "expansion_matrix", rolled)
    rng_new, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    got = completeness_residual(params, two_n, two_m, rng_new)
    expected = completeness_point_loop(params, two_n, two_m, rng_ref,
                                       rolled(params, two_n, two_m).entries)
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
            "kernel.lngamma.recurrence", "kernel.jacobi.orthogonality",
            "kernel.jacobi.endpoint", "kernel.kummer.at_zero", "kernel.bailey",
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
        import mickepler.interbasis as interbasis
        real = interbasis.expansion_matrix

        def corrupted(params, two_n, two_m):
            mat = real(params, two_n, two_m)
            bad = mat.entries.copy()
            bad[0, 0] += 1e-3
            return type(mat)(dim=mat.dim, entries=bad,
                             row_labels=mat.row_labels, col_labels=mat.col_labels)

        monkeypatch.setattr(verify, "expansion_matrix", corrupted)
        reports = run_suite(HYDROGEN, n_max=2, r_list=[1.0])
        failed = {r.check_id for r in reports if not r.passed}
        assert "interbasis.orthogonality" in failed
        # the suite's one W is also the one the quadrature checks compare against
        assert {"interbasis.overlap", "interbasis.completeness"} <= failed

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

    def test_biorthogonality_table_matches_scalar_integral(self):
        for params, two_n, two_m in self.CASES:
            level = verify._States(params).level(two_n, two_m)
            table = verify._biorthogonality(level)
            for ka, sa in enumerate(level.sph):
                for kb, sb in enumerate(level.sph):
                    scalar = radial_overlap_integral(params, two_n, two_m,
                                                     sa.qn.two_j, sb.qn.two_j)
                    assert abs(table[ka, kb] - scalar) <= 1e-14

    def test_stacked_eigensolve_is_bit_equal_to_solve(self):
        for params, two_n, two_m in self.CASES:
            blk = block(params, two_n, two_m)
            lambdas, lambdas_par, u, v = _eigensolve(blk, R_LIST)
            for p, R in enumerate(R_LIST):
                sol = solve(params, two_n, two_m, R)
                assert np.array_equal(lambdas[p], sol.lambdas)
                assert np.array_equal(u[p].T, sol.spherical_coefficients.entries)
                assert np.array_equal(v[p].T, sol.parabolic_coefficients.entries)
                # the parabolic spectrum is the one scipy returns for that side alone
                par_diag, par_off = blk.parabolic_bands(R)
                assert np.array_equal(lambdas_par[p],
                                      eigh_tridiagonal(par_diag, par_off)[0])

    def test_block_limits_are_bit_equal_to_limits(self):
        for params, two_n, two_m in self.CASES:
            blk = block(params, two_n, two_m)
            w = expansion_matrix(params, two_n, two_m).entries
            for r_small, r_large in ((1e-6, 1e6), (1e-7, 1e7)):
                assert _limits(blk, w, r_small, r_large) == limits(
                    params, two_n, two_m, r_small, r_large)

    def test_staged_overlap_matches_five_operand_einsum(self):
        for params, two_n, two_m in self.CASES:
            level = verify._States(params).level(two_n, two_m)
            if len(level.sph) > 4:
                continue
            # the block's own Gauss-Jacobi rule: d nodes, weight (1-x)^m2 (1+x)^m1
            # divided out of the weights
            m1, m2 = level.dc.m1, level.dc.m2
            x, w_jacobi = roots_jacobi(len(level.sph), m2, m1)
            w_x = w_jacobi / ((1.0 - x) ** m2 * (1.0 + x) ** m1)
            theta = np.arccos(x)
            r = level.r[:, None]
            ang = np.array([angular_profile(st, theta) for st in level.sph])
            pab = np.array([parabolic_profile(st, r * (1.0 + x), r * (1.0 - x))
                            for st in level.par])
            reference = math.sqrt(2.0 * math.pi) * np.einsum(
                "i,ji,k,jk,lik->jl", level.w_r * level.r * level.r, level.rad,
                w_x, ang, pab)
            staged = verify.overlap_matrix_quadrature(params, two_n, two_m)
            assert np.abs(staged - reference).max() <= 1e-14 * np.abs(reference).max()

    def test_radial_gram_matches_pairwise_integrals(self):
        # reference: one integrate_radial per pair, each on its own nodes, with
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
            gram = np.array([[integrate_radial(
                lambda r, a=a, b=b: bases.radial_r(a, r) * bases.radial_r(b, r) * r * r,
                a.eps + b.eps, rule_order=order,
                singular_power=dc.two_m_plus + dc.delta_total)
                for b in states] for a in states])
            expected = float(np.abs(gram - np.eye(len(states))).max())
            got = verify.radial_gram_residual(params, two_m, two_j, n_list)
            assert got == approx(expected, rel=1e-12, abs=1e-15)


def test_suite_builds_one_laguerre_rule_per_exponent():
    # one rule per distinct (order, exponent) the suite asks for: per block
    # the level rule (d + 1 nodes, exponent 2 m_plus + delta) and the
    # parabolic-norm rules (d, m1) and (d, m2); per chain j of an m the
    # radial Gram rule of the level exponent with k + 2 + n_r,max nodes,
    # k = j - m_plus
    blocks = enumerate_blocks(RING_HALF, 8)
    rules = set()
    for two_n, two_m in blocks:
        dc = verify.derive_constants(RING_HALF, two_m)
        d = (two_n - dc.two_m_plus) // 2
        power = dc.two_m_plus + dc.delta_total
        rules |= {(d + 1, power), (d, dc.m1), (d, dc.m2)}
        two_n_max = max(tn for tn, tm in blocks if tm == two_m)
        for two_j in range(dc.two_m_plus, two_n - 1, 2):
            k = (two_j - dc.two_m_plus) // 2
            rules.add((k + 2 + (two_n_max - two_j - 2) // 2, power))
    gauss_laguerre.cache_clear()
    verify._laguerre.cache_clear()
    run_suite(RING_HALF, n_max=8, r_list=R_LIST)
    # one more rule: the order-64 self-test
    assert gauss_laguerre.cache_info().misses <= len(rules) + 1


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

    reports = run_suite(RING_HALF, n_max=4, r_list=R_LIST)
    assert len(reports) == 287
    assert set(counts["block"]) == set(enumerate_blocks(RING_HALF, 4))
    assert max(counts["block"].values()) <= 2
    for name in ("spherical_state", "parabolic_state"):
        assert counts[name] and max(counts[name].values()) == 1, name


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
        level = states.level(two_n, two_m)
        matrices["biorthogonality", two_n, two_m] = verify._biorthogonality(level)
        matrices["overlap", two_n, two_m] = verify._overlap_matrix(level)
        matrices["parabolic_norms", two_n, two_m] = verify._parabolic_norms(level)
    for two_m in sorted({two_m for _, two_m in blocks}):
        matrices["angular_gram", two_m] = verify._angular_gram(states, two_m, 5)
        dc = verify.derive_constants(params, two_m)
        n_list = [two_n for two_n, tm in blocks if tm == two_m]
        for two_j in range(dc.two_m_plus, max(n_list) - 1, 2):
            chain = [two_n for two_n in n_list if two_n >= two_j + 2]
            matrices["radial_gram", two_m, two_j] = verify._radial_gram(
                states, two_m, two_j, chain)
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
        level = verify._States(RING_HALF).level(9, 1)   # n = 9/2, d = 4
        assert level.r.shape == (5,)
        assert verify._gauss_order(0) == 1
        assert verify._gauss_order(7) == 4
        assert verify._gauss_order(8) == 5
        assert verify._gauss_order(10**6) == verify.DEFAULT_RADIAL_ORDER

    def test_perturbed_radial_polynomial_fails_the_quadrature_checks(self, monkeypatch):
        real = bases._kummer
        monkeypatch.setattr(bases, "_kummer",
                            lambda n, c, t: real(n, c, t) * (1.0 + 1e-6 * t))
        failed = {r.check_id for r in run_suite(RING_HALF, n_max=4, r_list=R_LIST)
                  if not r.passed}
        assert {"interbasis.biorthogonality", "interbasis.overlap",
                "bases.radial.orthonormality", "bases.parabolic.normalization"} <= failed

    def test_perturbed_angular_profile_fails_angular_orthonormality(self, monkeypatch):
        real = verify.angular_profile
        monkeypatch.setattr(verify, "angular_profile",
                            lambda state, theta: real(state, theta) * (1.0 + 1e-6 * theta))
        failed = {r.check_id for r in run_suite(RING_HALF, n_max=4, r_list=R_LIST)
                  if not r.passed}
        assert "bases.angular.orthonormality" in failed


def test_verify_report_at_benchmark_points(capsys):
    # verify --n-max 8 at both benchmark points: 2771 checks, and the only
    # FAILs are spheroidal.limits in three blocks (both signs of m) per point
    known = {f"s={s} c1={c1} c2={c2} n={n} m={sign}{m}"
             for s, c1, c2, blocks in (
                 ("1/2", "0.3", "0.7", (("11/2", "7/2"), ("13/2", "9/2"), ("15/2", "11/2"))),
                 ("0", "0", "0", (("6", "4"), ("7", "5"), ("8", "6"))))
             for n, m in blocks for sign in ("-", "")}
    checks, fails = 0, []
    for s, c1, c2 in (("1/2", "0.3", "0.7"), ("0", "0", "0")):
        code = cli.main(["verify", "--s", s, "--c1", c1, "--c2", c2,
                         "--n-max", "8", "--seed", "0"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        checks += len(lines) - 1
        fails += [line for line in lines if line.startswith("FAIL")]
    assert checks == 2771
    assert sorted(line.split()[1] for line in fails) == ["spheroidal.limits"] * 12
    assert {" ".join(line.split()[2:-2]) for line in fails} == known
