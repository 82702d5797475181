"""Which verify families catch which fault.

Each row patches one fault into the name the suite actually reaches, runs
``run_suite(n_max=5)`` at three (s, c) points with the CLI default R list,
and pins the exact set of families that newly FAIL: a (family, context)
report that passes without the fault and fails with it.  A family that
stops reaching the production code it checks drops out of its rows.

verify binds its imports when it loads, so a row that means to reach a
check through one of those names patches verify's binding, and a row that
means to reach the production code patches the name that code looks up.
"""

import dataclasses

import pytest

import mickepler.bases as bases
import mickepler.interbasis as interbasis
import mickepler.verify as verify
from mickepler.qnum import SystemParams
from mickepler.verify import run_suite

POINTS = [SystemParams(two_s=0, c1=0.3, c2=0.7), SystemParams(two_s=1),
          SystemParams(two_s=2, c1=2.5, c2=0.1)]
R_LIST = [0.1, 1.0, 10.0, 100.0]   # the CLI default


def _run(params):
    return run_suite(params, n_max=5, r_list=R_LIST)


def _failing(params):
    return {(r.check_id, r.context) for r in _run(params) if not r.passed}


@pytest.fixture(scope="module")
def baseline():
    return {params: _failing(params) for params in POINTS}


def _swap_w_columns(real):
    """verify's W with its columns n1 = 0 and 1 swapped, whatever the shape of the
    stack it comes in; a one-column W has nothing to swap."""
    def swapped(*args):
        w, x_eigs = real(*args)
        if w.shape[-1] >= 2:
            w[..., [0, 1]] = w[..., [1, 0]]
        return w, x_eigs
    return swapped


def _scaled(factor):
    """The patched function's value times ``factor``."""
    return lambda real: lambda *args: real(*args) * factor


def _block_field(field, change):
    """Every block verify builds with one of its bands changed."""
    def make(real):
        def faulty(*args):
            blk = real(*args)
            return dataclasses.replace(blk, **{field: change(getattr(blk, field))})
        return faulty
    return make


def _scale_m_off(real):
    """The off-diagonal of M, the parabolic side at R = 0, times (1 + 1e-6)."""
    def faulty(dc, two_n):
        m_diag, m_off, betas = real(dc, two_n)
        return m_diag, m_off * (1.0 + 1e-6), betas
    return faulty


def _swap_angular_indices(real):
    """The angular kernel with m1 and m2 swapped."""
    return lambda k, m1, m2, log_norm, theta: real(k, m2, m1, log_norm, theta)


def _shift_radial_log_constant(real):
    """Each radial function's stored log norm + 1e-9: its norm moves by 2e-9."""
    def faulty(state):
        n_r, c, power, log_const, scale = real(state)
        return n_r, c, power, log_const + 1e-9, scale
    return faulty


def _scale_off_band(real):
    """The spherical off-diagonal at R times (1 + 1e-15), a few ulps."""
    def faulty(self, R):
        diag, off = real(self, R)
        return diag, off * (1.0 + 1e-15)
    return faulty


def _scale_eigenvectors(real):
    """Every eigenvector of the stacked eigensolve times (1 + 1e-9)."""
    def faulty(diags, offdiags, vectors=True, **kwargs):
        lambdas, stack = real(diags, offdiags, vectors, **kwargs)
        return lambdas, stack * (1.0 + 1e-9)
    return faulty


def _shift_3f2(real):
    """verify's exact 3F2 sum plus 1e-6, as an exact fraction: a common factor on
    both sides of Bailey's identity would cancel, an added term does not."""
    def faulty(a, b, terms):
        num, den = real(a, b, terms)
        return num + den // 10**6, den
    return faulty


def _move_weight(real):
    """The order-64 rule with the weight of its 32nd node times (1 + 1e-6); the
    memoized arrays are copied, not changed."""
    def faulty(order, *exponents):
        nodes, weights = real(order, *exponents)
        if order == 64:
            weights = weights.copy()
            weights[32] *= 1.0 + 1e-6
        return nodes, weights
    return faulty


# name: (object patched, attribute, fault maker, families that newly FAIL)
FAULTS = {
    "w_columns_swapped": (verify, "_mixing_matrix", _swap_w_columns, {
        "interbasis.cg_equivalence", "interbasis.completeness", "interbasis.overlap",
        "spheroidal.basis_change", "spheroidal.limits", "spheroidal.limit_scaling"}),
    "radial_and_parabolic_factors_scaled": (bases, "_laguerre_factor", _scaled(1.0 + 1e-6), {
        "bases.parabolic.normalization", "bases.radial.orthonormality",
        "interbasis.biorthogonality", "interbasis.completeness", "interbasis.overlap"}),
    "coupling_scaled": (interbasis, "_coupling", _scaled(1.0 + 1e-6), {
        "interbasis.cg_equivalence", "interbasis.overlap", "spheroidal.basis_change",
        "spheroidal.limit_scaling", "spheroidal.runge_lenz_spectrum",
        "spheroidal.spectrum_equality"}),
    "x_diag_negated": (verify, "block", _block_field("x_diag", lambda x: -x), {
        "interbasis.cg_equivalence", "interbasis.completeness", "interbasis.overlap",
        "spheroidal.basis_change", "spheroidal.limit_scaling", "spheroidal.limits",
        "spheroidal.runge_lenz_spectrum", "spheroidal.spectrum_equality"}),
    "separation_constant_scaled": (verify, "_separation_constant", _scaled(1.0 + 1e-8), {
        "spheroidal.basis_change", "spheroidal.runge_lenz_spectrum",
        "spheroidal.spectrum_equality"}),
    "angular_band_shifted": (verify, "block", _block_field("angular", lambda a: a + 1e-6), {
        "spheroidal.angular_spectrum", "spheroidal.spectrum_equality"}),
    "m_off_scaled": (verify, "_parabolic_side", _scale_m_off, {
        "spheroidal.angular_spectrum", "spheroidal.basis_change", "spheroidal.limit_scaling",
        "spheroidal.spectrum_equality"}),
    "angular_factor_scaled": (bases, "_angular", _scaled(1.0 + 1e-6), {
        "bases.angular.orthonormality", "interbasis.completeness", "interbasis.overlap"}),
    "angular_factor_m1_m2_swapped": (bases, "_angular", _swap_angular_indices, {
        "bases.angular.orthonormality", "interbasis.completeness", "interbasis.overlap"}),
    # each norm moves by 2e-9, below TOL_QUAD_VS_CLOSED = 1e-8: the row records that
    # detection threshold, and nothing newly fails
    "radial_log_constant_shifted": (bases, "_radial_labels", _shift_radial_log_constant, set()),
    "spherical_off_band_scaled": (interbasis.Block, "spherical_bands", _scale_off_band, {
        "spheroidal.r_linearity"}),
    "w_eigenvectors_scaled": (interbasis, "_eigh_stack", _scale_eigenvectors, {
        "interbasis.cg_equivalence", "interbasis.orthogonality", "spheroidal.basis_change",
        "spheroidal.limit_scaling"}),
    "spheroidal_eigenvectors_scaled": (verify, "_eigh_stack", _scale_eigenvectors, {
        "spheroidal.limit_scaling", "spheroidal.normalization"}),
    "laguerre_kernel_scaled": (verify, "_laguerre_factor", _scaled(1.0 + 1e-10), {
        "kernel.laguerre.exact"}),
    "jacobi_kernel_scaled": (verify, "_angular", _scaled(1.0 + 1e-10), {"kernel.jacobi.exact"}),
    "hyp3f2_shifted": (verify, "hyp3f2_terminating", _shift_3f2, {"kernel.bailey"}),
    "legendre_weight_moved": (verify, "_jacobi", _move_weight, {"quad.legendre.monomials"}),
    "laguerre_weight_moved": (verify, "_laguerre", _move_weight, {"quad.laguerre.monomials"}),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_is_caught_by_exactly_its_families(fault, baseline, monkeypatch):
    target, name, make, families = FAULTS[fault]
    monkeypatch.setattr(target, name, make(getattr(target, name)))
    newly = set()
    for params in POINTS:
        newly |= {check_id for check_id, _ in _failing(params) - baseline[params]}
    assert newly == families


def test_every_family_is_caught_by_a_row():
    families = {r.check_id for params in POINTS for r in _run(params)}
    assert families == set().union(*(row[3] for row in FAULTS.values()))
