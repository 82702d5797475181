"""Which verify families catch which fault.

Each row patches one fault into the name the suite actually reaches, runs
``run_suite(n_max=5)`` at three (s, c) points with the CLI default R list,
and pins the exact set of families that newly FAIL: a (family, context)
report that passes without the fault and fails with it.  A family that
stops reaching the production code it checks drops out of its rows.
"""

import pytest

import mickepler.bases as bases
import mickepler.verify as verify
from mickepler.qnum import SystemParams
from mickepler.verify import run_suite

POINTS = [SystemParams(two_s=0, c1=0.3, c2=0.7), SystemParams(two_s=1),
          SystemParams(two_s=2, c1=2.5, c2=0.1)]
R_LIST = [0.1, 1.0, 10.0, 100.0]   # the CLI default


def _failing(params):
    return {(r.check_id, r.context) for r in run_suite(params, n_max=5, r_list=R_LIST)
            if not r.passed}


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


def _scale_laguerre_factor(real):
    """Every radial function and both parabolic factors times (1 + 1e-6)."""
    return lambda *labels: real(*labels) * (1.0 + 1e-6)


FAULTS = {
    "w_columns_swapped": (verify, "_mixing_matrix", _swap_w_columns, {
        "interbasis.cg_equivalence", "interbasis.completeness", "interbasis.overlap",
        "spheroidal.basis_change", "spheroidal.limits", "spheroidal.limit_scaling"}),
    "radial_and_parabolic_factors_scaled": (bases, "_laguerre_factor", _scale_laguerre_factor, {
        "bases.parabolic.normalization", "bases.radial.orthonormality",
        "interbasis.biorthogonality", "interbasis.completeness", "interbasis.overlap"}),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_is_caught_by_exactly_its_families(fault, baseline, monkeypatch):
    module, name, make, families = FAULTS[fault]
    monkeypatch.setattr(module, name, make(getattr(module, name)))
    newly = set()
    for params in POINTS:
        newly |= {check_id for check_id, _ in _failing(params) - baseline[params]}
    assert newly == families
