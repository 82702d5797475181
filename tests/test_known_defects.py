"""Every open defect with a measured case, as a strict xfail.

Each test states the ROADMAP item's "Done when" on one case and fails on its
assertion today; the fix that meets it makes the test pass, and strict mode
then fails the run until the marker is removed.  RuntimeWarnings are
silenced, so each fails on its assertion and not on a warning on the way.
"""

import math

import numpy as np
import pytest

from mickepler.bases import radial_r, spherical_state
from mickepler.cli import main
from mickepler.qnum import SystemParams
from mickepler.verify import run_suite

RING = SystemParams(two_s=0, c1=0.3, c2=0.7)
CLI_R_LIST = [0.1, 1.0, 10.0, 100.0]   # verify's default R list

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def defect(item, what):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"ROADMAP item {item}: {what}")


@defect(1, "spheroidal.limits is held to a fixed 1e-5, not to its first-order "
        "prediction (32 FAILs at n_max = 20)")
def test_suite_passes_at_n_max_20():
    failed = [r.context for r in run_suite(RING, n_max=20, r_list=CLI_R_LIST) if not r.passed]
    assert failed == []


@defect(3, "the radial Laguerre factor overflows to NaN from n_r ~ 250 (1,284 of "
        "2000 points at n_r = 500)")
def test_radial_function_is_finite_at_n_r_500():
    n_r, two_j = 500, 4
    state = spherical_state(RING, 2 * (n_r + 3), two_j, 0)
    r = np.linspace(0.5, 4.0 * (n_r + 3) ** 2, 2000)
    assert np.isfinite(radial_r(state, r)).all()


@defect(11, "the quadrature weights overflow from c1 ~ 1e4, so residuals turn NaN "
        "(99 of 586)")
def test_suite_residuals_are_finite_at_c1_1e4():
    reports = run_suite(SystemParams(two_s=0, c1=1e4, c2=0.7), n_max=5, r_list=CLI_R_LIST)
    assert [r.context for r in reports if not math.isfinite(r.residual)] == []


@defect(14, "scipy's Gauss rules scale their weights by an overflowing mu0 at "
        "s = 90 (563 FAILs)")
def test_verify_passes_at_s_90(capsys):
    assert main(["verify", "--s", "90", "--n-max", "91"]) == 0
