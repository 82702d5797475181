import mpmath
import numpy as np
import pytest

from mickepler.interbasis import block, expansion_matrix
from mickepler.qnum import SystemParams, derive_constants, enumerate_m_blocks
from mickepler.verify import _eigensolve, _limits, _parabolic_side

# parameter grid used by the acceptance criteria: three monopole numbers,
# unperturbed and perturbed ring strengths
GRID_TWO_S = (0, 1, 2)
GRID_C = ((0.0, 0.0), (0.3, 0.7))


def grid_cases():
    return [SystemParams(two_s=ts, c1=c1, c2=c2)
            for ts in GRID_TWO_S for (c1, c2) in GRID_C]


def blocks_up_to(params, n_max, d_max=None):
    """All (two_n, two_m) blocks with n <= n_max (optionally d <= d_max)."""
    out = []
    parity = params.two_s % 2
    for two_n in range(1, int(2 * n_max) + 1):
        if two_n % 2 != parity:
            continue
        for two_m in enumerate_m_blocks(params, two_n):
            d = (two_n - derive_constants(params, two_m).two_m_plus) // 2
            if d_max is None or d <= d_max:
                out.append((two_n, two_m))
    return out


def blocks_by_dimension(params, d_values, two_m_values):
    """Blocks (two_n, two_m) with prescribed dimensions at chosen m."""
    out = []
    for two_m in two_m_values:
        if (two_m - params.two_s) % 2 != 0:
            continue
        dc = derive_constants(params, two_m)
        for d in d_values:
            out.append((dc.two_m_plus + 2 * d, two_m))
    return out


def parabolic_bands(params, two_n, two_m, R):
    """Diagonal and off-diagonal of the block's parabolic side M + R diag(beta) at
    R, from the verify suite's reference bands."""
    m_diag, m_off, betas = _parabolic_side(derive_constants(params, two_m), two_n)
    return m_diag + R * betas, m_off


def reference_eigensolve(params, two_n, two_m, r_values):
    """The verify suite's eigensolve of each side of the block at each R: both
    spectra and the sign-fixed U and V stacks."""
    parabolic = _parabolic_side(derive_constants(params, two_m), two_n)
    bands = block(params, two_n, two_m).spherical_bands(np.asarray(r_values, dtype=float)[:, None])
    stacks = _eigensolve(*(band[None] for band in bands), [side[None] for side in parabolic],
                         list(r_values))
    return tuple(stack[0] for stack in stacks)


def limit_deviations(params, two_n, two_m, r_small, r_large):
    """The verify suite's four limit deviations of the block at one probe pair:
    U(r_small) vs identity, U(r_large) vs W, V(r_large) vs identity and V(r_small)
    vs W^T, signs aligned per column."""
    _, _, u, v = reference_eigensolve(params, two_n, two_m, [r_small, r_large])
    return _limits(expansion_matrix(params, two_n, two_m).entries, u[None], v[None])[0]


def w_mpmath(two_s, c1, c2, two_n, two_j, n1, two_m, dps=60):
    """3F2 closed form of W[j, n1] evaluated in mpmath at ``dps`` digits.

    The ring constants are derived from c1, c2 at the same precision, so
    the only double-precision inputs are the strengths themselves.
    """
    with mpmath.workdps(dps):
        am = mpmath.mpf(abs(two_m - two_s)) / 2
        ap = mpmath.mpf(abs(two_m + two_s)) / 2
        m1 = mpmath.sqrt(am * am + 4 * mpmath.mpf(c1))
        m2 = mpmath.sqrt(ap * ap + 4 * mpmath.mpf(c2))
        delta1, delta2 = m1 - am, m2 - ap
        delta = delta1 + delta2
        mp_, mm = (ap + am) / 2, (ap - am) / 2
        n = mpmath.mpf(two_n) / 2
        j = mpmath.mpf(two_j) / 2
        d = int(n - mp_)
        k = int(j - mp_)
        n2 = d - 1 - n1
        lg = mpmath.loggamma
        log_pref = (
            (mpmath.log(2 * j + delta + 1)
             + lg(n1 + m1 + 1) + lg(n2 + m2 + 1) - lg(n1 + 1) - lg(n2 + 1)
             - lg(n - j) - lg(k + 1) - lg(j + mm + delta2 + 1)
             + lg(j - mm + delta1 + 1) + lg(j + mp_ + delta + 1)
             - lg(n + j + delta + 1)) / 2
            + lg(n - mp_) - lg(m1 + 1)
        )
        a3, b1, b2 = j + mp_ + delta + 1, m1 + 1, -(n - mp_ - 1)
        series = term = mpmath.mpf(1)
        for p in range(min(n1, k)):
            term *= (p - n1) * (p - k) * (a3 + p) / ((b1 + p) * (b2 + p) * (p + 1))
            series += term
        return float(mpmath.exp(log_pref) * series)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
