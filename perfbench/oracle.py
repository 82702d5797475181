"""Independent high-precision reference values for the benchmark checks.

Everything is recomputed from the closed forms in mpmath, from the raw
inputs (doubled labels and the double-precision ring strengths), without
calling the library:

* interbasis entries W[j, n1] from the terminating 3F2 closed form at
  60 digits;
* radial, parabolic and angular spot values from ``mp.hyp1f1`` and
  ``mp.jacobi`` with ``mp.gamma`` norms;
* separation constants lambda_q(R) and spherical-side eigenvectors from
  ``mp.eigsy`` on the spherical-side operator built at 50 digits.
"""

from __future__ import annotations

import mpmath as mp

W_DPS = 60
EIG_DPS = 50
SPOT_DPS = 40


class Block:
    """High-precision constants of one (n, m) level block."""

    def __init__(self, two_s: int, c1: float, c2: float, two_n: int, two_m: int):
        s = mp.mpf(two_s) / 2
        m = mp.mpf(two_m) / 2
        a1 = abs(m - s)
        a2 = abs(m + s)
        self.m1 = mp.sqrt(a1 * a1 + 4 * mp.mpf(c1))
        self.m2 = mp.sqrt(a2 * a2 + 4 * mp.mpf(c2))
        self.delta1 = self.m1 - a1
        self.delta2 = self.m2 - a2
        self.delta = self.delta1 + self.delta2
        self.m_plus = (a1 + a2) / 2
        self.m_minus = (a2 - a1) / 2
        self.n = mp.mpf(two_n) / 2
        self.d = int(mp.nint(self.n - self.m_plus))
        self.eps = 1 / (self.n + self.delta / 2)


def _terminating_3f2(a1, a2, a3, b1, b2, n_terms: int):
    total = term = mp.mpf(1)
    for p in range(n_terms):
        term *= (a1 + p) * (a2 + p) * (a3 + p) / ((b1 + p) * (b2 + p) * (p + 1))
        total += term
    return total


def w_entry(blk: Block, k: int, n1: int) -> float:
    """Coefficient of spherical j = m_plus + k in parabolic n1 (closed form)."""
    with mp.workdps(W_DPS):
        b = blk
        j = b.m_plus + k
        n2 = b.d - 1 - n1
        n, mp_, mm, dl = b.n, b.m_plus, b.m_minus, b.delta
        lg = mp.loggamma
        log_pref = (
            (mp.log(2 * j + dl + 1)
             + lg(n1 + b.m1 + 1) + lg(n2 + b.m2 + 1)
             - lg(n1 + 1) - lg(n2 + 1) - lg(n - j) - lg(j - mp_ + 1)
             - lg(j + mm + b.delta2 + 1) + lg(j - mm + b.delta1 + 1)
             + lg(j + mp_ + dl + 1) - lg(n + j + dl + 1)) / 2
            + lg(n - mp_) - lg(b.m1 + 1)
        )
        series = _terminating_3f2(-n1, -k, j + mp_ + dl + 1, b.m1 + 1,
                                  -(n - mp_ - 1), min(n1, k))
        return float(mp.exp(log_pref) * series)


def radial_values(blk: Block, k: int, r_values) -> list[float]:
    """Normalized radial function of j = m_plus + k at the given radii."""
    with mp.workdps(SPOT_DPS):
        b = blk
        j = b.m_plus + k
        n_r = b.d - 1 - k
        c = 2 * j + b.delta + 2
        norm = 2 * b.eps**2 * mp.sqrt(mp.gamma(b.n + j + b.delta + 1) / mp.gamma(n_r + 1)) / mp.gamma(c)
        out = []
        for r in r_values:
            t = 2 * b.eps * mp.mpf(r)
            out.append(float(norm * t ** (j + b.delta / 2) * mp.exp(-t / 2)
                             * mp.hyp1f1(-n_r, c, t)))
        return out


def angular_values(blk: Block, k: int, theta_values) -> list[float]:
    """Real angular factor of j = m_plus + k at the given polar angles."""
    with mp.workdps(SPOT_DPS):
        b = blk
        j = b.m_plus + k
        norm = mp.sqrt(
            (2 * j + b.delta + 1) * mp.gamma(k + 1) * mp.gamma(j + b.m_plus + b.delta + 1)
            / (4 * mp.pi * mp.gamma(j - b.m_minus + b.delta1 + 1)
               * mp.gamma(j + b.m_minus + b.delta2 + 1)))
        out = []
        for th in theta_values:
            th = mp.mpf(th)
            out.append(float(norm * mp.cos(th / 2) ** b.m1 * mp.sin(th / 2) ** b.m2
                             * mp.jacobi(k, b.m2, b.m1, mp.cos(th))))
        return out


def _parabolic_factor(blk: Block, n_i: int, m_i, x):
    t = blk.eps * mp.mpf(x)
    norm = mp.sqrt(mp.gamma(n_i + m_i + 1) / mp.gamma(n_i + 1)) / mp.gamma(m_i + 1)
    return norm * t ** (m_i / 2) * mp.exp(-t / 2) * mp.hyp1f1(-n_i, m_i + 1, t)


def parabolic_values(blk: Block, n1: int, xi_values, eta_values) -> list[float]:
    """Real parabolic profile sqrt(2) eps^2 Phi1(xi) Phi2(eta) of state n1."""
    with mp.workdps(SPOT_DPS):
        b = blk
        n2 = b.d - 1 - n1
        return [float(mp.sqrt(2) * b.eps**2 * _parabolic_factor(b, n1, b.m1, xi)
                      * _parabolic_factor(b, n2, b.m2, eta))
                for xi, eta in zip(xi_values, eta_values)]


def _spherical_operator(blk: Block, R: float):
    b = blk
    d, n, dl = b.d, b.n, b.delta
    a = mp.matrix(d, d)
    for k in range(d):
        j = b.m_plus + k
        num = (b.m1 + b.m2) * (b.m1 - b.m2)
        x_diag = 0 if num == 0 else num / ((2 * j + dl) * (2 * j + dl + 2))
        a[k, k] = (j + dl / 2) * (j + dl / 2 + 1) + mp.mpf(R) * x_diag
    for k in range(d - 1):
        j = b.m_plus + k + 1
        num = ((j - b.m_plus) * (j + b.m_plus + dl) * (j - b.m_minus + b.delta1)
               * (j + b.m_minus + b.delta2) * (n - j) * (n + j + dl))
        den = (j + dl / 2) ** 2 * (2 * j + dl - 1) * (2 * j + dl + 1)
        a[k, k + 1] = a[k + 1, k] = -2 / (2 * n + dl) * mp.sqrt(num / den) * mp.mpf(R)
    return a


def spheroidal(blk: Block, R: float, vectors: bool = False):
    """Ascending lambda_q(R) and, optionally, unit eigenvector columns U[:, q]."""
    with mp.workdps(EIG_DPS):
        a = _spherical_operator(blk, R)
        if blk.d == 1:
            return [float(a[0, 0])], ([[1.0]] if vectors else None)
        if not vectors:
            return sorted(float(e) for e in mp.eigsy(a, eigvals_only=True)), None
        e, q = mp.eigsy(a)
        order = sorted(range(blk.d), key=lambda i: e[i])
        lams = [float(e[i]) for i in order]
        cols = [[float(q[row, i]) for row in range(blk.d)] for i in order]
        return lams, [[cols[c][r] for c in range(blk.d)] for r in range(blk.d)]
