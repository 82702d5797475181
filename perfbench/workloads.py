"""The three workloads: program inputs, oracle samples and output checks.

Every workload is a closed loop of program calls (one caller; the next
call starts when the previous one returned).  The seed draws only the
evaluation points of high-level-tables and which outputs the oracle
samples; the program inputs of verify-suite and spheroidal-sweep are
fixed, and ``verify`` keeps its own ``--seed 0``.

Samples are systematic (evenly spaced, seeded start) and points are
stratified, so the share of failing checks barely depends on the seed.
"""

from __future__ import annotations

import math
import re

import numpy as np

import oracle

TOL = 1e-10                 # scaled error above this is an oracle miss
RING = (0, 0.3, 0.7)        # two_s, c1, c2: s = 0 with both ring terms
RING_ARGS = ["--s", "0", "--c1", "0.3", "--c2", "0.7"]
# Where the library is known to be accurate (oracle errors measured on
# the current library stay 8x or more below TOL there); a miss inside these limits
# makes the run incorrect instead of only counting in fail_frac.
TRUSTED_W_DIM = 12          # interbasis blocks with d <= 12
TRUSTED_DEGREE = 6          # radial n_r and parabolic n1, n2 <= 6


def two_m_plus(two_s: int, two_m: int) -> int:
    return (abs(two_m + two_s) + abs(two_m - two_s)) // 2


def half(two_x: int) -> str:
    return str(two_x // 2) if two_x % 2 == 0 else f"{two_x}/2"


def systematic(rng, total: int, count: int) -> list[int]:
    """``count`` indices spread evenly over ``range(total)`` from a seeded start."""
    if total <= count:
        return list(range(total))
    step = total / count
    start = rng.uniform(0.0, step)
    return [int(start + i * step) for i in range(count)]


def stratified(rng, hi: float, count: int) -> np.ndarray:
    """One uniform point in each of ``count`` equal strata of (0, hi)."""
    return (np.arange(count) + rng.uniform(0.0, 1.0, count)) * (hi / count)


def digits(err: float) -> float:
    """-log10 of a scaled error, clipped to [-20, 17]; NaN reads -20."""
    if not err <= 1e20:
        return -20.0
    return -math.log10(max(err, 1e-17))


class Tally:
    """Checked items, misses, per-layer worst digits and correctness problems."""

    def __init__(self):
        self.checks = 0
        self.misses = 0
        self.digits: dict[str, float] = {}
        self.problems: list[str] = []
        self.orth_residual_max = 0.0

    def item(self, ok: bool, what: str = "", trusted: bool = False) -> None:
        self.checks += 1
        if not ok:
            self.misses += 1
            if trusted:
                self.problems.append(what)

    def value(self, layer: str, err: float, what: str, trusted: bool) -> None:
        """One output value against the oracle; ``err`` is already scaled."""
        self.item(err <= TOL, f"{what}: error {err:.3g}", trusted)
        self.digits[layer] = min(self.digits.get(layer, 17.0), digits(err))

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    @property
    def fail_frac(self) -> float:
        return self.misses / self.checks if self.checks else 0.0


def _cli_text(output, tally: Tally, what: str) -> str | None:
    if output is None:
        tally.require(False, f"{what}: no output")
        return None
    return output[1]


def parse_table(text: str):
    """Header, first column and float body of a CSV table printed by the CLI."""
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    cells = [line.split(",") for line in lines[1:]]
    first = [row[0] for row in cells]
    body = np.array([row[1:] for row in cells], dtype=float)
    return header, first, body


def _vector_error(vec: np.ndarray, ref: np.ndarray) -> float:
    """Largest entry error of an eigenvector after matching its sign to the reference."""
    sign = -1.0 if float(np.dot(vec, ref)) < 0.0 else 1.0
    return float(np.abs(sign * vec - ref).max())


class VerifySuite:
    """Many small blocks, each used once; dominated by per-call overhead."""

    name = "verify-suite"
    POINTS = (["--s", "1/2", "--c1", "0.3", "--c2", "0.7"],
              ["--s", "0", "--c1", "0", "--c2", "0"])
    # The only FAILs of the current library: spheroidal.limits in these
    # blocks.  They count in fail_frac; any other FAIL makes the run incorrect.
    KNOWN_FAILS = frozenset(
        ("spheroidal.limits", f"s={s} c1={c1} c2={c2} n={n} m={sign}{m}")
        for s, c1, c2, blocks in (("1/2", "0.3", "0.7",
                                   (("11/2", "7/2"), ("13/2", "9/2"), ("15/2", "11/2"))),
                                  ("0", "0", "0", (("6", "4"), ("7", "5"), ("8", "6"))))
        for n, m in blocks for sign in ("-", ""))

    def __init__(self, seed: int):
        self.ops = [{"kind": "cli", "rc": [0, 1],
                     "argv": ["verify", *point, "--n-max", "8", "--seed", "0"]}
                    for point in self.POINTS]

    def reference(self):
        return None

    def check(self, outputs, reference, tally: Tally) -> None:
        summary = re.compile(r"checks: (\d+)  passed: (\d+)  failed: (\d+)")
        for op, out in zip(self.ops, outputs):
            what = " ".join(op["argv"])
            text = _cli_text(out, tally, what)
            if text is None:
                continue
            lines = text.rstrip("\n").split("\n")
            match = summary.fullmatch(lines[-1])
            body = lines[:-1]
            fails = sum(line.startswith("FAIL  ") for line in body)
            passes = sum(line.startswith("PASS  ") for line in body)
            tally.require(match is not None and passes + fails == len(body)
                          and (int(match[1]), int(match[2]), int(match[3]))
                          == (len(body), passes, fails)
                          and out[0] == (1 if fails else 0),
                          f"{what}: malformed report")
            for line in body:
                fields = line.split()
                label = (fields[1], " ".join(fields[2:-2])) if len(fields) > 3 else None
                tally.item(fields[0] == "PASS", f"{what}: {line}", label not in self.KNOWN_FAILS)


class SpheroidalSweep:
    """One block, many R values: the opposite use of spheroidal and qnum."""

    name = "spheroidal-sweep"
    # (n, R points, --vectors, oracle samples)
    SWEEPS = ((10, 2000, True, 12), (30, 1000, False, 6))

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.ops, self.samples = [], []
        for n, points, vectors, samples in self.SWEEPS:
            argv = ["sweep", *RING_ARGS, "--n", str(n), "--m", "0",
                    "--R-grid", f"0:50:{points}"]
            self.ops.append({"kind": "cli", "rc": [0],
                             "argv": argv + (["--vectors"] if vectors else [])})
            self.samples.append(systematic(rng, points, samples))

    def reference(self):
        ref = []
        for (n, points, vectors, _), idx in zip(self.SWEEPS, self.samples):
            grid = np.linspace(0.0, 50.0, points)
            blk = oracle.Block(*RING, 2 * n, 0)
            ref.append([oracle.spheroidal(blk, float(grid[i]), vectors) for i in idx])
        return ref

    def check(self, outputs, reference, tally: Tally) -> None:
        for (n, points, vectors, _), op, out, idx, ref in zip(
                self.SWEEPS, self.ops, outputs, self.samples, reference):
            what = f"sweep n={n}"
            text = _cli_text(out, tally, what)
            if text is None:
                continue
            d = n - two_m_plus(RING[0], 0) // 2
            header, first, body = parse_table(text)
            expect = ["R", "q", "lambda"]
            if vectors:
                expect += [f"u[j={k}]" for k in range(d)] + [f"v[n1={k}]" for k in range(d)]
            grid = np.linspace(0.0, 50.0, points)
            shape_ok = header == expect and body.shape == (points * d, len(expect) - 1)
            tally.require(shape_ok, f"{what}: table shape")
            if not shape_ok:
                continue
            r_col = np.array(first, dtype=float).reshape(points, d)
            lam = body[:, 1].reshape(points, d)
            tally.require(bool(np.all(r_col == grid[:, None])), f"{what}: R column")
            tally.require(bool(np.all(body[:, 0].reshape(points, d) == np.arange(d))),
                          f"{what}: q column")
            tally.require(bool(np.all(np.diff(lam, axis=1) >= 0.0)), f"{what}: lambda order")
            if vectors:
                for cols in (slice(2, 2 + d), slice(2 + d, 2 + 2 * d)):
                    norms = np.linalg.norm(body[:, cols], axis=1)
                    tally.require(bool(np.all(np.abs(norms - 1.0) <= TOL)),
                                  f"{what}: eigenvector norms")
            for i, (lam_ref, u_ref) in zip(idx, ref):
                for q in range(d):
                    err = abs(lam[i, q] - lam_ref[q]) / max(1.0, abs(lam_ref[q]))
                    tally.value("spheroidal", err, f"{what} R={grid[i]:.6g} lambda_{q}", True)
                    if vectors:
                        vec = body[i * d + q, 2:2 + d]
                        ref_col = np.array([row[q] for row in u_ref])
                        tally.value("spheroidal", _vector_error(vec, ref_col),
                                    f"{what} R={grid[i]:.6g} u_{q}", True)


class HighLevelTables:
    """Large blocks: interbasis and bases do the work, and lose accuracy."""

    name = "high-level-tables"
    LEVELS = (16, 24, 32, 40)
    R = 5.0
    GRID = 12               # evaluation points per function and level
    W_SAMPLES = 2           # oracle W entries per block (Latin square over j, n1)
    STATE_SAMPLES = 48      # oracle spherical and parabolic states per level

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.ops, self.levels = [], []
        u_level = int(rng.integers(len(self.LEVELS)))   # one oracle U block per run
        for level, n in enumerate(self.LEVELS):
            blocks = [(2 * m, n - m) for m in range(n)]  # s = 0: m_plus = m, d = n - m
            base = ["--n", str(n)] + RING_ARGS
            first_op = len(self.ops)
            for two_m, _d in blocks:
                m = ["--m", half(two_m)]
                self.ops.append({"kind": "cli", "rc": [0], "argv": ["coefficients", *base, *m]})
                self.ops.append({"kind": "cli", "rc": [0], "argv": [
                    "coefficients", "--kind", "spheroidal-in-spherical", *base, *m,
                    "--R", repr(self.R)]})
            r = stratified(rng, 2.0 * n * n, self.GRID)
            theta = np.arccos(1.0 - stratified(rng, 2.0, self.GRID))
            xi = stratified(rng, 4.0 * n * n, self.GRID)
            eta = stratified(rng, 4.0 * n * n, self.GRID)[rng.permutation(self.GRID)]
            self.ops.append({"kind": "eval", "two_s": RING[0], "c1": RING[1], "c2": RING[2],
                             "two_n": 2 * n,
                             "blocks": [[two_m, d, two_m_plus(RING[0], two_m)]
                                        for two_m, d in blocks],
                             "r": r.tolist(), "theta": theta.tolist(),
                             "xi": xi.tolist(), "eta": eta.tolist()})
            states = [(b, k) for b, (_, d) in enumerate(blocks) for k in range(d)]
            self.levels.append({
                "n": n, "blocks": blocks, "first_op": first_op, "eval_op": len(self.ops) - 1,
                "w": [(b, int(k), int(n1)) for b, (_, d) in enumerate(blocks)
                      for k, n1 in zip(systematic(rng, d, self.W_SAMPLES),
                                       rng.permutation(systematic(rng, d, self.W_SAMPLES)))],
                "sph": [states[i] for i in systematic(rng, len(states), self.STATE_SAMPLES)],
                "par": [states[i] for i in systematic(rng, len(states), self.STATE_SAMPLES)],
                "u": systematic(rng, n, 1) if level == u_level else [],
                "grid": (r, theta, xi, eta),
            })

    def reference(self):
        ref = []
        for lv in self.levels:
            blk = {b: oracle.Block(*RING, 2 * lv["n"], two_m)
                   for b, (two_m, _) in enumerate(lv["blocks"])}
            r, theta, xi, eta = lv["grid"]
            ref.append({
                "w": [oracle.w_entry(blk[b], k, n1) for b, k, n1 in lv["w"]],
                "rad": [oracle.radial_values(blk[b], k, r) for b, k in lv["sph"]],
                "ang": [oracle.angular_values(blk[b], k, theta) for b, k in lv["sph"]],
                "par": [oracle.parabolic_values(blk[b], k, xi, eta) for b, k in lv["par"]],
                "u": [oracle.spheroidal(blk[b], self.R, True)[1] for b in lv["u"]],
            })
        return ref

    def check(self, outputs, reference, tally: Tally) -> None:
        for lv, ref in zip(self.levels, reference):
            n = lv["n"]
            w_mats, u_mats = {}, {}
            for b, (two_m, d) in enumerate(lv["blocks"]):
                what = f"n={n} m={half(two_m)}"
                rows = [f"j={half(two_m_plus(RING[0], two_m) + 2 * k)}" for k in range(d)]
                for kind, cols, store in (("n1", "n1", w_mats), ("q", "q", u_mats)):
                    op = lv["first_op"] + 2 * b + (kind == "q")
                    text = _cli_text(outputs[op], tally, what)
                    if text is None:
                        continue
                    header, first, body = parse_table(text)
                    ok = (header == ["row"] + [f"{cols}={i}" for i in range(d)]
                          and first == rows and body.shape == (d, d))
                    tally.require(ok, f"{what}: {kind} table shape")
                    if ok:
                        store[b] = body
                if b in w_mats:
                    w = w_mats[b]
                    resid = float(np.abs(w.T @ w - np.eye(d)).max())
                    tally.orth_residual_max = max(tally.orth_residual_max, resid)
                    tally.item(resid <= TOL, f"{what}: W orthogonality {resid:.3g}",
                               d <= TRUSTED_W_DIM)
                if b in u_mats:
                    u = u_mats[b]
                    tally.require(float(np.abs(u.T @ u - np.eye(d)).max()) <= TOL,
                                  f"{what}: spheroidal columns not orthonormal")
            for (b, k, n1), value in zip(lv["w"], ref["w"]):
                if b in w_mats:
                    d = lv["blocks"][b][1]
                    tally.value("interbasis", abs(w_mats[b][k, n1] - value),
                                f"n={n} block {b} W[{k},{n1}]", d <= TRUSTED_W_DIM)
            for b, u_ref in zip(lv["u"], ref["u"]):
                if b not in u_mats:
                    continue
                u_ref = np.array(u_ref)
                err = max(_vector_error(u_mats[b][:, q], u_ref[:, q])
                          for q in range(u_ref.shape[1]))
                tally.value("spheroidal", err, f"n={n} block {b} U", True)

            values = outputs[lv["eval_op"]]
            shapes_ok = values is not None and all(
                np.shape(v) == (3, d, self.GRID) for v, (_, d) in zip(values, lv["blocks"]))
            tally.require(shapes_ok, f"n={n}: wavefunction value shapes")
            if not shapes_ok:
                continue
            for kind, samples, plane in (("rad", lv["sph"], 0), ("ang", lv["sph"], 1),
                                         ("par", lv["par"], 2)):
                for (b, k), ref_vals in zip(samples, ref[kind]):
                    d = lv["blocks"][b][1]
                    degree = {"rad": d - 1 - k, "ang": 0, "par": max(k, d - 1 - k)}[kind]
                    lib = np.array(values[b][plane][k])
                    ora = np.array(ref_vals)
                    scale = float(np.abs(ora).max()) or 1.0
                    for e in np.abs(lib - ora) / scale:
                        tally.value("bases", float(e), f"n={n} block {b} {kind} k={k}",
                                    degree <= TRUSTED_DEGREE)


WORKLOADS = {w.name: w for w in (VerifySuite, SpheroidalSweep, HighLevelTables)}
