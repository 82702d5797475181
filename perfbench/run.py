"""Benchmark of the mickepler command and library.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 20 --trace 0

Each workload runs in fresh single-threaded worker processes (BLAS pinned
to one thread) that drive ``mickepler.cli.main(argv)`` and, for
high-level-tables, ``mickepler.bases`` directly.  Outputs of the first pass
are checked against an independent mpmath oracle; every later pass must
reproduce them exactly.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a separate
traced run.  See DESIGN.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7            # import-only fresh interpreters, on top of the workers
WORKERS = 3                 # fresh workload processes per untraced run
IMPORTTIME_PROBES = 3
# the whole run may take --seconds plus this, for the oracle, its self-test,
# the set-up probes and the workers' imports and first passes
ALLOWANCE_S = 150.0
BLAS_THREADS = "1"
SELFTEST_TOL = 1e-12


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(job, deadline: float):
    """Start a worker; return (reference seconds until its import finished, report, outputs)."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=worker_env())
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.time()))
        fields = proc.stdout.readline().split() if ready else []
        if len(fields) != 2 or fields[0] != b"ready":
            raise BenchError("worker did not finish importing mickepler.cli")
        setup_s = float(fields[1])
        payload = json.dumps(job).encode() if job else b""
        out, _ = proc.communicate(payload, timeout=max(1.0, deadline - time.time()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    if not job:
        return setup_s, None, None
    report_line, outputs_line = out.split(b"\n")[:2]
    return setup_s, json.loads(report_line), outputs_line


def import_breakdown(deadline: float) -> dict:
    """Seconds spent importing scipy.linalg, scipy.special and mickepler's own modules."""
    samples = []
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mickepler.cli"],
                              cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.time()))
        if proc.returncode != 0:
            raise BenchError("python -X importtime -c 'import mickepler.cli' failed")
        row = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)")
        cumulative, own = {}, 0
        for match in row.finditer(proc.stderr):
            self_us, cum_us, name = int(match[1]), int(match[2]), match[3]
            cumulative[name] = cum_us
            if name == "mickepler" or name.startswith("mickepler."):
                own += self_us
        samples.append({"import.scipy_linalg_s": cumulative.get("scipy.linalg", 0) / 1e6,
                        "import.scipy_special_s": cumulative.get("scipy.special", 0) / 1e6,
                        "import.mickepler_self_s": own / 1e6})
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def oracle_selftest(seed: int) -> float:
    """Largest scaled disagreement between oracle and library where the library is good.

    Blocks with d <= 8 for W, polynomial degree <= 4 for wavefunctions and
    d <= 12 for lambda, at three (s, c1, c2) points.
    """
    import oracle
    from mickepler import bases, interbasis, qnum, spheroidal

    rng = np.random.default_rng(seed)
    worst = 0.0
    for two_s, c1, c2 in ((1, 0.3, 0.7), (0, 0.3, 0.7), (2, 0.0, 0.5)):
        params = qnum.SystemParams(two_s, c1, c2)
        two_n = 2 * int(rng.integers(5, 9)) + two_s % 2
        blocks = [tm for tm in range(-two_n + 2, two_n - 1)
                  if (tm - two_s) % 2 == 0 and 2 <= two_n - (abs(tm + two_s) + abs(tm - two_s)) // 2]
        for two_m in (blocks[int(rng.integers(len(blocks)))], blocks[len(blocks) // 2]):
            blk = oracle.Block(two_s, c1, c2, two_n, two_m)
            d, mp2 = blk.d, (abs(two_m + two_s) + abs(two_m - two_s)) // 2
            if d <= 8:
                w = interbasis.expansion_matrix(params, two_n, two_m).entries
                for k, n1 in rng.integers(0, d, size=(4, 2)):
                    worst = max(worst, abs(w[k, n1] - oracle.w_entry(blk, int(k), int(n1))))
            pts = rng.uniform(0.05, 2.0, 6) * (two_n / 2) ** 2
            theta = rng.uniform(0.05, 3.1, 6)
            for k in range(max(0, d - 5), d):
                st = bases.spherical_state(params, two_n, mp2 + 2 * k, two_m)
                for lib, ref in ((bases.radial_r(st, pts), oracle.radial_values(blk, k, pts)),
                                 (bases.angular_profile(st, theta),
                                  oracle.angular_values(blk, k, theta))):
                    ref = np.array(ref)
                    worst = max(worst, float(np.abs(lib - ref).max() / np.abs(ref).max()))
            if d <= 5:
                for n1 in range(d):
                    pst = bases.parabolic_state(params, n1, d - 1 - n1, two_m)
                    lib = bases.parabolic_profile(pst, 2 * pts, pts[::-1])
                    ref = np.array(oracle.parabolic_values(blk, n1, 2 * pts, pts[::-1]))
                    worst = max(worst, float(np.abs(lib - ref).max() / np.abs(ref).max()))
            if d <= 12:
                R = float(rng.uniform(0.0, 50.0))
                lam = spheroidal.solve(params, two_n, two_m, R).lambdas
                ref = oracle.spheroidal(blk, R)[0]
                worst = max(worst, max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(lam, ref)))
    return worst


def machine_facts(seed: int) -> dict:
    import mpmath
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "blas_threads": int(BLAS_THREADS),
            "seed": seed}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(report: dict, tally, imports: dict) -> dict:
    layers = report["layers"]
    first = layers[0]
    calls, counters, distinct = first["calls"], first["counters"], first["distinct"]
    self_s = {m: statistics.median(lay["self_s"][m] for lay in layers) for m in first["self_s"]}
    busy_bases = statistics.median(lay["busy_s"]["bases"] for lay in layers)
    traced = [p for p in report["passes"] if p["kind"] == "traced"]
    warm = [p for p in report["passes"] if p["kind"] == "warm"]

    def count(key):
        return calls.get(key, 0)

    def calls_in(layer):
        return sum(v for k, v in calls.items() if k.startswith(layer + "."))

    m = {
        "qnum.derive_constants.calls": count("qnum.derive_constants"),
        "qnum.derive_constants.distinct_ratio": _ratio(distinct.get("qnum.derive_constants", 0),
                                                       count("qnum.derive_constants")),
        "qnum.self_s": self_s["qnum"],
        "numkernel.ln_gamma.calls": count("numkernel.ln_gamma"),
        "numkernel.ln_gamma.distinct_ratio": _ratio(distinct.get("numkernel.ln_gamma", 0),
                                                    count("numkernel.ln_gamma")),
        "numkernel.kummer_terminating.terms": counters.get("numkernel.kummer_terminating.terms", 0),
        "numkernel.hyp3f2_unit_scaled.terms": counters.get("numkernel.hyp3f2_unit_scaled.terms", 0),
        "numkernel.self_s": self_s["numkernel"],
        "bases.states_built": count("bases.spherical_state") + count("bases.parabolic_state"),
        "bases.points": counters.get("bases.points", 0),
        "bases.points_per_s": _ratio(counters.get("bases.points", 0), busy_bases),
        "bases.self_s": self_s["bases"],
        "bases.digits_min": tally.digits.get("bases", 0.0),
        "interbasis.expansion_matrix.calls": count("interbasis.expansion_matrix"),
        "interbasis.expansion_matrix.distinct_ratio": _ratio(
            distinct.get("interbasis.expansion_matrix", 0), count("interbasis.expansion_matrix")),
        "interbasis.entries": counters.get("interbasis.entries", 0),
        "interbasis.expansion_coefficient_cg.calls": count("interbasis.expansion_coefficient_cg"),
        "interbasis.self_s": self_s["interbasis"],
        "interbasis.orth_residual_max": tally.orth_residual_max,
        "interbasis.digits_min": tally.digits.get("interbasis", 0.0),
        "spheroidal.solve.calls": count("spheroidal.solve"),
        "spheroidal.sweep.points": counters.get("spheroidal.sweep.points", 0),
        "spheroidal.limits.calls": count("spheroidal.limits"),
        "spheroidal.eigensolves": counters.get("spheroidal.eigensolves", 0),
        "spheroidal.self_s": self_s["spheroidal"],
        "spheroidal.digits_min": tally.digits.get("spheroidal", 0.0),
        "verify.checks": counters.get("verify.checks", 0),
        "verify.integrate_radial.calls": count("verify.integrate_radial"),
        "verify.self_s": self_s["verify"],
        "coords.calls": calls_in("coords"),
        "coords.self_s": self_s["coords"],
        "cli.self_s": self_s["cli"],
        "cli.rows_out": traced[0]["rows_out"],
        "cli.bytes_out": traced[0]["bytes_out"],
        **imports,
        "trace.overhead_frac": statistics.median(p["s"] for p in traced)
        / statistics.median(p["s"] for p in warm) - 1.0,
        "fail_frac": tally.fail_frac,
        "digits_min": min(tally.digits.values(), default=0.0),
    }
    return m


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mickepler" / "cli.py").is_file():
        print(f"error: no mickepler package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = time.time() + args.seconds + ALLOWANCE_S

    facts = machine_facts(args.seed)
    print("machine " + json.dumps(facts), flush=True)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    selftest = oracle_selftest(args.seed)
    reference = workload.reference()

    job = {"ops": workload.ops, "trace": args.trace, "budget_s": args.seconds}
    reports, first_outputs = [], None
    setups = []
    if args.trace:
        imports = import_breakdown(deadline)
        job["send_outputs"] = True
        job["spans_path"] = str(ROOT / ".perfbench-out" / f"spans-{args.workload}.csv.gz")
        _, report, first_outputs = spawn(job, deadline)
        reports.append(report)
    else:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(None, deadline)[0])
        job["budget_s"] = args.seconds / WORKERS
        for i in range(WORKERS):
            job["send_outputs"] = i == 0
            setup_s, report, outputs = spawn(job, deadline)
            setups.append(setup_s)
            reports.append(report)
            if i == 0:
                first_outputs = outputs

    tally = workloads.Tally()
    outputs = json.loads(first_outputs)
    first_failures = {i for i, _ in reports[0]["passes"][0]["failures"]}
    for i, op in enumerate(workload.ops):
        tally.item(i not in first_failures, f"op {i} {op.get('argv', op['kind'])} failed")
    workload.check(outputs, reference, tally)
    tally.require(selftest <= SELFTEST_TOL,
                  f"oracle self-test disagrees with the library by {selftest:.3g}")
    digest = reports[0]["passes"][0]["digest"]
    tally.require(all(p["digest"] == digest for r in reports for p in r["passes"]),
                  "a later pass did not reproduce the first pass's outputs")

    attempted = sum(len(workload.ops) * len(r["passes"]) for r in reports)
    failed = sum(len(p["failures"]) for r in reports for p in r["passes"])
    for problem in tally.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)

    if args.trace:
        values = per_layer(reports[0], tally, imports)
        units = _declared("per_layer")
    else:
        firsts = [p["s"] for r in reports for p in r["passes"] if p["kind"] == "first"]
        warms = [p["s"] for r in reports for p in r["passes"] if p["kind"] == "warm"]
        raw = {kind: statistics.median(p["raw_s"] for r in reports for p in r["passes"]
                                       if p["kind"] == kind) for kind in ("first", "warm")}
        values = {
            "setup_s": statistics.median(setups),
            "first_pass_s": statistics.median(firsts),
            "wall_s": statistics.median(warms),
            # the first worker also holds its outputs for the oracle checks
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports[1:]),
            "pass_frac": 1.0 - tally.fail_frac,
        }
        units = _declared("end_to_end")
        print(f"samples setup={len(setups)} first_pass={len(firsts)} warm={len(warms)} "
              f"workers={len(reports)}; wall seconds first_pass={raw['first']!r} "
              f"wall={raw['warm']!r}")
        print(f"accuracy fail_frac={tally.fail_frac!r} ratio ({tally.misses}/{tally.checks}) "
              f"digits_min={min(tally.digits.values(), default=0.0)!r} digits "
              + " ".join(f"{k}.digits_min={v:.3f}" for k, v in sorted(tally.digits.items())))
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
