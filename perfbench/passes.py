"""Workload passes run inside a worker process.

A pass runs every operation of a job once, in order: CLI invocations
through ``mickepler.cli.main(argv)`` with stdout captured, and in-process
wavefunction evaluations through ``mickepler.bases``.  Each pass yields
its time in wall and reference seconds (see ``speed``), a digest of all
outputs (so warm passes can be checked against the first) and the
program's output volume.
"""

import hashlib
import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import mickepler.cli
from mickepler import bases, qnum
from tracer import Tracer


class _Sink(io.TextIOBase):
    """Stand-in stdout: hashes and counts what the CLI prints, keeps it on request."""

    def __init__(self, keep: bool):
        self.digest = hashlib.sha256()
        self.bytes = 0
        self.lines = 0
        self.kept = [] if keep else None

    def writable(self):
        return True

    def write(self, s):
        data = s.encode()
        self.digest.update(data)
        self.bytes += len(data)
        self.lines += s.count("\n")
        if self.kept is not None:
            self.kept.append(s)
        return len(s)


def _prepare(op):
    if op["kind"] == "eval":
        op = dict(op)
        for key in ("r", "theta", "xi", "eta"):
            op[key] = np.asarray(op[key], dtype=float)
    return op


def _run_cli(op, keep):
    sink = _Sink(keep)
    err = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(err):
        rc = mickepler.cli.main(list(op["argv"]))
    ok = rc in op["rc"]
    out = [rc, "".join(sink.kept)] if keep else None
    return ok, f"{sink.digest.hexdigest()}:{rc}", (sink.lines, sink.bytes), out


def _run_eval(op, keep):
    params = qnum.SystemParams(op["two_s"], op["c1"], op["c2"])
    two_n = op["two_n"]
    digest = hashlib.sha256()
    blocks = []
    for two_m, d, two_m_plus in op["blocks"]:
        rad, ang, par = [], [], []
        for k in range(d):
            st = bases.spherical_state(params, two_n, two_m_plus + 2 * k, two_m)
            rad.append(bases.radial_r(st, op["r"]))
            ang.append(bases.angular_profile(st, op["theta"]))
        for n1 in range(d):
            pst = bases.parabolic_state(params, n1, d - 1 - n1, two_m)
            par.append(bases.parabolic_profile(pst, op["xi"], op["eta"]))
        values = np.array([rad, ang, par], dtype=float)
        digest.update(values.tobytes())
        if keep:
            blocks.append(values.tolist())
    return True, digest.hexdigest(), (0, 0), (blocks if keep else None)


def run_pass(ops, kind, meter, keep=False, tracer=None):
    """One pass over all operations; returns (stats, outputs)."""
    digests, outputs, failures = [], [], []
    rows = nbytes = 0
    mark = meter.mark()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.request = i
        run = _run_cli if op["kind"] == "cli" else _run_eval
        try:
            ok, digest, (lines, size), out = run(op, keep)
            reason = "unexpected exit code"
        except Exception as exc:  # a failed operation is counted, not fatal
            ok, digest, lines, size, out = False, "", 0, 0, None
            reason = repr(exc)
        if not ok:
            failures.append([i, reason])
        digests.append(digest)
        rows += lines
        nbytes += size
        outputs.append(out)
    raw, ref = meter.since(mark)
    stats = {"kind": kind, "s": ref, "raw_s": raw,
             "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
             "failures": failures, "rows_out": rows, "bytes_out": nbytes}
    return stats, outputs


def serve(job_text: str, meter) -> None:
    """Run a job: a cold first pass, then warm (and traced) passes while the budget lasts."""
    if not job_text.strip():
        return
    job = json.loads(job_text)
    start = time.perf_counter()
    ops = [_prepare(op) for op in job["ops"]]
    # only the worker that sends its outputs keeps them, so the others' peak
    # memory is the program's
    stats, outputs = run_pass(ops, "first", meter, keep=job["send_outputs"])
    passes, layers = [stats], []

    tracer = Tracer(meter) if job["trace"] else None
    cycle_s = 0.0
    # at least one warm cycle; another only if it should end within the budget
    while len(passes) == 1 or time.perf_counter() - start + cycle_s <= job["budget_s"]:
        cycle_start = time.perf_counter()
        passes.append(run_pass(ops, "warm", meter)[0])
        if tracer is not None:
            tracer.install()
            try:
                passes.append(run_pass(ops, "traced", meter, tracer=tracer)[0])
            finally:
                tracer.uninstall()
            traced = passes[-1]
            layers.append(tracer.summary(traced["s"] / traced["raw_s"]))
            if len(layers) == 1 and job.get("spans_path"):
                tracer.write_spans(job["spans_path"])
            tracer.reset()
        cycle_s = time.perf_counter() - cycle_start

    meter.stop()
    report = {"passes": passes, "layers": layers,
              # read before the outputs are serialized, which would inflate the peak
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    out = sys.__stdout__
    out.write(json.dumps(report) + "\n")
    out.write(json.dumps(outputs if job["send_outputs"] else None) + "\n")
    out.flush()
