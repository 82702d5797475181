"""Span tracing of the library's layers, from outside the package.

``install`` replaces every public function of the layer modules by a
timing wrapper in *every* ``mickepler`` namespace that binds it (for
example ``ln_gamma`` is bound in ``numkernel``, ``bases``, ``interbasis``
and ``verify``), and counts calls to ``scipy.linalg.eigh_tridiagonal``.
``uninstall`` puts the originals back, so untimed and untraced passes run
the unmodified program.  Spans are kept in memory; self time is a span's
duration minus the time covered by its child spans.

Spans are timed on the wall clock with the speed sampler's time left out
(the thread CPU clock would cost a system call per reading).  Summed layer
times are scaled by the traced pass's reference seconds over its wall
seconds (see ``speed``), so over a pass they add up to its time in
reference seconds, comparable with ``wall_s``.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.linalg

LAYERS = ("qnum", "numkernel", "coords", "bases", "interbasis", "spheroidal",
          "verify", "cli")

# bases functions whose last positional argument is the evaluation point(s)
_POINT_FUNCTIONS = ("radial_r", "angular_profile", "parabolic_factor",
                    "parabolic_profile", "angular_z", "psi_spherical", "psi_parabolic")


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


def _terms_3f2(a1, a2, a3, *_rest, **_kw):
    """Number of terms of a terminating 3F2 sum: smallest N with a_i = -N, plus one."""
    ns = [-round(a) for a in (a1, a2, a3) if abs(a - round(a)) < 1e-9 and round(a) <= 0]
    return min(ns) + 1 if ns else 0


class Tracer:
    """In-memory spans and counters of one traced pass."""

    def __init__(self, meter):
        self.meter = meter
        self.names: list[str] = []      # span name per function id
        self.modules: list[str] = []    # layer per function id
        self.spans: list = []
        self.stack: list[int] = []
        self.request = -1
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self._patched: list = []
        self._hooks = {
            "qnum.derive_constants": self._distinct_args,
            "numkernel.ln_gamma": self._distinct_args,
            "interbasis.expansion_matrix": self._expansion_matrix,
            "numkernel.kummer_terminating": self._kummer,
            "numkernel.hyp3f2_unit_scaled": self._hyp3f2,
            "spheroidal.sweep": self._sweep,
            "verify.run_suite": self._run_suite,
        }
        for name in _POINT_FUNCTIONS:
            self._hooks["bases." + name] = self._points

    # -- counters -----------------------------------------------------------

    def _distinct_args(self, name, args, kwargs, result, parent):
        self.distinct[name].add((args, tuple(sorted(kwargs.items()))))

    def _expansion_matrix(self, name, args, kwargs, result, parent):
        self._distinct_args(name, args, kwargs, result, parent)
        self.counters["interbasis.entries"] += result.dim * result.dim

    def _kummer(self, name, args, kwargs, result, parent):
        self.counters["numkernel.kummer_terminating.terms"] += args[0] * np.size(args[2])

    def _hyp3f2(self, name, args, kwargs, result, parent):
        self.counters["numkernel.hyp3f2_unit_scaled.terms"] += _terms_3f2(*args)

    def _sweep(self, name, args, kwargs, result, parent):
        self.counters["spheroidal.sweep.points"] += len(result)

    def _run_suite(self, name, args, kwargs, result, parent):
        self.counters["verify.checks"] += len(result)

    def _points(self, name, args, kwargs, result, parent):
        # only calls entering bases from another layer, so nested calls count once
        if parent >= 0 and self.modules[self.spans[parent]] == "bases":
            return
        if name.endswith(("psi_spherical", "psi_parabolic", "angular_z")):
            self.counters["bases.points"] += 1
        else:
            self.counters["bases.points"] += np.broadcast(*args[1:]).size

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name, module):
        fid = len(self.names)
        self.names.append(name)
        self.modules.append(module)
        spans, stack, calls, meter = self.spans, self.stack, self.calls, self.meter
        perf_counter = time.perf_counter

        def clock():
            return perf_counter() - meter.overhead_s

        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(fid)           # placeholder: the open span's function id
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, parent, self.request, t0, t1)
            calls[name] += 1
            if hook is not None:
                hook(name, args, kwargs, result, parent)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public layer function wherever a mickepler module binds it."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules["mickepler." + layer]
            for fname, fn in _public_functions(module):
                wrappers[id(fn)] = self._wrap(fn, f"{layer}.{fname}", layer)
        for mname, module in list(sys.modules.items()):
            if mname != "mickepler" and not mname.startswith("mickepler."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        original = scipy.linalg.eigh_tridiagonal

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.counters["spheroidal.eigensolves"] += 1
            return original(*args, **kwargs)

        self._patched.append((scipy.linalg, "eigh_tridiagonal", original))
        scipy.linalg.eigh_tridiagonal = counted

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def reset(self) -> None:
        """Forget spans and counters; function ids are re-issued on the next install."""
        self.names.clear()
        self.modules.clear()
        self.spans.clear()
        self.stack.clear()
        self.calls.clear()
        self.counters.clear()
        self.distinct.clear()

    # -- results ------------------------------------------------------------

    def summary(self, scale: float) -> dict:
        """Per-layer self and busy time, call counts and counters of this pass.

        ``scale`` converts the pass's wall seconds to reference seconds.
        """
        spans, modules = self.spans, self.modules
        child = [0.0] * len(spans)
        for fid, parent, _req, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: Counter = Counter()
        busy_s: Counter = Counter()
        for i, (fid, parent, _req, t0, t1) in enumerate(spans):
            module = modules[fid]
            self_s[module] += (t1 - t0) - child[i]
            # busy time counts a span only when no ancestor is in the same layer
            anc = parent
            while anc >= 0 and modules[spans[anc][0]] != module:
                anc = spans[anc][1]
            if anc < 0:
                busy_s[module] += t1 - t0
        return {
            "self_s": {m: self_s.get(m, 0.0) * scale for m in LAYERS},
            "busy_s": {m: busy_s.get(m, 0.0) * scale for m in LAYERS},
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "spans": len(spans),
        }

    def write_spans(self, path: str) -> None:
        """Write every span of this pass as gzipped CSV, in wall microseconds."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = min((s[3] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            fh.write("span,parent,request,name,start_us,end_us\n")
            for i, (fid, parent, req, t0, t1) in enumerate(self.spans):
                fh.write(f"{i},{parent},{req},{self.names[fid]},"
                         f"{(t0 - origin) * 1e6:.3f},{(t1 - origin) * 1e6:.3f}\n")
