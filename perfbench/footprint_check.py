"""Check that the speed kernel's time does not depend on the program's memory footprint.

Usage (from the repository root):

    python3 perfbench/footprint_check.py

One process runs ``mickepler verify`` at ``s=1/2, c1=0.3, c2=0.7`` with
``--n-max 8`` over and over for 90 s, with the speed kernel of ``speed.py``
sampled every 40 ms of CPU time as in a worker.  Every 5 samples the
program switches between two modes: plain, and with an inflated working
set, where every call to ``qnum.derive_constants`` (thousands per verify)
first reads 4096 scattered cache lines out of a 16 MiB buffer, so the
core's caches hold mostly that buffer when the sampler interrupts.  The
modes alternate every 200 ms, so both see the same machine.  The script
prints how far the program gets per sample and the mean kernel time in
each mode, and their ratio.  A ratio near 1 means that a change that makes the
program use more or less memory is not scaled by a different yardstick.
Exits 1 if the ratio is off by more than 3%.
"""

import contextlib
import io
import itertools
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import mickepler.cli  # noqa: E402

SECONDS = 90.0
TOLERANCE = 0.03
ARGV = ["verify", "--s", "1/2", "--c1", "0.3", "--c2", "0.7", "--n-max", "8", "--seed", "0"]
LINE = 64
BUFFER = np.zeros(16 << 20, dtype=np.uint8)
# 64 sets of 4096 cache-line offsets; together they cover the whole buffer
OFFSETS = np.random.default_rng(0).permutation(len(BUFFER) // LINE).reshape(64, -1) * LINE


class ModeMeter(speed.SpeedMeter):
    """The worker's sampler, also switching the mode every ``SWITCH`` samples."""

    SWITCH = 5

    def __init__(self):
        super().__init__()
        self.inflate = False
        self.kernel = {False: [], True: []}
        self.calls = {False: 0, True: 0}       # derive_constants calls in each mode

    def _sample(self, signum, frame):
        self.kernel[self.inflate].append(speed._kernel())
        self.count += 1
        if self.count % self.SWITCH == 0:
            self.inflate = not self.inflate


def main() -> int:
    meter = ModeMeter()
    turn = itertools.cycle(OFFSETS)
    original = sys.modules["mickepler.qnum"].derive_constants

    def derive_constants(*a, **kw):
        meter.calls[meter.inflate] += 1
        if meter.inflate:
            BUFFER[next(turn)].sum()
        return original(*a, **kw)

    patched = [m for name, m in list(sys.modules.items())
               if name.startswith("mickepler") and getattr(m, "derive_constants", None) is original]
    for module in patched:
        module.derive_constants = derive_constants
    end = time.perf_counter() + SECONDS
    meter.start()
    try:
        while time.perf_counter() < end:
            with contextlib.redirect_stdout(io.StringIO()):
                mickepler.cli.main(list(ARGV))
    finally:
        meter.stop()
        for module in patched:
            module.derive_constants = original
    mean = {mode: float(np.mean(v)) for mode, v in meter.kernel.items()}
    for mode, label in ((False, "plain"), (True, "inflated")):
        samples = len(meter.kernel[mode])
        print(f"{label:8s} samples {samples}  derive_constants calls per sample "
              f"{meter.calls[mode] / samples:.1f}  kernel mean {mean[mode] * 1e3:.4f} ms")
    ratio = mean[True] / mean[False]
    print(f"kernel ratio inflated/plain = {ratio:.4f}")
    return 0 if abs(ratio - 1.0) <= TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
