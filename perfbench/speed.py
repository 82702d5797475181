"""Machine-speed sampling for the benchmark's timings.

The benchmark runs on shared virtual machines.  Two things make plain wall
time unsteady there: the hypervisor takes the core away for a while
(steal time, up to a third of the time), and the core runs slower or
faster with the load of other tenants (clock frequency, shared caches).
So the benchmark times the CPU time of the worker's thread, which leaves
out the time the core was taken away, and scales it by the core's speed:

    reference seconds = CPU seconds * REFERENCE_S / mean(kernel CPU time)

A worker samples its core's speed the whole time: every INTERVAL_S of
the process's CPU time, a profiling-timer signal runs a fixed kernel and
records its thread CPU time.  The kernel sums a list of floats in
shuffled order, a walk over scattered memory that is small enough to stay
in the core's own L2 cache.  It walks the list once untimed, which brings
back whatever the program has evicted, and then times the next walks.  So
the kernel's time follows the core's speed but not the program's cache
footprint: a change that makes the program use more or less memory does
not change the yardstick its time is scaled by (``footprint_check.py``
checks this).  Process CPU time is not used: it is only updated once per
clock tick while a profiling timer is armed.  The time spent sampling,
the untimed walk included, is left out of every interval, and the mean is
over the samples taken during it.  The worker does all its work on one
thread and no I/O while timed, so that thread's CPU time is its wall time
minus the time it did not run.

``REFERENCE_S`` is a fixed constant of the benchmark, the kernel's typical
time in a worker on the machine the baseline was taken on, so reference
seconds read close to wall seconds there.  It must never change, or
results before and after the change are not comparable.
"""

import random
import signal
import time

REFERENCE_S = 7.5e-4
INTERVAL_S = 0.04
_WALKS = 3
# 32k floats in shuffled order: about 1 MiB with the list, a quarter of the
# per-core L2 cache of the baseline machine
_SCATTERED = [float(i) for i in range(32_768)]
random.Random(0).shuffle(_SCATTERED)


def _kernel() -> float:
    """Thread CPU seconds of the timed walks, after one untimed walk."""
    sum(_SCATTERED)
    t0 = time.thread_time()
    for _ in range(_WALKS):
        sum(_SCATTERED)
    return time.thread_time() - t0


class SpeedMeter:
    """Profiling-timer speed samples of the current process's core."""

    def __init__(self):
        self.count = 0
        self.kernel_s = 0.0
        self.overhead_s = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.thread_time()
        self.kernel_s += _kernel()
        self.count += 1
        self.overhead_s += time.thread_time() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        # restart interrupted system calls, so C code in the program never sees EINTR
        signal.siginterrupt(signal.SIGPROF, False)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop sampling; idempotent.  Large pipe writes must not run while sampling."""
        if self._previous is None:
            return
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        self._previous = None

    def mark(self) -> tuple:
        return (time.perf_counter(), time.thread_time(), self.count, self.kernel_s,
                self.overhead_s)

    def since(self, mark: tuple) -> tuple[float, float]:
        """(wall seconds, reference seconds) since ``mark``, sampling time left out."""
        wall0, cpu0, count, kernel_s, overhead_s = mark
        sampling = self.overhead_s - overhead_s
        wall = time.perf_counter() - wall0 - sampling
        cpu = time.thread_time() - cpu0 - sampling
        n, k = self.count - count, self.kernel_s - kernel_s
        if n == 0:      # shorter than one sampling period: use all samples so far
            n, k = self.count, self.kernel_s
        return wall, (cpu * REFERENCE_S * n / k if n else cpu)
