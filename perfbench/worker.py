"""Entry point of one fresh, single-threaded workload process.

The process starts its speed sampler, imports ``mickepler.cli`` and
prints ``ready <reference seconds>`` for interpreter start-up plus that
import (the sampler's own set-up left out).  It then reads one JSON job
from stdin and serves it (see ``passes.py``).  An empty stdin means "exit
after the import".
"""

import sys
import time

STARTUP_CPU_S = time.thread_time()     # interpreter start-up, before the benchmark's code

import speed  # noqa: E402


def main():
    meter = speed.SpeedMeter()
    meter.start()
    try:
        mark = meter.mark()
        import mickepler.cli  # noqa: F401  -- the import that setup_s times

        # count the interpreter start-up as well, but not the speed module's set-up
        wall0, cpu0, *samples = mark
        _, ref = meter.since((wall0, cpu0 - STARTUP_CPU_S, *samples))
        sys.stdout.write(f"ready {ref!r}\n")
        sys.stdout.flush()
        from passes import serve

        serve(sys.stdin.read(), meter)
    finally:
        meter.stop()


if __name__ == "__main__":
    main()
