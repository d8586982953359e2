"""CPU time corrected for the speed of the host, in reference seconds.

On a shared host the speed of a core changes from one fraction of a
second to the next, by a quarter and more, and CPU time changes with it.
A fixed pure-Python kernel, run next to the work, slows down by the same
share: on the 2-core machine this was written on, the kernel's time and
that of eptl code run right after it correlate at 0.97-0.99 over blocks
of 0.5-1.5 s.  So the clock runs the kernel every ``INTERVAL_S`` CPU
seconds (from a ``SIGPROF`` timer) and charges each interval of work at
the speed measured at its two ends:

    reference seconds = CPU seconds * REFERENCE_KERNEL_S / kernel seconds

A reference second is a CPU second on a core that runs the kernel in
``REFERENCE_KERNEL_S``.  The kernel's own time is kept out of the work.
"""

from __future__ import annotations

import signal
import time
from math import gcd

cpu = time.process_time
perf = time.perf_counter

# CPU seconds of work between two runs of the kernel
INTERVAL_S = 0.1
# the kernel's CPU time on the reference core
REFERENCE_KERNEL_S = 0.01
KERNEL_ROUNDS = 16000


def kernel(rounds: int = KERNEL_ROUNDS) -> int:
    """Fixed interpreter work of the kinds eptl does: small rationals, dicts, tuples.

    The rationals are int pairs reduced by ``gcd``, as ``Fraction`` does
    inside, but not ``Fraction``s: the tracer wraps ``Fraction``'s
    arithmetic, and the kernel must run at the same cost in traced passes.
    """
    acc = {}
    for i in range(rounds):
        key = (i % 31, i % 17)
        num, den = acc.get(key, (0, 1))
        a, b = 3 * (i % 7 + 1), (i % 11 + 1) * (i % 5 + 2)
        num, den = num * b + a * den, den * b
        g = gcd(num, den)
        num, den = num // g, den // g
        acc[key] = (num, den) if den < 1000 else (num % 97, 1)
    return len(acc)


def kernel_s() -> float:
    """CPU seconds of one run of the kernel, now."""
    c0 = cpu()
    kernel()
    return cpu() - c0


class SpeedClock:
    """Counts CPU seconds of work in reference seconds while it runs.

    ``on_kernel(seconds)`` is called with the wall time of each kernel run
    inside the work, so that a tracer can keep it out of its self times.
    """

    def __init__(self, on_kernel=None):
        self.on_kernel = on_kernel
        self.work_s = 0.0  # CPU seconds of work, kernel runs left out
        self.ref_s = 0.0  # the same work in reference seconds
        self.kernel_runs = 0
        self._mark = 0.0
        self._last = 0.0
        self._handler = None
        self._busy = False

    def _close_interval(self):
        """Charge the work since the last mark at the speed measured now."""
        self._busy = True
        span = cpu() - self._mark
        now = kernel_s()
        self.kernel_runs += 1
        self.work_s += span
        self.ref_s += span * REFERENCE_KERNEL_S / ((self._last + now) / 2)
        self._last = now
        self._mark = cpu()
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # a tick that arrives while the kernel runs
            return
        w0 = perf()
        self._close_interval()
        if self.on_kernel is not None:
            self.on_kernel(perf() - w0)

    def start(self):
        self._last = kernel_s()
        self._handler = signal.signal(signal.SIGPROF, self._tick)
        self._mark = cpu()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self._close_interval()
        signal.signal(signal.SIGPROF, self._handler)

    def read(self) -> float:
        """Reference seconds so far, the open interval at the last speed measured."""
        return self.ref_s + (cpu() - self._mark) * REFERENCE_KERNEL_S / self._last
