"""Host speed probe: rescales measured times to one reference speed of the host.

On a shared host the same pure-Python work runs at a speed that switches
between a few levels (on a 2-vCPU guest, a Fraction loop took 4.6, 5.9, 7.0 or
7.8 ms, each level holding for seconds to minutes, with nothing else running in
the guest), so raw wall times of one program spread by up to 1.6x between runs.

While the probe runs, an interval timer interrupts the program every
``INTERVAL_S`` and times a fixed pure-Python kernel (Fraction and int
arithmetic, like the exact core of leafavg) in the signal handler.  The host's
speed at that moment is ``REFERENCE_KERNEL_S`` divided by the kernel's time.
A span of the program is then reported twice:

* raw: its wall time minus the probe's own time inside it, and
* at reference speed: raw times the mean speed over the samples inside it
  (samples are evenly spaced in time, so the mean weights each stretch of the
  span by its length); that is the time the span would take if the host ran
  the kernel in ``REFERENCE_KERNEL_S`` throughout.

``REFERENCE_KERNEL_S`` is a constant, so times at reference speed from one
machine compare with each other; across machines they differ by one factor.
The kernel calls no leafavg code, so a change to leafavg does not move the
reference.  The probe sees only the thread it interrupts, so the program must
do its work on that thread (``run.py`` keeps OpenBLAS to one thread).
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction
from typing import List, Tuple

INTERVAL_S = 0.02
# the kernel's median time on a 2-vCPU x86-64 guest, Python 3.11, at the
# host's fastest level
REFERENCE_KERNEL_S = 60e-6


def kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 25):
        total += Fraction(i, i + 1)
    return total


class SpeedProbe:
    """Samples the host's speed from a timer signal while it is started."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []  # (start, kernel seconds)

    def _tick(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()  # a collection inside the kernel is not host speed
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter() - start))
        if collecting:
            gc.enable()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def _inside(self, start: float, end: float) -> List[float]:
        return [d for t, d in self.samples if start <= t < end]

    def raw(self, start: float, end: float) -> float:
        """Wall seconds of [start, end) without the probe's own kernels."""
        return (end - start) - sum(self._inside(start, end))

    def speed(self, start: float, end: float) -> float:
        """Mean host speed over [start, end), 1.0 being the reference speed."""
        inside = self._inside(start, end)
        if not inside and self.samples:  # a span shorter than the interval
            middle = (start + end) / 2
            inside = [min(self.samples, key=lambda s: abs(s[0] - middle))[1]]
        return statistics.fmean(REFERENCE_KERNEL_S / d for d in inside) if inside else 1.0

    def at_reference(self, start: float, end: float) -> float:
        return self.raw(start, end) * self.speed(start, end)
