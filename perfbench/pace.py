"""Host-speed gauge: times scaled to a fixed reference speed of the host.

The benchmark shares a few vCPUs of a host whose speed drifts by a factor of
up to two, from one second to the next and over minutes, with other
tenants' load.  The guest does not see that drift as lost CPU time: the
process's CPU time grows as fast as its wall time, only every instruction
takes longer.  So a raw time measures the host as much as the program.

`Gauge` samples the host's speed while the benchmark runs.  Every
`INTERVAL_S` of the process's CPU time a SIGVTALRM handler runs `kernel`, a
fixed piece of pure-Python `Fraction` arithmetic like the package's own, and
records when and how long it ran.  Each stretch of the program between two
samples is then counted at ``(REFERENCE_KERNEL_S / k) ** SENSITIVITY`` of
its length, ``k`` being the median kernel time over the `SMOOTHING` samples
on either side, and a time measured between two marks is the sum over the
stretches it covers.  The handler's own time is left out, so the gauge
costs the program about 2% and adds nothing to the times.

Summing stretch by stretch follows the host from one tenth of a second to
the next: on repeats of the longest items it left an interquartile spread
of 2-4% where one factor per item left 8-11% and raw times 14-39%.  The
kernel's working set is tiny on purpose: a memory-bound kernel tracked the
program's slowdown far worse.  The program slows less than the kernel when
the host is busy; over loaded and unloaded stretches on all three workloads
its time went as the 0.8 to 0.9 power of the kernel's, so `SENSITIVITY` is
0.85.  Nothing in the kernel calls the package, so no change to the package
moves it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.01
SMOOTHING = 5
# the kernel's median time on an unloaded vCPU of the 2-vCPU x86-64 VM the
# benchmark was defined on (CPython 3.11); it only sets the scale
REFERENCE_KERNEL_S = 150e-6
SENSITIVITY = 0.85

_TERMS = tuple(Fraction(i % 13 + 1, i % 7 + 2) for i in range(40))


def kernel() -> Fraction:
    total = Fraction(0)
    low = {}
    for i, term in enumerate(_TERMS):
        total += term * _TERMS[-i]
        low[i] = total.numerator & 255
    return total


class Gauge:
    """Kernel timings sampled on the process's CPU-time clock.

    A gauge that was never started takes no samples and its times are the
    raw ones.
    """

    def __init__(self):
        self.origin = time.perf_counter()
        # (handler start, kernel end, handler end) per sample; one append
        # per sample, so a signal raised in the handler leaves no half entry
        self.samples: list[tuple[float, float, float]] = []
        self._clock: list[float] = []  # scaled seconds up to each sample
        self._factors: list[float] = []

    def start(self) -> None:
        kernel()  # build the kernel's caches before the first sample
        self.origin = time.perf_counter()
        signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_IGN)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append((t0, t1, time.perf_counter()))

    def mark(self) -> tuple[float, int]:
        return time.perf_counter(), len(self.samples)

    def raw(self, a, b) -> float:
        """Seconds between marks `a` and `b`, less the handler's time."""
        handler = sum(end - start for start, _, end in self.samples[a[1]:b[1]])
        return b[0] - a[0] - handler

    def scaled(self, a, b) -> float:
        """Seconds between marks `a` and `b` at the reference host speed."""
        if not self.samples:
            return self.raw(a, b)
        return self._at(b) - self._at(a)

    def _at(self, mark) -> float:
        if len(self._clock) != len(self.samples) + 1:
            self._build()
        t, n = mark
        since = self.samples[n - 1][2] if n else self.origin
        factor = self._factors[min(n, len(self._factors) - 1)]
        return self._clock[n] + (t - since) * factor

    def _build(self) -> None:
        kernels = [k1 - k0 for k0, k1, _ in self.samples]
        self._factors = [
            (REFERENCE_KERNEL_S / statistics.median(
                kernels[max(i - SMOOTHING, 0):i + SMOOTHING + 1])) ** SENSITIVITY
            for i in range(len(kernels))]
        self._clock = [0.0]
        since = self.origin
        for (start, _, end), factor in zip(self.samples, self._factors):
            self._clock.append(self._clock[-1] + (start - since) * factor)
            since = end
