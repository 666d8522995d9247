"""A speed probe that counts work in units of a fixed piece of code.

The hosts this benchmark runs on change speed for all interpreted code
at once, often by a factor of two for a few hundred milliseconds.  A
timer signal runs `probe_pass` every 25 ms of wall time; the work between
two probes is counted in probe lengths, against the mean of those two
probes.  Probe time itself is left out of every total.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

PROBE_EVERY_S = 0.025
# Set-up is short, so it is probed more often to count it as closely.
SETUP_PROBE_EVERY_S = 0.005


def probe_pass() -> float:
    """Seconds for one fixed pass of exact-arithmetic dictionary work, the
    kind of interpreter work the library does.  Changing it changes the
    unit every scaled time is counted in.

    The garbage collector is off during the pass, so a collection its
    allocations trigger, whose cost grows with the program's heap, runs in
    the program's time just after it rather than inside the probe."""
    enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    table: dict = {}
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i % 11, i % 7 + 1)
        key = (i % 97, i * 7 % 13)
        table[key] = table.get(key, Fraction(0)) + total
    seconds = time.perf_counter() - started
    if enabled:
        gc.enable()
    return seconds


class SpeedProbe:
    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []   # (start, seconds)

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        self.probes.append((started, probe_pass()))

    def start(self, every: float = PROBE_EVERY_S) -> None:
        """Probe every `every` seconds from now on; a second call changes
        the interval."""
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, every, every)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def window(self, start: float, end: float) -> tuple[float, float, float]:
        """(work seconds, work in probe lengths, probe seconds) between two
        perf_counter readings."""
        inside = [p for p in self.probes if start <= p[0] < end]
        if not inside:
            nearest = min(self.probes, key=lambda p: abs(p[0] - start))
            return end - start, (end - start) / nearest[1], 0.0
        seconds = passes = 0.0
        edge, before = start, inside[0][1]
        for at, length in inside:
            gap = at - edge
            seconds += gap
            passes += gap / ((before + length) / 2)
            edge, before = at + length, length
        seconds += end - edge
        passes += (end - edge) / before
        return seconds, passes, sum(length for _, length in inside)
