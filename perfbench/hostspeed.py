"""Host-speed probes: fixed loops of stdlib ``Fraction`` arithmetic.

The benchmark host is a few cores of a shared machine whose speed swings by
up to 1.6x over seconds to minutes, for CPU time as much as for wall time.
A short probe run next to each command tracks how fast the host is at that
moment.  The timed loop scales every command's time by
``REFERENCE_PROBE_S / probe time``: the result is the command's time on a
host where the probe takes ``REFERENCE_PROBE_S``.  The probe is stdlib code,
so a change to qlax changes the scaled times and leaves the scale alone.

The probe multiplies and adds ``Fraction`` objects read in a scattered order
from a pool of several megabytes.  qlax does the same kind of work, on data
that does not fit in a core's cache, and its commands slow down with the
host by the same factor as this probe (log-log slope 1.0-1.1 over 37
three-second windows on the 2-vCPU host the benchmark was built on).  A
tight loop over a few small objects slows down more than qlax under load
(slope 0.75-0.85), so scaling by it would overcorrect in slow spells.

Set-up time is scaled by a second probe, a bare interpreter start, because
starting a process slows down with the host differently from arithmetic.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

POOL_SIZE = 60000
PROBE_STEPS = 300
# The probe's time on the 2-vCPU host the benchmark was built on, when that
# host was quiet; scaled times read as seconds on such a host.
REFERENCE_PROBE_S = 0.0018
# Probes on each side of a command whose median gives its scale; the window
# spans about a second of commands, shorter than the host's slow spells.
WINDOW = 10


class Probe:
    """The probe and its pool; build it outside every timing (about 0.2 s)."""

    def __init__(self):
        rng = random.Random(1)
        self.pool = [Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**6)) for _ in range(POOL_SIZE)]
        order = list(range(1, POOL_SIZE, 7))
        rng.shuffle(order)
        self.order = order[:PROBE_STEPS]

    def __call__(self) -> float:
        """Seconds taken by one probe."""
        pool = self.pool
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in self.order:
            acc += pool[i] * pool[i - 1]
            if acc.denominator > 10**30:
                acc = Fraction(acc.numerator % 1000003, acc.denominator % 1000003 + 1)
        return time.perf_counter() - t0


def scales(probes) -> list:
    """Per-command factor ``REFERENCE_PROBE_S / median of the nearby probes``."""
    out = []
    for i in range(len(probes)):
        window = probes[max(0, i - WINDOW): i + WINDOW + 1]
        out.append(REFERENCE_PROBE_S / statistics.median(window))
    return out


# Set-up is mostly starting a process, which this probe tracks far better
# (log-log slope 1.06, r² 0.97 over 23 four-second windows, against 0.58 and
# 0.80 for the Fraction probe): a bare interpreter start, without site or
# qlax, which took 9.4-13.7 ms on the host the benchmark was built on.
REFERENCE_START_S = 0.010
START_PROBES = 3


def start_probe() -> float:
    """Seconds taken by the median of a few bare interpreter starts."""
    samples = []
    for _ in range(START_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def fraction_loop(iterations: int) -> float:
    """Seconds taken by a fixed loop of small ``Fraction`` products and sums."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, iterations + 1):
        acc += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, i % 7 + 1)
        if i % 1000 == 0:
            acc = Fraction(acc.numerator % 1000003, acc.denominator % 1000003 + 1)
    return time.perf_counter() - t0
