"""Machine-speed calibration.

On a virtual machine that shares its host with other tenants, the CPU time
of the same op drifts by up to 1.6x within minutes. A fixed calibration
unit, timed next to the ops, tracks that drift: on a 2-vCPU Intel Xeon
x86_64 VM (Python 3.11.7) the ratio of an exact node-sum op to the unit had
a quartile spread of 0.07 where the op alone had 0.21. Every reported time
is an op's CPU time scaled to the speed at which one unit takes
REFERENCE_UNIT_S.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

import mpmath

# CPU seconds of one unit on that VM when quiet (Python 3.11.7, x86_64);
# a constant, so scaled times from different runs compare directly
REFERENCE_UNIT_S = 0.010
# take a calibration sample after this much op CPU time
SAMPLE_EVERY_S = 0.1
# an op is scaled by the median of this many samples nearest to it
WINDOW = 3


def unit() -> float:
    """The kinds of work qfj does: rational arithmetic on growing integers,
    a plain interpreter loop, float arithmetic and mpmath arithmetic."""
    q = Fraction(37, 53)
    term = Fraction(1)
    total = Fraction(0)
    for n in range(300):
        term *= q
        total += term / (n + 1)
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    x = 0.0
    for i in range(1, 4000):
        x += math.sqrt(i) / (1.0 + x * 1e-9)
    with mpmath.workdps(60):
        harmonic = mpmath.mpf(0)
        for i in range(1, 150):
            harmonic += mpmath.mpf(1) / i
    return float(total) + acc + x + float(harmonic)


def sample() -> float:
    start = time.process_time()
    unit()
    return time.process_time() - start


def burst(count: int = 3) -> float:
    """Median of a few samples, for callers that calibrate between
    subprocesses."""
    return statistics.median(sample() for _ in range(count))


def scale(cpu_s: float, unit_s: float) -> float:
    """CPU seconds at the reference speed."""
    return cpu_s * REFERENCE_UNIT_S / unit_s


def local_units(sample_positions: list[int], samples: list[float], count: int) -> list[float]:
    """For each of `count` ops, the median of the WINDOW samples whose
    positions (the op index a sample was taken before) are nearest to it."""
    out = []
    for index in range(count):
        nearest = sorted(range(len(samples)),
                         key=lambda k: abs(sample_positions[k] - index))[:WINDOW]
        out.append(statistics.median(samples[k] for k in nearest))
    return out
