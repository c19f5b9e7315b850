"""A fixed calibration kernel that gauges the host's speed while a run measures.

On a shared host, other work slows this process for stretches that last
seconds to minutes, longer than a whole run, so neither the fastest nor the
median call of a run is steady from one run to the next.  The kernel below
does a fixed amount of work of the kind that dominates the workloads:
interpreter loops that make small numpy calls.  ``run.py`` times it right
before and after every measured call, and divides the call's time by theirs;
a slow spell of the host stretches both alike.

Times are reported in reference seconds: the seconds a call takes on a host
on which the kernel takes ``REFERENCE_S``.  That figure is the kernel's
median time on a quiet 2-core x86-64 host, rounded, and is a fixed unit; it
must not change between the commits a comparison covers.
"""

from time import perf_counter

import numpy as np

REFERENCE_S = 0.015
_ROUNDS = 6000
_CUMULATIVE = np.cumsum(np.full(4, 0.25))
_DRAWS = np.random.default_rng(20240618).random(_ROUNDS)


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    start = perf_counter()
    total = 0
    for u in _DRAWS:
        total += int(np.searchsorted(_CUMULATIVE, u, side="right"))
    seconds = perf_counter() - start
    if not 0 < total < 4 * _ROUNDS:
        raise RuntimeError(f"calibration kernel computed {total}")
    return seconds


class HostGauge:
    """Rescales measured times by the kernel runs on either side of them."""

    def __init__(self):
        self.before = kernel_seconds()
        self.kernel = [self.before]

    def rescale(self, seconds: float) -> float:
        """Reference seconds of a time measured since the previous call."""
        after = kernel_seconds()
        self.kernel.append(after)
        scale = REFERENCE_S / ((self.before + after) / 2)
        self.before = after
        return seconds * scale
