"""The host's current speed, read from a fixed calibration kernel.

The benchmark's reference host is shared. Each of its cores switches,
every few seconds, between states whose single-thread speeds differ by
about 1.4x, and the cores switch independently. Raw wall times of the
same work therefore spread by up to 50 % between runs minutes apart.

The harness pins itself and its children to one core and runs
``kernel()`` on that core right before and right after each timed
request, and between the public calls of a long request (see ``Clock``).
A stretch of time is reported in *reference seconds*: its wall time
times ``REFERENCE_S`` over the mean of the kernel times at its ends. A
faster program lowers the wall time and leaves the kernel alone, so a
real gain still shows; a slower or faster host moves both and cancels.

The kernel mixes the interpreted work the workloads spend their time in:
integer loops, ``Fraction`` arithmetic, generator-based boolean products
and a depth-first byte expansion. It is a frozen stand-in that calls no
``chainshift`` code, so a change of the program never changes the kernel.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

# Median kernel time on the reference host in its fast state (2 cores,
# Python 3.11.7). Only the unit of the reported times depends on it.
REFERENCE_S = 0.0021
# Longest stretch of a request timed without a fresh kernel sample.
LAP_S = 0.1

_IMAGES = [bytes([1, 2]), bytes([0]), bytes([2, 1, 0])]
_ROWS = tuple(tuple((i * j) % 5 == 0 for j in range(24)) for i in range(24))


def kernel() -> int:
    """A fixed few milliseconds of the interpreted work the workloads do."""
    s = 0
    for i in range(3000):  # integer loop
        s += i * i % 7
    x = Fraction(1, 3)
    for i in range(1, 120):  # Fraction arithmetic, as in exact elimination
        x = x * Fraction(i, i + 2) + Fraction(1, i)
    cols = list(zip(*_ROWS))
    for _ in range(2):  # generator-based boolean product, as in the witness search
        s += sum(1 for row in _ROWS for col in cols if any(a and b for a, b in zip(row, col)))
    out = bytearray()
    stack = [[_IMAGES[0], 0, 9]]
    while stack and len(out) < 3000:  # depth-first expansion, as in the kernels
        frame = stack[-1]
        img, pos, power = frame
        if pos == len(img):
            stack.pop()
            continue
        frame[1] += 1
        if power == 0:
            out.append(img[pos])
        else:
            stack.append([_IMAGES[img[pos]], 0, power - 1])
    return s + len(out) + x.denominator % 7


def sample() -> float:
    """Seconds one kernel call takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def pin() -> None:
    """Keep this process, and the children it starts, on one core."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # no affinity control here: run unpinned
        pass


class Clock:
    """Times calls in reference seconds, sampling the kernel between them.

    A timed call may be cut into segments with ``lap_if_due()`` at the
    boundaries of the public calls it makes; each segment is scaled by the
    kernel samples at its two ends. A long request so follows the host's
    speed as it changes, instead of taking one scale from its two ends.
    """

    def __init__(self):
        kernel()  # warm the kernel's code paths before the first sample
        self.before = sample()
        self.scale = 1.0
        self.mark = time.perf_counter()
        self.scaled = self.wall = 0.0

    def lap(self) -> None:
        """Close the current segment and start the next."""
        seg = time.perf_counter() - self.mark
        after = sample()
        self.scale = REFERENCE_S / ((self.before + after) / 2)
        self.scaled += seg * self.scale
        self.wall += seg
        self.before = after
        self.mark = time.perf_counter()

    def lap_if_due(self) -> None:
        if time.perf_counter() - self.mark > LAP_S:
            self.lap()

    def time(self, fn, *args):
        """``(fn(*args), reference seconds, wall seconds)``.

        After it, ``scale`` holds the last segment's reference seconds per
        wall second."""
        self.scaled = self.wall = 0.0
        self.mark = time.perf_counter()
        result = fn(*args)
        self.lap()
        return result, self.scaled, self.wall
