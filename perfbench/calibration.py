"""The calibration loop that scales the benchmark's timings to host speed."""

from __future__ import annotations

import math
import time

import mpmath
import numpy


def calibrate() -> float:
    """Wall seconds of a fixed loop of mpmath, float and numpy work (~4 ms).

    The loop is the benchmark's own code, not the program's; timed around
    every job, and in every fresh interpreter that measures set-up, it
    measures how fast the host runs Python right then.
    """
    t0 = time.perf_counter()
    with mpmath.workdps(40):
        x = mpmath.mpf(0)
        for i in range(60):
            x += mpmath.sinh(mpmath.mpf(i) / 300) ** 3 / mpmath.cosh(mpmath.mpf(i) / 100)
    acc = 0.0
    for i in range(8000):
        acc += math.sinh(i * 1e-4) / (1.0 + i)
    grid = numpy.arange(20000.0)
    for _ in range(5):
        acc += float(numpy.exp(-grid * 1e-4).sum())
    return time.perf_counter() - t0


def calibrate_numpy() -> float:
    """Wall seconds of a fixed numpy loop shaped like a Monte Carlo block (~11 ms).

    Philox normals, exp and products over 2^16-element arrays, as in the
    program's lattice blocks: the speed of numpy-bound jobs, which the
    interpreter-bound loop above does not follow.
    """
    t0 = time.perf_counter()
    rng = numpy.random.Generator(numpy.random.Philox(key=numpy.array([7, 0], dtype=numpy.uint64)))
    n = 1 << 16
    z = numpy.zeros(n)
    acc = numpy.zeros(n)
    prev = numpy.exp(z)
    for _ in range(6):
        z = 0.5 * z + 0.1 * rng.standard_normal(n)
        nxt = numpy.exp(z)
        acc += prev * nxt
        prev = nxt
    float(numpy.sum(numpy.exp(-1.0 / acc)))
    return time.perf_counter() - t0
