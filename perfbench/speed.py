"""Probes of the machine's current speed, and calibrated times.

On a shared host each CPU switches between a fast and a slow state, about
1.7x apart, within seconds, and Python bytecode and LAPACK slow down by
different amounts. Every timed call is bracketed by a probe, a fixed kernel
of about 40 ms that shares no code with biconcert, of the kind that matches
what the call spends its time on. A calibrated time is the wall time scaled
by PROBE_REFERENCE_S over the mean of the two probe times: on a host where
the probe takes 40 ms, calibrated and wall seconds agree.

This module imports nothing outside the standard library at import time, so
that the set-up probe can load it before importing biconcert.
"""

from __future__ import annotations

import functools
from time import perf_counter

PROBE_REFERENCE_S = 0.04


def python_probe() -> float:
    start = perf_counter()
    counts: dict[int, int] = {}
    for i in range(250_000):
        counts[i & 127] = counts.get(i & 127, 0) + i
    return perf_counter() - start


@functools.cache
def _probe_matrix():
    import numpy as np

    m = np.random.default_rng(0).random((100, 100))
    return np, m + m.T


def lapack_probe() -> float:
    np, m = _probe_matrix()
    start = perf_counter()
    for _ in range(70):
        np.linalg.eigvalsh(m)
    return perf_counter() - start


def calibrated(wall: float, before: float, after: float) -> float:
    return wall * 2 * PROBE_REFERENCE_S / (before + after)
