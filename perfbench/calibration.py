"""A fixed reference task that rescales timings to one nominal machine speed.

The benchmark's host is a small shared VM whose speed swings by 20-30% for
seconds at a time, as other tenants come and go.  Every timing the
benchmark reports is therefore measured next to this task, which runs the
same kind of code (interpreted Python and small complex numpy products) but
no ruwitness code, and is scaled by ``NOMINAL_S / reference time``.  A
change to ruwitness cannot move the reference, so speed-ups and slow-downs
of the program show in full, while the host's swings largely cancel.  The
raw, unscaled timings go to the results file as well.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Time of one reference task on a 2-core Xeon VM (KVM, Sapphire Rapids) when
# the host is quiet.  It only fixes the unit of the scaled timings.
NOMINAL_S = 0.0035

_MATRIX = np.random.default_rng(0).standard_normal((16, 16)) + 0j


def _task() -> float:
    start = perf_counter()
    total = 0
    for j in range(20000):
        total += j * j % 7
    m = _MATRIX
    for _ in range(300):
        m = (m @ _MATRIX) / 4.0
    return perf_counter() - start


def reference_seconds(effort_s: float = 0.0) -> float:
    """Median wall time of the reference task, repeated for about ``effort_s``.

    A single run lasts a few milliseconds and jitters; a timing that lasts
    seconds is scaled by the median of proportionally more runs.
    """
    times = [_task()]
    while sum(times) < effort_s:
        times.append(_task())
    return statistics.median(times)


# share of a measured interval spent on the reference task at each end
EFFORT = 0.03


def bracket(measure, expected_s: float):
    """Run ``measure()`` between two reference measurements.

    Returns its result and the factor that scales its wall time to the
    nominal speed.
    """
    before = reference_seconds(EFFORT * expected_s)
    result = measure()
    after = reference_seconds(EFFORT * expected_s)
    return result, NOMINAL_S / (0.5 * (before + after))
