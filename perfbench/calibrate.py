"""Machine-speed calibration for the end-to-end times.

The machine the benchmark runs on is shared, and its speed drifts between
phases that last minutes: the same dlforge op can take 0.85 s in one phase
and 1.25 s in another, and CPU time drifts with wall time.  A run of a
minute sits in one phase, so a median over the run cannot remove the drift.

``Calibration`` times a fixed piece of pure-Python work (``reference_work``,
which uses nothing from dlforge) between ops, and scales each op's wall
time by ``REFERENCE_S`` over the reference time measured around it.  A
scaled time is the time the op would have taken at the speed at which the
reference work takes ``REFERENCE_S``: machine drift cancels, while a change
in the work dlforge does shows in full.
"""

from __future__ import annotations

import statistics
import time

# Median time of one ``reference_work()`` on the reference machine (see
# README.md).  Scaled times are seconds at this speed.
REFERENCE_S = 0.011
REPEATS = 9


def reference_work():
    """A fixed mix of what dlforge spends its time on: dicts keyed by small
    tuples, symmetric-difference accumulation as in a GF(2) product, integer
    arithmetic, sorting and small-object churn."""
    total = 0
    for round_ in range(10):
        left = {(i, (7 * i + round_) % 13): 1 for i in range(60)}
        right = {(j % 11, j): 1 for j in range(40)}
        product = {}
        for i1, j1 in left:
            for i2, j2 in right:
                key = (i1 + i2, j1 ^ j2)
                if key in product:
                    del product[key]
                else:
                    product[key] = 1
        total += len(product) + sorted(product)[len(product) // 2][0]
    return total


def measure():
    """Median wall time of ``REPEATS`` runs of the reference work."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Calibration:
    """Scale factors for the ops timed between successive calibrations."""

    def __init__(self):
        self.last = measure()

    def scale(self):
        """Measure the speed now; return the factor for the op(s) timed since
        the previous call, from the mean of the speeds before and after."""
        now = measure()
        factor = REFERENCE_S / ((self.last + now) / 2.0)
        self.last = now
        return factor
