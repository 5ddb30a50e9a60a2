"""Reference-loop normalisation and order statistics.

The speed of a shared machine drifts by tens of percent within minutes.  A
set of short stdlib loops, timed before and after every measurement in the
same process, drifts with it.  Their speed index is the mean, over the loops,
of measured seconds / nominal seconds, and each timing is reported as

    raw seconds / (mean speed index of the reference runs before and after)

that is, in seconds on a machine where every loop takes its nominal time.
The loops cover integer arithmetic, Fraction arithmetic, dict and tuple
churn and a pointer chase through memory; together they track the jobs'
speed better than any one of them.  Raw seconds and indices are kept beside
every normalised figure.
"""

from __future__ import annotations

import math
import random
import time
from array import array
from fractions import Fraction

CHASE_N = 250_000

# Seconds each loop takes on the 2-vCPU machine the benchmark was defined on.
NOMINAL_S = {"int": 0.0093, "fraction": 0.0071, "dict": 0.0076, "chase": 0.0100}


def _int_loop(_):
    x = 0
    for i in range(100_000):
        x = (x * 31 + i) % 1_000_003


def _fraction_loop(_):
    a, b = Fraction(3, 7), Fraction(5, 11)
    for i in range(1_500):
        a * b + Fraction(i, 3)


def _dict_loop(_):
    d = {}
    for i in range(30_000):
        k = (i % 211, i % 7)
        d[k] = d.get(k, 0) + 1


def _chase_loop(chase):
    j = 0
    for _ in range(70_000):
        j = chase[j]


_LOOPS = {"int": _int_loop, "fraction": _fraction_loop, "dict": _dict_loop, "chase": _chase_loop}


class Reference:
    """The reference loops; `index()` runs each once and returns the speed index."""

    def __init__(self):
        self.chase = array("l", range(CHASE_N))
        random.Random(0).shuffle(self.chase)

    def index(self):
        total = 0.0
        for name, loop in _LOOPS.items():
            t0 = time.perf_counter()
            loop(self.chase)
            total += (time.perf_counter() - t0) / NOMINAL_S[name]
        return total / len(_LOOPS)


def gap_index(indices, gap):
    """Speed index for the measurement between reference runs `gap` and `gap + 1`."""
    return (indices[gap] + indices[gap + 1]) / 2


def tail_level(n, beyond=10):
    """Highest integer percentile whose nearest-rank sample has >= `beyond` samples after it.

    None when n <= beyond: no percentile of so few samples has that many beyond it.
    """
    for level in range(99, 0, -1):
        if n - math.ceil(level * n / 100) >= beyond:
            return level
    return None


def _beta_cf(a, b, x):
    """Continued fraction of the regularised incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def betainc(a, b, x):
    """Regularised incomplete beta function I_x(a, b) for a, b > 0."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all order statistics.

    On a mix of job sizes with gaps between them, a single order statistic
    jumps across a gap when one job's time moves; this estimate moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def self_times(spans):
    """Self time of each span: its duration minus the durations of its direct children.

    `spans` is a sequence of (start, end, parent index or None), parents
    before children; children of one span never overlap in a single thread.
    """
    child = [0.0] * len(spans)
    for start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - c for (start, end, _), c in zip(spans, child)]
