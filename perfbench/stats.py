"""Order statistics for benchmark samples."""

from __future__ import annotations

import math
import statistics

# A percentile is reported only when this many samples lie above it.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def percentile(values, q):
    """Nearest-rank q-th percentile, or None when too few samples lie beyond it."""
    xs = sorted(values)
    if not xs:
        return None
    rank = max(1, math.ceil(q / 100 * len(xs)))
    if len(xs) - rank < MIN_BEYOND:
        return None
    return xs[rank - 1]
