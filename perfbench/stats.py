"""Percentiles as the benchmark reports them.

The benchmark owns this code so a change to the program's own histogram
or percentile code cannot move the instrument.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

# A percentile is reported only when at least this many samples lie
# beyond it; below that the value is one or two unlucky samples.
MIN_BEYOND = 10


def min_samples(p: float) -> int:
    """Fewest samples for which the ``p``-th percentile is reportable."""
    return math.ceil(MIN_BEYOND * 100.0 / (100.0 - p))


def percentile(values: Sequence[float], p: float) -> float | None:
    """Nearest-rank ``p``-th percentile, or None when too few samples.

    The nearest-rank value is ``sorted(values)[ceil(p * n / 100) - 1]``;
    it is reported only when at least :data:`MIN_BEYOND` samples rank
    above it.
    """
    n = len(values)
    rank = max(1, math.ceil(p * n / 100.0))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]
