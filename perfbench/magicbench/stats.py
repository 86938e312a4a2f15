"""Percentile and ratio helpers shared by every workload.

Every timing is reported as its median plus the highest percentile that
still has at least :data:`MIN_TAIL_SAMPLES` samples beyond it, always
with the sample count; every ratio carries its numerator and base.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

#: A tail percentile is reported only when this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def samples_beyond(count: int, percentile: float) -> float:
    """How many of ``count`` samples lie above ``percentile``."""
    return count * (100.0 - percentile) / 100.0


def supports(count: int, percentile: float) -> bool:
    """True when ``percentile`` has at least ten samples beyond it.

    The small epsilon absorbs float error in ``count * 0.01`` and the like.
    """
    return samples_beyond(count, percentile) + 1e-9 >= MIN_TAIL_SAMPLES


def tail_percentile(count: int) -> Optional[float]:
    """The highest supported percentile of ``count`` samples, or None."""
    for percentile in TAIL_PERCENTILES:
        if supports(count, percentile):
            return percentile
    return None


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (the ``/metrics`` convention)."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, p99 and the highest supported tail, with the count.

    ``p99_supported`` says whether p99 itself has ten samples beyond it;
    when it does not, ``p99`` is still computed but must not be quoted
    as a tail figure.
    """
    count = len(values)
    tail = tail_percentile(count)
    return {
        "count": count,
        "p50": median(values) if count else math.nan,
        "p99": percentile(values, 99.0) if count else math.nan,
        "p99_supported": supports(count, 99.0),
        "tail_percentile": tail,
        "tail": percentile(values, tail) if tail is not None else math.nan,
    }


def ratio(numerator: float, base: float) -> Dict[str, float]:
    """A ratio with its base; ``value`` is 0.0 when the base is empty."""
    return {
        "value": (numerator / base) if base else 0.0,
        "numerator": numerator,
        "base": base,
    }
