"""Sample statistics shared by every workload.

A timing is reported as its median plus the highest percentile of a
fixed ladder that still has at least ``TAIL_MIN_BEYOND`` samples beyond
it, together with the sample count — so a tail figure is never read off
one or two outliers.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

#: Percentiles considered for the tail figure, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of ``values``; NaN when there are none."""
    if len(values) == 0:
        return float("nan")
    return float(np.median(np.asarray(values, dtype=np.float64)))


def trimmed_mean(values: Sequence[float], cut: float = 0.1) -> float:
    """Mean of ``values`` without the lowest and highest ``cut`` share.

    Robust against stray outliers like the median, but where the host's
    speed drifts between two states during a run it weighs both by the
    time spent in them, where a median jumps towards whichever state
    held most samples; so it repeats better from run to run.
    """
    data = np.sort(np.asarray(values, dtype=np.float64))
    if data.size == 0:
        return float("nan")
    drop = int(data.size * cut)
    if drop:
        data = data[drop:data.size - drop]
    return float(np.mean(data))


def tail_percentile(count: int) -> Optional[float]:
    """Highest ladder percentile with ``TAIL_MIN_BEYOND`` samples beyond it.

    ``None`` when even the median lacks that many samples above it.
    """
    best = None
    for pct in TAIL_LADDER:
        if count * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND - 1e-9:
            best = pct
    return best


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """``{"median", "trimmed_mean", "n", "tail_pct", "tail"}`` of a sample.

    Infinite samples (failed operations, which miss any latency limit)
    stay in the sample, so they push the median and tail up.
    """
    data = np.asarray(values, dtype=np.float64)
    pct = tail_percentile(data.size)
    tail = None
    if pct is not None:
        tail = float(np.percentile(data, pct, method="higher"))
    return {"median": median(data), "trimmed_mean": trimmed_mean(data),
            "n": int(data.size), "tail_pct": pct, "tail": tail}


def finite(value: float, cap: float = 1e12) -> float:
    """``value`` with non-finite numbers replaced by ``cap`` (JSON-safe)."""
    return float(value) if math.isfinite(value) else cap
