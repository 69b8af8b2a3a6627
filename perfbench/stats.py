"""Exact quantiles from raw per-message samples.

Every latency the benchmark reports is computed here from the full list of
samples, never from a bucketed histogram (a log-bucket histogram can report
a quantile above the observed maximum).  The callers keep a message that
never completed in its samples, at its age when the run gave up on it: a
lower bound, so it can only push a percentile up.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

#: Percentiles considered for "the highest percentile with at least ten
#: samples beyond it".
LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def quantile(sorted_samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (0 < p <= 100) of sorted samples."""
    if not sorted_samples:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p / 100.0 * len(sorted_samples)))
    return float(sorted_samples[rank - 1])


def highest_supported(count: int) -> Optional[float]:
    """Highest ladder percentile with at least ten samples beyond it."""
    best = None
    for p in LADDER:
        if count - math.ceil(p / 100.0 * count) >= 10:
            best = p
    return best


def summarize(samples: List[float]) -> Dict[str, object]:
    """Sample count, p99, and the highest supported percentile's value."""
    values = sorted(samples)
    if not values:
        return {"count": 0}
    top = highest_supported(len(values))
    out: Dict[str, object] = {
        "count": len(values),
        "p99": quantile(values, 99.0),
        "highest_supported_p": top,
    }
    if top is not None:
        out["p_top"] = quantile(values, top)
    return out
