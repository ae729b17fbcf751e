"""Order statistics with the benchmark's reporting rules."""

from __future__ import annotations

import math

#: A percentile is reported only when at least this many samples lie
#: beyond it; with fewer, its value is set by a handful of outliers.
MIN_TAIL = 10


def rank_index(n: int, q: float) -> int:
    """Nearest-rank index of quantile ``q`` in a sorted sample of ``n``."""
    return max(0, math.ceil(q * n) - 1)


def qualifies(n: int, q: float) -> bool:
    """True when at least :data:`MIN_TAIL` of ``n`` samples lie beyond
    the ``q`` percentile."""
    return n > 0 and n - 1 - rank_index(n, q) >= MIN_TAIL


def percentile(values, q: float) -> float:
    """Nearest-rank ``q`` percentile; ``inf`` entries sort last.

    Raises ``ValueError`` when the sample is too small for the
    percentile to have :data:`MIN_TAIL` samples beyond it.
    """
    ordered = sorted(values)
    if not qualifies(len(ordered), q):
        raise ValueError(f"p{q * 100:g} needs {MIN_TAIL} samples beyond it; "
                         f"have {len(ordered)} samples")
    return ordered[rank_index(len(ordered), q)]


def gmean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(num: float, den: float) -> float:
    """``num / den``, with 0 for an empty denominator (nothing attempted)."""
    return num / den if den else 0.0
