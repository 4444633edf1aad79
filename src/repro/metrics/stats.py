"""Latency summary statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["percentile", "LatencySummary", "summarize_ns",
           "order_statistic_ranks", "quantile_interval"]


def percentile(samples: Sequence[float], pct: float) -> float:
    """The *pct*-th percentile (0-100) of *samples* (linear interpolation).

    Raises ValueError on an empty sample set — silently returning 0 would
    make a broken experiment look infinitely fast.
    """
    if len(samples) == 0:
        raise ValueError("cannot take a percentile of zero samples")
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), pct))


#: Each end of a two-sided 95 % interval leaves out this much mass.
_TAIL = 0.025


def order_statistic_ranks(n: int, q: float
                          ) -> Tuple[Optional[int], Optional[int]]:
    """1-based ranks ``(lo, hi)`` of the order statistics bracketing the
    *q*-quantile with at least 95 % coverage (distribution-free).

    The number of samples below the true quantile is Binomial(n, q):
    ``lo`` is the largest rank with P(count < lo) <= 0.025, ``hi`` the
    smallest with P(count < hi) >= 0.975.  An end is ``None`` when
    *n* samples are too few to bound the quantile from that side — e.g.
    the p99 of 300 samples has no upper bound at 95 %.
    """
    if not 0 < q < 1:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    log_q, log_p, log_n = math.log(q), math.log1p(-q), math.lgamma(n + 1)
    lo: Optional[int] = None
    cdf = 0.0
    for k in range(n + 1):  # cdf = P(count <= k) = P(count < k + 1)
        cdf += math.exp(log_n - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                        + k * log_q + (n - k) * log_p)
        if cdf <= _TAIL:
            lo = k + 1
        elif cdf >= 1.0 - _TAIL:
            return lo, (k + 1 if k < n else None)
    return lo, None


def quantile_interval(samples: Sequence[float], q: float
                      ) -> Tuple[float, float]:
    """The 95 % order-statistic interval of :func:`order_statistic_ranks`
    as sample values; an unbounded end is ``-inf`` / ``inf``."""
    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    lo, hi = order_statistic_ranks(len(ordered), q)
    return (float(ordered[lo - 1]) if lo else -math.inf,
            float(ordered[hi - 1]) if hi else math.inf)


@dataclass(frozen=True)
class LatencySummary:
    """min / avg / median / p99 / p99.9 / max over a latency sample set."""

    count: int
    min_ns: float
    avg_ns: float
    p50_ns: float
    p90_ns: float
    p99_ns: float
    p999_ns: float
    max_ns: float

    @property
    def min_us(self) -> float:
        return self.min_ns / 1_000

    @property
    def avg_us(self) -> float:
        return self.avg_ns / 1_000

    @property
    def p50_us(self) -> float:
        return self.p50_ns / 1_000

    @property
    def p90_us(self) -> float:
        return self.p90_ns / 1_000

    @property
    def p99_us(self) -> float:
        return self.p99_ns / 1_000

    @property
    def p999_us(self) -> float:
        return self.p999_ns / 1_000

    @property
    def max_us(self) -> float:
        return self.max_ns / 1_000

    def __str__(self) -> str:
        return (f"n={self.count} min={self.min_us:.1f}us avg={self.avg_us:.1f}us "
                f"p50={self.p50_us:.1f}us p99={self.p99_us:.1f}us "
                f"max={self.max_us:.1f}us")


def summarize_ns(samples: Sequence[float]) -> Optional[LatencySummary]:
    """Summarize a nanosecond sample set; None when empty."""
    if len(samples) == 0:
        return None
    array = np.asarray(samples, dtype=np.float64)
    return LatencySummary(
        count=int(array.size),
        min_ns=float(array.min()),
        avg_ns=float(array.mean()),
        p50_ns=float(np.percentile(array, 50)),
        p90_ns=float(np.percentile(array, 90)),
        p99_ns=float(np.percentile(array, 99)),
        p999_ns=float(np.percentile(array, 99.9)),
        max_ns=float(array.max()),
    )
