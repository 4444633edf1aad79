"""Empirical CDFs, for the paper's latency-distribution figures."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["Cdf"]


class Cdf:
    """An empirical cumulative distribution over a sample set."""

    def __init__(self, samples: Sequence[float]) -> None:
        if len(samples) == 0:
            raise ValueError("cannot build a CDF from zero samples")
        self._sorted = np.sort(np.asarray(samples, dtype=np.float64))

    @property
    def count(self) -> int:
        return int(self._sorted.size)

    def at(self, value: float) -> float:
        """P(X <= value)."""
        return float(np.searchsorted(self._sorted, value, side="right")
                     / self._sorted.size)

    def quantile(self, q: float) -> float:
        """Inverse CDF, q in [0, 1]."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        return float(np.quantile(self._sorted, q))

    def points(self, n: int = 100) -> List[Tuple[float, float]]:
        """(value, cumulative probability) pairs for plotting."""
        if n < 2:
            raise ValueError("need at least 2 points")
        qs = np.linspace(0, 1, n)
        values = np.quantile(self._sorted, qs)
        return [(float(v), float(q)) for v, q in zip(values, qs)]

    def __repr__(self) -> str:
        return (f"<Cdf n={self.count} p50={self.quantile(0.5):.0f} "
                f"p99={self.quantile(0.99):.0f}>")
