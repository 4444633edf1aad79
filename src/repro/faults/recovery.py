"""Loss-recovery accounting shared by the closed-loop clients.

The retry machinery itself lives in each app model (memaslap, wrk2,
sockperf request/response) because timeout handling is entangled with
their window bookkeeping; what they share is here: the seeded-jitter
exponential backoff schedule and the :class:`RecoveryStats` counter block
that experiment results and telemetry surface.
"""

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.faults.plan import RetryPolicy
from repro.sim.rng import SeededRng


def backoff_deadline_ns(policy: RetryPolicy, attempt: int,
                        rng: SeededRng) -> int:
    """Timeout for 0-based ``attempt``: exponential backoff with jitter.

    Deterministic given the rng stream position — callers fork a
    dedicated stream per client so retry timing never perturbs workload
    randomness (key choice, pacing) and vice versa.
    """
    base = policy.timeout_ns * (policy.backoff_factor ** attempt)
    if policy.jitter_frac:
        base *= 1.0 + policy.jitter_frac * (2.0 * rng.random() - 1.0)
    return max(1, int(base))


@dataclass
class RecoveryStats:
    """Per-client loss-recovery counters.

    ``retries`` counts retransmissions, ``timeouts`` counts expirations
    (a single op can time out several times), ``gave_up`` counts ops
    abandoned after exhausting the retry budget, and ``duplicates``
    counts late replies that arrived after a retransmit already won the
    race (or after give-up) — pre-fault-layer code dropped these on the
    floor silently.
    """

    name: str
    sent: int = 0
    retries: int = 0
    timeouts: int = 0
    gave_up: int = 0
    duplicates: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def merge_recovery(stats: List[RecoveryStats]) -> Dict[str, int]:
    """Aggregate client stats into the flat totals results carry."""
    totals = {"retries_total": 0, "timeouts_total": 0,
              "gave_up": 0, "duplicates": 0}
    for s in stats:
        totals["retries_total"] += s.retries
        totals["timeouts_total"] += s.timeouts
        totals["gave_up"] += s.gave_up
        totals["duplicates"] += s.duplicates
    return totals


class RetryTracker:
    """Tiny helper owning a client's retry rng + stats pair.

    Apps hold one of these when a :class:`RetryPolicy` is configured;
    ``None`` otherwise, so the non-fault hot path stays a single
    attribute test.
    """

    __slots__ = ("policy", "rng", "stats")

    def __init__(self, policy: RetryPolicy, rng: SeededRng,
                 name: str) -> None:
        self.policy = policy
        self.rng = rng
        self.stats = RecoveryStats(name=name)

    def deadline_ns(self, attempt: int) -> int:
        return backoff_deadline_ns(self.policy, attempt, self.rng)

    def exhausted(self, attempt: int) -> bool:
        return attempt >= self.policy.max_retries
