"""Per-skb priority classification (paper §IV-A).

The classifier runs exactly once per packet, at skb allocation time inside
the physical driver's poll function (``mlx5e_napi_poll`` in the paper's
testbed).  The result is stamped into the skb's priority field so no later
stage re-computes it.

Outside the PRISM modes (vanilla, bypass) the driver still calls the
classifier with ``prism=False`` and it is inert: skbs stay unclassified
and are treated as low priority everywhere, and no lookup cost is charged
— matching an unpatched kernel.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.costs import CostModel
from repro.packet.skb import SKBuff
from repro.prism.priority_db import PriorityDatabase

__all__ = ["PriorityClassifier"]

#: Distinguishes "flow not memoized" from a memoized ``None`` key.
_MISS = object()


class PriorityClassifier:
    """Stamps skb priorities against the global database.

    Results are memoized at two levels.  The verdict for a header stack
    is cached on its shared layer record
    (:attr:`~repro.packet.packet.Layers.prio`), so a repeat stack costs
    one attribute read; a new stack of a known flow costs one dict probe
    on its :class:`~repro.packet.flow.FlowKey`.  Both are invalidated
    whenever the database's ``version`` changes — the per-flow memo is
    replaced by a fresh dict, and a layer record's verdict only counts
    while it names the current memo — so runtime rule updates through
    procfs behave exactly as before, including the best-effort fallback
    level, which is a function of the rule set.
    """

    def __init__(self, db: PriorityDatabase, costs: CostModel) -> None:
        self.db = db
        self.costs = costs
        self.classified_high = 0
        self.classified_low = 0
        self._memo: dict = {}
        self._memo_version = -1

    def classify(self, skb: SKBuff, prism: bool) -> int:
        """Classify *skb*; returns the CPU cost (ns) of the lookup.

        *prism* is the kernel's bound ``Kernel.prism`` switch.  Idempotent
        per skb (the paper adds the bit to ``sk_buff`` precisely to avoid
        re-computation).
        """
        if not prism or skb.priority_level is not None:
            # Unpatched kernel / poll-mode driver: every packet takes
            # the same path, so classification is pure overhead.
            return 0
        db = self.db
        memo = self._memo
        if self._memo_version != db.version:
            memo = self._memo = {}
            self._memo_version = db.version
        layers = skb.packet.layers
        verdict = layers.prio
        if verdict is not None and verdict[0] is memo:
            level = verdict[1]
            # The paper's per-packet database probe still "happens".
            db.lookups += 1
        else:
            key = skb.packet.inner_flow_key()
            level = memo.get(key, _MISS)
            if level is _MISS:
                matched: Optional[int] = db.classify_packet(skb.packet)
                if matched is None:
                    # No rule matched: best effort, one level below the
                    # lowest configured rule (or "low" for the binary
                    # case).
                    matched = max((rule.level for rule in db.rules),
                                  default=0) + 1
                level = matched
                memo[key] = level
            else:
                db.lookups += 1
            layers.prio = (memo, level)
        if level == 0:
            self.classified_high += 1
        else:
            self.classified_low += 1
        # Levels come from the database's rules (validated >= 0) or the
        # fallback above, so SKBuff.classify's range check is moot here.
        skb.priority_level = level
        return self.costs.priority_lookup_ns
