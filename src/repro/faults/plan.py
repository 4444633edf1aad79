"""Frozen, seeded fault plans.

A :class:`FaultPlan` is a pure value: frozen dataclasses of tuples, so it
is hashable (usable in :func:`repro.bench.runner.config_key` cache keys),
picklable (survives the ``ProcessPoolExecutor`` fan-out), and its
``to_dict`` is the plan block of the injector's summary.  All randomness
is derived from ``FaultPlan.seed`` via
:meth:`repro.sim.rng.SeededRng.fork`, never from global state, so the same
plan on the same scenario reproduces the same drops packet-for-packet.

Time fields are integer simulated nanoseconds.  ``parse`` accepts the
compact CLI spec used by ``python -m repro --faults``::

    burst@80ms x2; loss:wire:0.05; loss:eth:rx:0.1@100ms-200ms;
    skbfail:0.01; irqloss:0.02; flap@50ms+2ms; seed=3;
    retries=5; timeout=5ms

Clauses are ``;``-separated; unknown clauses raise ``ValueError`` with the
offending text so CLI typos fail loudly instead of silently running a
different experiment.
"""

from dataclasses import dataclass, fields as dataclass_fields, replace
from typing import Optional, Tuple

from repro.sim.units import MS

#: Serialization schema version for FaultPlan.to_dict.
FAULT_SCHEMA = 1


def _time_to_ns(text: str) -> int:
    """Parse ``80ms`` / ``50us`` / ``1s`` / ``1234`` (bare ns) to int ns."""
    text = text.strip()
    for suffix, mult in (("ns", 1), ("us", 1_000), ("ms", 1_000_000),
                         ("s", 1_000_000_000)):
        if text.endswith(suffix):
            return int(round(float(text[:-len(suffix)]) * mult))
    return int(text)


@dataclass(frozen=True)
class RingBurst:
    """Inject ``factor`` x ring-capacity junk packets at one instant.

    The burst arrives through ``PhysicalNic.receive`` like any other
    traffic, so it overflows the rx ring for real (drops counted against
    the ring) rather than teleporting packets out of queues.
    """

    at_ns: int
    factor: float = 2.0


@dataclass(frozen=True)
class PacketLoss:
    """Drop packets with probability ``p`` at a named site.

    ``site`` prefix-matches kernel queue names (``"eth"`` matches
    ``eth:rx`` and ``eth:napi``…); the special sites ``"wire"`` and
    ``"wire:tx"`` drop on the physical link (rx direction — toward the
    server — or tx respectively).  ``start_ns``/``end_ns`` bound the loss
    window; ``None`` means unbounded on that side.
    """

    site: str
    p: float
    start_ns: Optional[int] = None
    end_ns: Optional[int] = None

    def active_at(self, now: int) -> bool:
        if self.start_ns is not None and now < self.start_ns:
            return False
        if self.end_ns is not None and now >= self.end_ns:
            return False
        return True


@dataclass(frozen=True)
class SkbAllocFailure:
    """Fail skb allocation in the NIC poll loop with probability ``p``."""

    p: float
    start_ns: Optional[int] = None
    end_ns: Optional[int] = None

    active_at = PacketLoss.active_at


@dataclass(frozen=True)
class IrqLoss:
    """Lose a hardware interrupt with probability ``p``.

    A lost IRQ never fires its NAPI schedule; packets sit in the rx ring
    until a later arrival re-triggers the (still unmasked) interrupt.
    """

    p: float
    start_ns: Optional[int] = None
    end_ns: Optional[int] = None

    active_at = PacketLoss.active_at


@dataclass(frozen=True)
class LinkFlap:
    """Take the physical link down for ``duration_ns`` starting ``at_ns``.

    While down, every packet entering the wire is dropped.  With
    ``flush_ring`` the NIC rx ring is also cleared at flap start
    (modelling a device reset), accounted via ``PacketQueue.cleared``.
    """

    at_ns: int
    duration_ns: int
    flush_ring: bool = False


@dataclass(frozen=True)
class RetryPolicy:
    """Per-op timeout/backoff the closed-loop clients recover with.

    Attempt ``k`` (0-based) times out after
    ``timeout_ns * backoff_factor**k``, multiplied by a seeded jitter
    uniform in ``[1 - jitter_frac, 1 + jitter_frac]``.  After
    ``max_retries`` retransmissions the op is abandoned (``gave_up``)
    and the window slot is refilled so the closed loop keeps running.
    """

    timeout_ns: int = 5 * MS
    max_retries: int = 5
    backoff_factor: float = 2.0
    jitter_frac: float = 0.1


def _record_to_dict(record):
    return {f.name: getattr(record, f.name)
            for f in dataclass_fields(record)}


@dataclass(frozen=True)
class FaultPlan:
    """Everything that goes wrong in one experiment, as a pure value."""

    seed: int = 1
    ring_bursts: Tuple[RingBurst, ...] = ()
    losses: Tuple[PacketLoss, ...] = ()
    skb_alloc: Optional[SkbAllocFailure] = None
    irq_loss: Optional[IrqLoss] = None
    link_flaps: Tuple[LinkFlap, ...] = ()
    retry: RetryPolicy = RetryPolicy()

    def replace(self, **kwargs) -> "FaultPlan":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        return {
            "schema": FAULT_SCHEMA,
            "seed": self.seed,
            "ring_bursts": [_record_to_dict(b) for b in self.ring_bursts],
            "losses": [_record_to_dict(l) for l in self.losses],
            "skb_alloc": (_record_to_dict(self.skb_alloc)
                          if self.skb_alloc is not None else None),
            "irq_loss": (_record_to_dict(self.irq_loss)
                         if self.irq_loss is not None else None),
            "link_flaps": [_record_to_dict(f) for f in self.link_flaps],
            "retry": _record_to_dict(self.retry),
        }

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from the compact ``--faults`` CLI spec."""
        seed = 1
        bursts, losses, flaps = [], [], []
        skb_alloc = irq_loss = None
        retry_kwargs = {}
        for raw in spec.split(";"):
            clause = raw.strip()
            if not clause:
                continue
            try:
                if clause.startswith("burst@"):
                    body = clause[len("burst@"):]
                    factor = 2.0
                    if "x" in body:
                        body, factor_text = body.split("x", 1)
                        factor = float(factor_text)
                    bursts.append(RingBurst(at_ns=_time_to_ns(body),
                                            factor=factor))
                elif clause.startswith("loss:"):
                    body = clause[len("loss:"):]
                    window = None
                    if "@" in body:
                        body, window = body.rsplit("@", 1)
                    site, p_text = body.rsplit(":", 1)
                    start = end = None
                    if window is not None:
                        start_text, end_text = window.split("-", 1)
                        start, end = (_time_to_ns(start_text),
                                      _time_to_ns(end_text))
                    losses.append(PacketLoss(site=site, p=float(p_text),
                                             start_ns=start, end_ns=end))
                elif clause.startswith("skbfail:"):
                    skb_alloc = SkbAllocFailure(
                        p=float(clause[len("skbfail:"):]))
                elif clause.startswith("irqloss:"):
                    irq_loss = IrqLoss(p=float(clause[len("irqloss:"):]))
                elif clause.startswith("flap@"):
                    at_text, dur_text = clause[len("flap@"):].split("+", 1)
                    flush = dur_text.endswith("!")
                    if flush:
                        dur_text = dur_text[:-1]
                    flaps.append(LinkFlap(at_ns=_time_to_ns(at_text),
                                          duration_ns=_time_to_ns(dur_text),
                                          flush_ring=flush))
                elif clause.startswith("seed="):
                    seed = int(clause[len("seed="):])
                elif clause.startswith("retries="):
                    retry_kwargs["max_retries"] = int(clause[len("retries="):])
                elif clause.startswith("timeout="):
                    retry_kwargs["timeout_ns"] = _time_to_ns(
                        clause[len("timeout="):])
                elif clause.startswith("backoff="):
                    retry_kwargs["backoff_factor"] = float(
                        clause[len("backoff="):])
                elif clause.startswith("jitter="):
                    retry_kwargs["jitter_frac"] = float(
                        clause[len("jitter="):])
                else:
                    raise ValueError("unknown clause")
            except ValueError as exc:
                raise ValueError(
                    f"bad --faults clause {clause!r}: {exc}") from None
        return cls(seed=seed, ring_bursts=tuple(bursts),
                   losses=tuple(losses), skb_alloc=skb_alloc,
                   irq_loss=irq_loss, link_flaps=tuple(flaps),
                   retry=RetryPolicy(**retry_kwargs))
