"""Cross-shard wire format for space-parallel simulation.

When the cluster executor partitions hosts across worker processes, a
packet leaving one host for another must cross a process boundary.
Shipping live :class:`~repro.packet.packet.Packet` objects would drag
the whole object graph (payload records, header caches, encap chains)
through pickle and — worse — make the bytes that cross the pipe depend
on simulator internals.  Instead, cross-shard traffic travels
flow-level: exactly the fields the destination cell needs to
*rematerialize* the packet locally (via its own cached header builders)
plus the fields the executor needs for deterministic routing and
conservation accounting.

Wire format v2 is *columnar*: a whole (shard, window) of departures is
one :class:`WireBatch` — nine parallel columns, one per field — and the
encoded frame carries each integer column as an ``array('q')`` and the
two enum-like fields (``cls``, ``kind``) as packed small-int code
bytes.  Encoding happens once per window, the executor sorts and routes
on the columns without building a per-packet object, and the pipe
pickles a handful of flat buffers instead of thousands of tuples.
Frames of any other version are rejected with a version error.

Determinism contract: the executor collects every shard's outbox for a
window, concatenates them, and sorts with :meth:`WireBatch.sort_wire`
before routing.  The sort key — (arrival, src, dst, cls, kind, seq),
stable — is a pure function of simulation-visible fields, so the
injection order at any destination is independent of how hosts were
partitioned into shards: the basis for "same digest at any shard
count".
"""

from __future__ import annotations

from array import array
from typing import List, Sequence, Tuple

__all__ = [
    "WIRE_VERSION",
    "CLS_NAMES",
    "KIND_NAMES",
    "CLS_CODE",
    "KIND_CODE",
    "WireBatch",
    "EMPTY_FRAME",
]

#: Bump when the frame layout changes; workers refuse mismatched frames.
#: v2 ships one columnar batch frame per (shard, window).
WIRE_VERSION = 2

#: Code tables for the two enum-like fields.  Code order equals string
#: order ("hi" < "lo", "reply" < "req"), so sorting on codes orders
#: rows as sorting on the names would.
CLS_NAMES: Tuple[str, ...] = ("hi", "lo")
KIND_NAMES: Tuple[str, ...] = ("reply", "req")
CLS_CODE = {name: code for code, name in enumerate(CLS_NAMES)}
KIND_CODE = {name: code for code, name in enumerate(KIND_NAMES)}


class WireBatch:
    """One window's cross-shard departures as nine parallel columns.

    ``cls`` and ``kind`` hold small-int codes (:data:`CLS_CODE` /
    :data:`KIND_CODE`); every other column holds plain ints.  All
    columns are ordinary lists so per-element access in the executor's
    hot loops stays unboxed-cheap; ``array('q')`` packing happens only
    at :meth:`encode` time, when the frame is about to cross a pipe.
    """

    __slots__ = ("src", "dst", "cls", "kind", "seq", "departure",
                 "arrival", "payload_len", "sent_at")

    def __init__(self) -> None:
        self.src: List[int] = []
        self.dst: List[int] = []
        self.cls: List[int] = []
        self.kind: List[int] = []
        self.seq: List[int] = []
        self.departure: List[int] = []
        self.arrival: List[int] = []
        self.payload_len: List[int] = []
        self.sent_at: List[int] = []

    # -- building -------------------------------------------------------
    def append(self, src: int, dst: int, cls_code: int, kind_code: int,
               seq: int, departure_ns: int, arrival_ns: int,
               payload_len: int, sent_at: int) -> None:
        """Append one packet given raw column values (egress hot path)."""
        self.src.append(src)
        self.dst.append(dst)
        self.cls.append(cls_code)
        self.kind.append(kind_code)
        self.seq.append(seq)
        self.departure.append(departure_ns)
        self.arrival.append(arrival_ns)
        self.payload_len.append(payload_len)
        self.sent_at.append(sent_at)

    def extend(self, other: "WireBatch") -> None:
        """Concatenate *other*'s columns onto this batch (C-speed)."""
        self.src.extend(other.src)
        self.dst.extend(other.dst)
        self.cls.extend(other.cls)
        self.kind.extend(other.kind)
        self.seq.extend(other.seq)
        self.departure.extend(other.departure)
        self.arrival.extend(other.arrival)
        self.payload_len.extend(other.payload_len)
        self.sent_at.extend(other.sent_at)

    def __len__(self) -> int:
        return len(self.src)

    # -- ordering -------------------------------------------------------
    def sort_wire(self) -> None:
        """Stable sort of the rows by (arrival, src, dst, cls, kind, seq).

        The row tuples carry the pre-sort position right after the key,
        so equal keys keep their input order.
        """
        n = len(self.src)
        if n <= 1:
            return
        rows = sorted(zip(self.arrival, self.src, self.dst, self.cls,
                          self.kind, self.seq, range(n), self.departure,
                          self.payload_len, self.sent_at))
        (self.arrival, self.src, self.dst, self.cls, self.kind, self.seq,
         _order, self.departure, self.payload_len, self.sent_at) = (
            [list(col) for col in zip(*rows)])

    # -- selection ------------------------------------------------------
    def take(self, indices: Sequence[int]) -> "WireBatch":
        """A new batch holding the given rows, in the given order."""
        out = WireBatch()
        out.src = [self.src[i] for i in indices]
        out.dst = [self.dst[i] for i in indices]
        out.cls = [self.cls[i] for i in indices]
        out.kind = [self.kind[i] for i in indices]
        out.seq = [self.seq[i] for i in indices]
        out.departure = [self.departure[i] for i in indices]
        out.arrival = [self.arrival[i] for i in indices]
        out.payload_len = [self.payload_len[i] for i in indices]
        out.sent_at = [self.sent_at[i] for i in indices]
        return out

    # -- framing --------------------------------------------------------
    def encode(self) -> tuple:
        """The v2 frame: version, length, code bytes, ``array('q')``
        integer columns.  Arrays pickle as flat buffers, so one frame
        crosses the worker pipe as a handful of compact byte blobs
        instead of one tuple per packet.
        """
        return (WIRE_VERSION, len(self.src),
                bytes(self.cls), bytes(self.kind),
                array("q", self.src), array("q", self.dst),
                array("q", self.seq), array("q", self.departure),
                array("q", self.arrival), array("q", self.payload_len),
                array("q", self.sent_at))

    @classmethod
    def decode(cls, frame: tuple) -> "WireBatch":
        """Inverse of :meth:`encode`; checks version and invariants."""
        if not isinstance(frame, tuple) or not frame \
                or frame[0] != WIRE_VERSION:
            version = frame[0] if isinstance(frame, tuple) and frame else None
            raise ValueError(
                f"bad wire frame version: {version!r} "
                f"(this executor speaks wire format v{WIRE_VERSION})")
        (_v, n, cls_codes, kind_codes, src, dst, seq, departure, arrival,
         payload_len, sent_at) = frame
        batch = cls()
        batch.src = list(src)
        batch.dst = list(dst)
        batch.cls = list(cls_codes)
        batch.kind = list(kind_codes)
        batch.seq = list(seq)
        batch.departure = list(departure)
        batch.arrival = list(arrival)
        batch.payload_len = list(payload_len)
        batch.sent_at = list(sent_at)
        if not (len(batch.src) == len(batch.dst) == len(batch.cls)
                == len(batch.kind) == len(batch.seq) == len(batch.departure)
                == len(batch.arrival) == len(batch.payload_len)
                == len(batch.sent_at) == n):
            raise ValueError(f"wire frame column lengths disagree (n={n})")
        for arrival_ns, departure_ns in zip(batch.arrival, batch.departure):
            if arrival_ns < departure_ns:
                raise ValueError(
                    f"wire packet arrives at {arrival_ns} before it "
                    f"departs at {departure_ns}")
        for src_host, dst_host in zip(batch.src, batch.dst):
            if src_host == dst_host:
                raise ValueError(
                    f"host {src_host} packet routed to itself")
        return batch


#: The (shared, immutable) frame of an empty window — the executor and
#: workers compare against / reuse it so empty windows skip encoding,
#: decoding, and sorting entirely.
EMPTY_FRAME = WireBatch().encode()
