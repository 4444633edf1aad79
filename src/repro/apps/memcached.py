"""memcached + memaslap (paper Fig. 12).

:class:`MemcachedServer` is an in-memory KV store running in a server
container over TCP (port 11211): GETs return the stored value, SETs store
and acknowledge.

:class:`MemaslapClient` mirrors memaslap's behaviour: a fixed window of
outstanding requests (closed loop), a 9:1 GET:SET mix by default, keys
drawn with a Zipf-like skew, 1 KB values.  The closed loop is what couples
latency and throughput: on a busy server, a 5× latency increase produces
the paper's ≈80 % throughput collapse without any extra modelling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from repro.apps.remote import RemoteRequestSender, RemoteTcpReassembler
from repro.faults.plan import RetryPolicy
from repro.faults.recovery import RetryTracker
from repro.kernel.cpu import Work
from repro.metrics.recorder import LatencyRecorder, ThroughputMeter
from repro.overlay.container import Container
from repro.overlay.network import RemoteContainer, RemoteHost
from repro.overlay.topology import OverlayNetwork
from repro.packet.packet import Packet
from repro.sim.engine import ScheduledCall, Simulator
from repro.sim.rng import SeededRng
from repro.stack.tcp import TcpMessage

__all__ = ["MemcachedServer", "MemaslapClient", "MemcachedOp"]

MEMCACHED_PORT = 11211


@dataclass
class MemcachedOp:
    """One memcached operation in flight."""

    op: str           # "get" or "set"
    key: str
    value_len: int
    seq: int
    sent_at: int = 0
    intended_at: int = 0


class MemcachedServer:
    """An in-memory key-value server in a container (TCP)."""

    def __init__(self, container: Container, *, port: int = MEMCACHED_PORT,
                 core_id: int = 1,
                 get_work_ns: int = 1_500, set_work_ns: int = 2_000) -> None:
        self.container = container
        self.port = port
        self.get_work_ns = get_work_ns
        self.set_work_ns = set_work_ns
        self.endpoint = container.tcp_endpoint(port, core_id=core_id)
        self.store: Dict[str, int] = {}
        self.gets = 0
        self.sets = 0
        self.misses = 0
        self.thread = container.spawn(self._run(), core_id=core_id,
                                      name=f"memcached:{port}")

    def _run(self):
        while True:
            message, peer = yield from self.endpoint.recv()
            op = message.payload
            if not isinstance(op, MemcachedOp):
                continue
            if op.op == "set":
                yield Work(self.set_work_ns)
                self.store[op.key] = op.value_len
                self.sets += 1
                reply_len = 8  # "STORED\r\n"
            else:
                yield Work(self.get_work_ns)
                self.gets += 1
                stored = self.store.get(op.key)
                if stored is None:
                    self.misses += 1
                    reply_len = 12  # "END\r\n" etc.
                else:
                    reply_len = stored + 48  # value + protocol framing
            reply = TcpMessage(payload=op, length=reply_len,
                               created_at=self.container.host.sim.now)
            yield from self.container.send_tcp_message(
                dst_ip=peer.src_ip, dst_port=peer.src_port,
                src_port=self.port, message=reply)


class MemaslapClient:
    """A windowed closed-loop memcached load generator (memaslap)."""

    def __init__(self, sim: Simulator, client: RemoteHost,
                 overlay: OverlayNetwork, src: RemoteContainer,
                 dst_ip: object, *, port: int = MEMCACHED_PORT,
                 window: int = 8, n_keys: int = 1_000,
                 get_fraction: float = 0.9, value_len: int = 1_024,
                 request_len: int = 70,
                 src_port: int = 31001,
                 rng: Optional[SeededRng] = None,
                 recorder: Optional[LatencyRecorder] = None,
                 warmup_until_ns: int = 0,
                 retry: Optional[RetryPolicy] = None,
                 retry_rng: Optional[SeededRng] = None) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.sim = sim
        self.sender = RemoteRequestSender(client, overlay, src, dst_ip)
        self.port = port
        self.src_port = src_port
        self.window = window
        self.n_keys = n_keys
        self.get_fraction = get_fraction
        self.value_len = value_len
        self.request_len = request_len
        self.rng = rng if rng is not None else SeededRng(0)
        self.recorder = recorder if recorder is not None else LatencyRecorder(
            "memaslap", warmup_until_ns=warmup_until_ns)
        self.completed = ThroughputMeter("memaslap-ops",
                                         warmup_until_ns=warmup_until_ns)
        #: Operations issued and replies matched to one (retransmits
        #: and duplicate replies are not counted again).
        self.sent = 0
        self.replies = 0
        #: Per-client op sequence — a module-global counter here would be
        #: cross-experiment mutable state (an in-process repeat run would
        #: see different seq values, and so different dict iteration).
        self._op_seq = itertools.count(1)
        self._inflight: Dict[int, MemcachedOp] = {}
        #: Loss recovery, or None for the historical fail-stop behaviour
        #: (a lost request permanently shrinks the window).
        self._retry: Optional[RetryTracker] = None
        if retry is not None:
            self._retry = RetryTracker(
                retry, retry_rng if retry_rng is not None else SeededRng(0),
                "memaslap")
        self._timers: Dict[int, ScheduledCall] = {}
        self._attempts: Dict[int, int] = {}
        self._reassembler = RemoteTcpReassembler(self._on_message)
        client.on_port(src_port, self._on_packet)
        self._started = False

    @property
    def recovery(self):
        """RecoveryStats when loss recovery is enabled, else None."""
        return self._retry.stats if self._retry is not None else None

    def start(self) -> None:
        """Issue the initial window of requests."""
        if self._started:
            raise RuntimeError("client already started")
        self._started = True
        for _ in range(self.window):
            self._issue()

    def _issue(self) -> None:
        is_get = self.rng.random() < self.get_fraction
        key_index = self.rng.zipf_index(self.n_keys)
        op = MemcachedOp(
            op="get" if is_get else "set",
            key=f"key-{key_index:06d}",
            value_len=self.value_len,
            seq=next(self._op_seq),
            sent_at=self.sim.now)
        self._inflight[op.seq] = op
        self.sent += 1
        self._send(op)
        if self._retry is not None:
            self._retry.stats.sent += 1
            self._arm_timer(op)

    def _send(self, op: MemcachedOp) -> None:
        # Each (re)transmission wraps the op in a *fresh* TcpMessage:
        # the server-side reassembler accumulates per message identity,
        # so resending the original object could merge with a partially
        # received first attempt.
        length = self.request_len + (self.value_len if op.op == "set" else 0)
        message = TcpMessage(payload=op, length=length, created_at=self.sim.now)
        self.sender.send_tcp_message(src_port=self.src_port,
                                     dst_port=self.port, message=message)

    # ------------------------------------------------------------------
    # Loss recovery (active only when a RetryPolicy is configured)
    # ------------------------------------------------------------------
    def _arm_timer(self, op: MemcachedOp) -> None:
        attempt = self._attempts.get(op.seq, 0)
        self._timers[op.seq] = self.sim.schedule(
            self._retry.deadline_ns(attempt), self._on_timeout, op.seq)

    def _on_timeout(self, seq: int) -> None:
        op = self._inflight.get(seq)
        if op is None:
            return  # reply raced the timer
        self._timers.pop(seq, None)
        tracker = self._retry
        tracker.stats.timeouts += 1
        attempt = self._attempts.get(seq, 0)
        if tracker.exhausted(attempt):
            # Abandon the op but *refill the window slot* — this is the
            # deadlock fix: pre-recovery, a lost packet shrank the window
            # forever and a window's worth of losses stalled the client.
            tracker.stats.gave_up += 1
            self._inflight.pop(seq, None)
            self._attempts.pop(seq, None)
            self._issue()
            return
        self._attempts[seq] = attempt + 1
        tracker.stats.retries += 1
        self._send(op)
        self._arm_timer(op)

    def _on_packet(self, inner: Packet) -> None:
        self._reassembler.feed(inner)

    def _on_message(self, message: TcpMessage) -> None:
        op = message.payload
        if not isinstance(op, MemcachedOp):
            return
        pending = self._inflight.pop(op.seq, None)
        if pending is None:
            # A retransmit already won the race (or the op was abandoned).
            if self._retry is not None:
                self._retry.stats.duplicates += 1
            return
        timer = self._timers.pop(op.seq, None)
        if timer is not None:
            timer.cancel()
        self._attempts.pop(op.seq, None)
        self.replies += 1
        # Latency from the *original* send: retries pay for their loss.
        latency = self.sim.now - pending.sent_at
        self.recorder.record(latency, at_ns=self.sim.now)
        self.completed.record(self.sim.now)
        self._issue()  # closed loop: keep the window full

    @property
    def inflight(self) -> int:
        return len(self._inflight)
