"""sockperf — the paper's microbenchmark workload generator.

Modes reproduced:

- **ping-pong (under-load)**: the client sends requests at a constant
  rate and measures latency as RTT/2 per reply ("Sockperf measures
  latency from the client application as the round-trip time divided by
  two", §V-B1);
- **UDP throughput**: a one-way constant-rate flood — the paper's
  low-priority background traffic (≈300 Kpps consuming 60–70 % of the
  packet-processing core);
- **TCP throughput**: large messages (e.g. 64 KB) at a constant message
  rate, TSO-fragmented to MTU segments — the Fig. 13 background.

Servers run as real threads inside server containers; clients run on the
coarse remote machine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from repro.faults.plan import RetryPolicy
from repro.faults.recovery import RetryTracker
from repro.metrics.recorder import LatencyRecorder, ThroughputMeter
from repro.overlay.container import Container
from repro.overlay.network import RemoteContainer, RemoteHost
from repro.overlay.topology import OverlayNetwork
from repro.packet.packet import Packet
from repro.sim.engine import ScheduledCall, Simulator
from repro.sim.rng import SeededRng
from repro.sim.units import SEC
from repro.apps.remote import RemoteRequestSender
from repro.stack.tcp import TcpMessage

__all__ = ["PingRecord", "SockperfUdpServer", "SockperfUdpClient",
           "SockperfUdpFlood", "SockperfTcpFlood"]


@dataclass(frozen=True)
class PingRecord:
    """Payload of one ping-pong request (echoed back by the server)."""

    seq: int
    sent_at: int


class SockperfUdpServer:
    """A containerized sockperf UDP server thread.

    In ping-pong mode every datagram is echoed back to its sender; in
    drain mode (``reply=False``, the throughput test) datagrams are only
    consumed and counted.
    """

    def __init__(self, container: Container, port: int, *,
                 core_id: int = 1, reply: bool = True,
                 app_work_ns: int = 300, telemetry=None) -> None:
        self.container = container
        self.port = port
        self.reply = reply
        self.app_work_ns = int(app_work_ns)
        self.socket = container.udp_socket(port, core_id=core_id)
        self.received = ThroughputMeter(f"sockperf-server:{port}")
        if telemetry is not None:
            # Metered run (a KernelTelemetry hub): export this meter
            # through the shared registry and let the collector scrape
            # the socket's rcvbuf counters.
            telemetry.register_meter(self.received)
            telemetry.watch_queue(self.socket.rcvbuf)
        self.thread = container.spawn(self._run(), core_id=core_id,
                                      name=f"sockperf-srv:{port}")

    def _run(self):
        sim = self.container.host.sim
        pool = self.socket.kernel.skb_pool
        while True:
            skb = yield from self.socket.recv()
            self.received.record(sim.now, skb.wire_len)
            # The datagram's payload/headers live on the packet; the skb
            # metadata is done once it leaves the receive buffer, so it
            # goes back to the kernel's free list before the app "work".
            packet = skb.packet
            pool.recycle(skb)
            yield self.app_work_ns
            if not self.reply:
                continue
            ip = packet.ip
            l4 = packet.l4
            if ip is None or l4 is None:
                continue
            yield from self.container.send_udp(
                dst_ip=ip.src, dst_port=l4.src_port, src_port=self.port,
                payload=packet.payload, payload_len=packet.payload_len)


class SockperfUdpClient:
    """Constant-rate ping-pong client (latency mode) on the remote host."""

    def __init__(self, sim: Simulator, client: RemoteHost,
                 overlay: OverlayNetwork, src: RemoteContainer,
                 dst_ip: object, dst_port: int, *,
                 rate_pps: float, payload_len: int = 16,
                 src_port: int = 30001,
                 recorder: Optional[LatencyRecorder] = None,
                 warmup_until_ns: int = 0,
                 retry: Optional[RetryPolicy] = None,
                 retry_rng: Optional[SeededRng] = None) -> None:
        if rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        self.sim = sim
        self.sender = RemoteRequestSender(client, overlay, src, dst_ip)
        self.dst_port = dst_port
        self.src_port = src_port
        self.payload_len = payload_len
        self.interval_ns = int(SEC / rate_pps)
        self.recorder = recorder if recorder is not None else LatencyRecorder(
            f"sockperf:{dst_port}", warmup_until_ns=warmup_until_ns)
        self.sent = 0
        self.replies = 0
        #: Per-client ping sequence (was a module-global counter:
        #: cross-experiment mutable state).
        self._seq = itertools.count(1)
        #: Request/response loss recovery.  The paced sender keeps
        #: running without it (open loop), but every lost ping is a
        #: silently missing latency sample; with it, the ping is
        #: retransmitted and its full delay lands in the distribution.
        self._retry: Optional[RetryTracker] = None
        if retry is not None:
            self._retry = RetryTracker(
                retry, retry_rng if retry_rng is not None else SeededRng(0),
                f"sockperf:{dst_port}")
        self._pending: Dict[int, PingRecord] = {}
        self._timers: Dict[int, ScheduledCall] = {}
        self._attempts: Dict[int, int] = {}
        client.on_port(src_port, self._on_reply)
        self.process = sim.process(self._run(), name=f"sockperf-cli:{dst_port}")

    @property
    def recovery(self):
        """RecoveryStats when loss recovery is enabled, else None."""
        return self._retry.stats if self._retry is not None else None

    def _run(self):
        while True:
            record = PingRecord(seq=next(self._seq), sent_at=self.sim.now)
            self._send(record)
            self.sent += 1
            if self._retry is not None:
                self._retry.stats.sent += 1
                self._pending[record.seq] = record
                self._arm_timer(record)
            yield self.interval_ns

    def _send(self, record: PingRecord) -> None:
        self.sender.send_udp(src_port=self.src_port, dst_port=self.dst_port,
                             payload=record, payload_len=self.payload_len,
                             created_at=self.sim.now)

    # ------------------------------------------------------------------
    # Loss recovery (active only when a RetryPolicy is configured)
    # ------------------------------------------------------------------
    def _arm_timer(self, record: PingRecord) -> None:
        attempt = self._attempts.get(record.seq, 0)
        self._timers[record.seq] = self.sim.schedule(
            self._retry.deadline_ns(attempt), self._on_timeout, record.seq)

    def _on_timeout(self, seq: int) -> None:
        record = self._pending.get(seq)
        if record is None:
            return  # reply raced the timer
        self._timers.pop(seq, None)
        tracker = self._retry
        tracker.stats.timeouts += 1
        attempt = self._attempts.get(seq, 0)
        if tracker.exhausted(attempt):
            tracker.stats.gave_up += 1
            self._pending.pop(seq, None)
            self._attempts.pop(seq, None)
            return
        self._attempts[seq] = attempt + 1
        tracker.stats.retries += 1
        # Same record (and original sent_at): a recovered ping reports
        # its true, loss-inflated latency.
        self._send(record)
        self._arm_timer(record)

    def _on_reply(self, inner: Packet) -> None:
        record = inner.payload
        if not isinstance(record, PingRecord):
            return
        if self._retry is not None:
            if self._pending.pop(record.seq, None) is None:
                self._retry.stats.duplicates += 1
                return
            timer = self._timers.pop(record.seq, None)
            if timer is not None:
                timer.cancel()
            self._attempts.pop(record.seq, None)
        self.replies += 1
        rtt = self.sim.now - record.sent_at
        # sockperf reports one-way latency as RTT/2.
        self.recorder.record(rtt // 2, at_ns=self.sim.now)

    def stop(self) -> None:
        self.process.kill()


class SockperfUdpFlood:
    """One-way UDP flood (throughput mode) — background traffic.

    sockperf's throughput mode issues sends back-to-back from a tight
    loop, so at a given average rate the wire sees *bursts* of packets,
    not a perfectly paced stream (syscall batching, qdisc bursts, sender
    scheduling jitter).  ``burst`` controls how many packets go out
    back-to-back; the average rate is preserved by lengthening the gap
    between bursts.  The paper's head-of-line-blocking measurements
    depend on this burstiness: a perfectly paced background never builds
    the multi-packet queues that delay latency-sensitive flows.
    """

    def __init__(self, sim: Simulator, client: RemoteHost,
                 overlay: OverlayNetwork, src: RemoteContainer,
                 dst_ip: object, dst_port: int, *,
                 rate_pps: float, payload_len: int = 32,
                 src_port: int = 30002, burst: int = 1) -> None:
        if rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.sim = sim
        self.sender = RemoteRequestSender(client, overlay, src, dst_ip)
        self.dst_port = dst_port
        self.src_port = src_port
        self.payload_len = payload_len
        self.burst = burst
        self.interval_ns = SEC / rate_pps
        self.sent = 0
        #: A flood expects no replies.
        self.replies = 0
        self.process = sim.process(self._run(), name=f"udp-flood:{dst_port}")

    def _run(self):
        next_burst = float(self.sim.now)
        while True:
            for _ in range(self.burst):
                self.sender.send_udp(src_port=self.src_port,
                                     dst_port=self.dst_port,
                                     payload=None,
                                     payload_len=self.payload_len,
                                     created_at=self.sim.now)
                self.sent += 1
            # Track fractional intervals so the long-run rate is exact.
            next_burst += self.interval_ns * self.burst
            delay = max(0, int(next_burst) - self.sim.now)
            yield delay

    def stop(self) -> None:
        self.process.kill()


class SockperfTcpFlood:
    """One-way TCP flood of large messages (Fig. 13 background)."""

    def __init__(self, sim: Simulator, client: RemoteHost,
                 overlay: OverlayNetwork, src: RemoteContainer,
                 dst_ip: object, dst_port: int, *,
                 rate_msgs_per_sec: float, message_len: int = 65_536,
                 src_port: int = 30003, mss: int = 1_448) -> None:
        if rate_msgs_per_sec <= 0:
            raise ValueError("rate_msgs_per_sec must be positive")
        self.sim = sim
        self.sender = RemoteRequestSender(client, overlay, src, dst_ip, mss=mss)
        self.dst_port = dst_port
        self.src_port = src_port
        self.message_len = message_len
        self.interval_ns = SEC / rate_msgs_per_sec
        self.sent_messages = 0
        self.process = sim.process(self._run(), name=f"tcp-flood:{dst_port}")

    def _run(self):
        next_send = float(self.sim.now)
        while True:
            message = TcpMessage(payload=None, length=self.message_len,
                                 created_at=self.sim.now)
            self.sender.send_tcp_message(src_port=self.src_port,
                                         dst_port=self.dst_port,
                                         message=message)
            self.sent_messages += 1
            next_send += self.interval_ns
            delay = max(0, int(next_send) - self.sim.now)
            yield delay

    def stop(self) -> None:
        self.process.kill()
