"""nginx + wrk2 (paper Fig. 13).

:class:`NginxServer` serves a small static file (< 1 KB, per the paper)
from a container over TCP port 80.

:class:`Wrk2Client` mirrors wrk2 with a single connection: requests are
*scheduled* at a constant rate, but HTTP/1.1 without pipelining means a
new request is only written once the previous response has arrived.
Latency is measured from the request's **intended** send time (wrk2's
coordinated-omission correction), so server slowdowns show up as latency
instead of silently reducing offered load.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

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
from repro.sim.units import SEC
from repro.stack.tcp import TcpMessage

__all__ = ["NginxServer", "Wrk2Client", "HttpRequest"]

HTTP_PORT = 80


@dataclass
class HttpRequest:
    """One HTTP request in flight."""

    path: str
    seq: int
    intended_at: int
    sent_at: int = 0


class NginxServer:
    """A static-file HTTP server in a container."""

    def __init__(self, container: Container, *, port: int = HTTP_PORT,
                 core_id: int = 1, file_len: int = 900,
                 parse_work_ns: int = 3_000) -> None:
        self.container = container
        self.port = port
        self.file_len = file_len
        self.parse_work_ns = parse_work_ns
        self.endpoint = container.tcp_endpoint(port, core_id=core_id)
        self.requests_served = 0
        self.thread = container.spawn(self._run(), core_id=core_id,
                                      name=f"nginx:{port}")

    def _run(self):
        response_len = self.file_len + 160  # headers
        while True:
            message, peer = yield from self.endpoint.recv()
            request = message.payload
            if not isinstance(request, HttpRequest):
                continue
            yield Work(self.parse_work_ns)
            self.requests_served += 1
            reply = TcpMessage(payload=request, length=response_len,
                               created_at=self.container.host.sim.now)
            yield from self.container.send_tcp_message(
                dst_ip=peer.src_ip, dst_port=peer.src_port,
                src_port=self.port, message=reply)


class Wrk2Client:
    """A constant-rate, single-connection HTTP benchmarking client."""

    def __init__(self, sim: Simulator, client: RemoteHost,
                 overlay: OverlayNetwork, src: RemoteContainer,
                 dst_ip: object, *, port: int = HTTP_PORT,
                 rate_rps: float, request_len: int = 110,
                 src_port: int = 32001,
                 recorder: LatencyRecorder = None,
                 warmup_until_ns: int = 0,
                 latency_from: str = "intended",
                 retry: Optional[RetryPolicy] = None,
                 retry_rng: Optional[SeededRng] = None) -> None:
        if rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if latency_from not in ("intended", "sent"):
            raise ValueError("latency_from must be 'intended' or 'sent'")
        #: "intended" = wrk2's coordinated-omission-corrected latency;
        #: "sent" = plain-wrk latency from the actual write.  Use "sent"
        #: when driving the connection at saturation (otherwise the
        #: CO-corrected backlog grows without bound).
        self.latency_from = latency_from
        self.sim = sim
        self.sender = RemoteRequestSender(client, overlay, src, dst_ip)
        self.port = port
        self.src_port = src_port
        self.request_len = request_len
        self.interval_ns = SEC / rate_rps
        self.recorder = recorder if recorder is not None else LatencyRecorder(
            "wrk2", warmup_until_ns=warmup_until_ns)
        self.completed = ThroughputMeter("wrk2-reqs",
                                         warmup_until_ns=warmup_until_ns)
        #: Requests written and replies matched to one (retransmits and
        #: late replies are not counted again).
        self.sent = 0
        self.replies = 0
        self._reassembler = RemoteTcpReassembler(self._on_message)
        self._outstanding: HttpRequest = None
        self._next_intended = 0.0
        #: Intended send times of requests not yet written (single
        #: connection, no pipelining).
        self._pending_intended = []
        #: Per-client request sequence (was a module-global counter:
        #: cross-experiment mutable state).
        self._req_seq = itertools.count(1)
        #: Loss recovery; without it a single lost request/response
        #: wedges the connection forever (``_outstanding`` never clears).
        self._retry: Optional[RetryTracker] = None
        if retry is not None:
            self._retry = RetryTracker(
                retry, retry_rng if retry_rng is not None else SeededRng(0),
                "wrk2")
        self._timer: Optional[ScheduledCall] = None
        self._attempts = 0
        client.on_port(src_port, self._on_packet)
        self.process = sim.process(self._scheduler(), name=f"wrk2:{port}")

    @property
    def recovery(self):
        """RecoveryStats when loss recovery is enabled, else None."""
        return self._retry.stats if self._retry is not None else None

    # ------------------------------------------------------------------
    # Request scheduling (constant rate, single connection)
    # ------------------------------------------------------------------
    def _scheduler(self):
        self._next_intended = float(self.sim.now)
        while True:
            intended = self._next_intended
            self._next_intended += self.interval_ns
            # Bound the backlog so a saturated run doesn't accumulate an
            # unbounded schedule (the connection can't catch up anyway).
            if len(self._pending_intended) < 1_000:
                self._pending_intended.append(int(intended))
            self._pump()
            delay = max(0, int(self._next_intended) - self.sim.now)
            yield delay

    def _pump(self) -> None:
        """Send the next queued request if the connection is free."""
        if self._outstanding is not None or not self._pending_intended:
            return
        intended_at = self._pending_intended.pop(0)
        request = HttpRequest(path="/index.html", seq=next(self._req_seq),
                              intended_at=intended_at, sent_at=self.sim.now)
        self._outstanding = request
        self.sent += 1
        self._send(request)
        if self._retry is not None:
            self._retry.stats.sent += 1
            self._attempts = 0
            self._arm_timer()

    def _send(self, request: HttpRequest) -> None:
        # Fresh TcpMessage per (re)transmission — see MemaslapClient.
        message = TcpMessage(payload=request, length=self.request_len,
                             created_at=self.sim.now)
        self.sender.send_tcp_message(src_port=self.src_port,
                                     dst_port=self.port, message=message)

    # ------------------------------------------------------------------
    # Loss recovery (active only when a RetryPolicy is configured)
    # ------------------------------------------------------------------
    def _arm_timer(self) -> None:
        self._timer = self.sim.schedule(
            self._retry.deadline_ns(self._attempts), self._on_timeout)

    def _on_timeout(self) -> None:
        request = self._outstanding
        if request is None:
            return  # reply raced the timer
        self._timer = None
        tracker = self._retry
        tracker.stats.timeouts += 1
        if tracker.exhausted(self._attempts):
            # Abandon it and free the connection — without this, one
            # lost request wedges the (single, non-pipelined) connection
            # for the rest of the run.
            tracker.stats.gave_up += 1
            self._outstanding = None
            self._pump()
            return
        self._attempts += 1
        tracker.stats.retries += 1
        self._send(request)
        self._arm_timer()

    def _on_packet(self, inner: Packet) -> None:
        self._reassembler.feed(inner)

    def _on_message(self, message: TcpMessage) -> None:
        request = message.payload
        if not isinstance(request, HttpRequest):
            return
        if self._outstanding is None or request.seq != self._outstanding.seq:
            # Late reply for an abandoned or already-answered request.
            if self._retry is not None:
                self._retry.stats.duplicates += 1
            return
        self._outstanding = None
        self.replies += 1
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self.latency_from == "intended":
            # wrk2 latency: from the intended (scheduled) send time.
            latency = self.sim.now - request.intended_at
        else:
            latency = self.sim.now - request.sent_at
        self.recorder.record(latency, at_ns=self.sim.now)
        self.completed.record(self.sim.now)
        # Connection is free again: drain any backlog immediately.
        self._pump()

    def stop(self) -> None:
        self.process.kill()
