"""The vanilla ``net_rx_action`` — a direct transcription of paper Fig. 2.

NAPI maintains two poll lists per CPU: the *global* list (where interrupt
handlers and stage transitions add devices) and a *local* list the softirq
handler works through.  At softirq entry the global list is spliced onto
the local list; devices that still have packets after their batch are
re-added to the **global** list (Fig. 2 line 16), and at exit any local
leftovers are spliced *in front of* the new global arrivals (lines 21–22).

It is exactly this global/local split plus strict tail-enqueueing that
produces the interleaved device order of Fig. 6a — stage 3 of batch N runs
after stage 1 of batch N+1 — and the code below reproduces that order
verbatim (see ``tests/test_poll_order.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Generator, TYPE_CHECKING

from repro.kernel.softnet import NET_RX_SOFTIRQ, SoftnetData
from repro.trace.tracer import TracePoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel

__all__ = ["net_rx_action_vanilla"]


def net_rx_action_vanilla(kernel: "Kernel", softnet: SoftnetData
                          ) -> Generator[int, None, None]:
    """One NET_RX softirq invocation, vanilla semantics (Fig. 2)."""
    costs = kernel.costs
    config = kernel.config
    cpu = softnet.cpu
    charge = cpu.charge_softirq
    tracer = kernel.tracer
    # Hoist the subscriber checks: with nothing attached this function
    # must not build tracepoint field dicts or poll-list snapshots.
    # ``tracer.active`` short-circuits both per-softirq probes.
    active = tracer.active
    trace_polls = active and tracer.has_subscribers(TracePoint.NAPI_POLL)
    spans = active and tracer.has_subscribers(TracePoint.SPAN_BEGIN)
    if spans:
        track = f"cpu{cpu.core_id}"
        tracer.emit(TracePoint.SPAN_BEGIN, track=track, name="net_rx_action")
    ns = costs.softirq_dispatch_ns
    if charge(ns):
        yield ns

    # Fig. 2 line 8: move POLL_LIST to the (empty) local poll list.
    local = deque(softnet.poll_list)
    softnet.poll_list.clear()

    processed = 0
    while local:
        napi = local.popleft()
        if spans:
            tracer.emit(TracePoint.SPAN_BEGIN, track=track,
                        name=f"poll:{napi.name}")
        processed += yield from napi.poll(config.napi_weight, charge)
        if spans:
            tracer.emit(TracePoint.SPAN_END, track=track,
                        name=f"poll:{napi.name}")
        if napi.has_packets():
            # Fig. 2 line 16: back to the tail of the *global* list.
            softnet.poll_list.append(napi)
        else:
            softnet.napi_complete(napi)
        if trace_polls:
            tracer.emit(
                TracePoint.NAPI_POLL, cpu=cpu.core_id, device=napi.name,
                local_list=[n.name for n in local],
                global_list=softnet.poll_list_names())
        if processed >= config.napi_budget:
            break

    # Fig. 2 lines 21-22: local leftovers go in front of new global
    # arrivals, and the combined list becomes the global list again.
    if local:
        local.extend(softnet.poll_list)
        softnet.poll_list.clear()
        softnet.poll_list.extend(local)

    # Fig. 2 line 23: more work pending -> run again.
    if softnet.poll_list:
        ns = costs.softirq_raise_ns
        if charge(ns):
            yield ns
        cpu.raise_softirq(NET_RX_SOFTIRQ)
        if processed >= config.napi_budget:
            # Budget exhausted: hand off to ksoftirqd, which competes
            # fairly with user threads.
            cpu.request_softirq_yield()
    if spans:
        tracer.emit(TracePoint.SPAN_END, track=track, name="net_rx_action")
