"""PRISM's ``net_rx_action`` — a direct transcription of paper Fig. 7.

Differences from vanilla (§III-A, §IV-C):

- a **single** per-CPU poll list: no global/local split, so devices added
  mid-softirq (including to the head) are visible to the very next loop
  iteration — this enables batch-level preemption;
- after polling a device, it is re-inserted at the **head** if it holds
  high-priority packets, at the tail if it holds only low-priority ones
  (Fig. 7 lines 13–16);
- the per-device ``napi_poll`` itself prefers the high-priority queue
  (implemented in :meth:`repro.kernel.softnet.NapiStruct.poll`).

Combined with head insertion by the stage-transition functions, the device
order for a high-priority flow becomes the streamlined
``eth, br, veth, eth, ...`` of Fig. 6b.
"""

from __future__ import annotations

from typing import Generator, TYPE_CHECKING

from repro.kernel.softnet import NET_RX_SOFTIRQ, SoftnetData
from repro.trace.tracer import TracePoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel

__all__ = ["net_rx_action_prism"]


def net_rx_action_prism(kernel: "Kernel", softnet: SoftnetData
                        ) -> Generator[int, None, None]:
    """One NET_RX softirq invocation, PRISM semantics (Fig. 7)."""
    costs = kernel.costs
    config = kernel.config
    cpu = softnet.cpu
    charge = cpu.charge_softirq
    tracer = kernel.tracer
    # Hoist the subscriber checks: with nothing attached this function
    # must not build tracepoint field dicts or poll-list snapshots.
    # ``tracer.active`` short-circuits all three per-softirq probes.
    active = tracer.active
    trace_polls = active and tracer.has_subscribers(TracePoint.NAPI_POLL)
    spans = active and tracer.has_subscribers(TracePoint.SPAN_BEGIN)
    if active and tracer.has_subscribers(TracePoint.NET_RX_ACTION):
        tracer.emit(TracePoint.NET_RX_ACTION, cpu=cpu.core_id,
                    mode=str(kernel.mode))
    if spans:
        track = f"cpu{cpu.core_id}"
        tracer.emit(TracePoint.SPAN_BEGIN, track=track, name="net_rx_action")
    ns = costs.softirq_dispatch_ns
    if charge(ns):
        yield ns

    processed = 0
    while True:
        # Fig. 7 lines 9-11: take the head of the single global list.
        if not softnet.poll_list:
            break
        napi = softnet.poll_list.popleft()
        if spans:
            tracer.emit(TracePoint.SPAN_BEGIN, track=track,
                        name=f"poll:{napi.name}")
        processed += yield from napi.poll(config.napi_weight, charge)
        if spans:
            tracer.emit(TracePoint.SPAN_END, track=track,
                        name=f"poll:{napi.name}")
        # Fig. 7 lines 13-16: head if high-priority work remains, tail if
        # only low-priority work remains, complete otherwise.
        if napi.has_high():
            softnet.poll_list.appendleft(napi)
        elif napi.has_low():
            softnet.poll_list.append(napi)
        else:
            softnet.napi_complete(napi)
        if trace_polls:
            tracer.emit(
                TracePoint.NAPI_POLL, cpu=cpu.core_id, device=napi.name,
                local_list=[],
                global_list=softnet.poll_list_names())
        if processed >= config.napi_budget:
            break

    # Fig. 7 lines 19-20.
    if softnet.poll_list:
        ns = costs.softirq_raise_ns
        if charge(ns):
            yield ns
        cpu.raise_softirq(NET_RX_SOFTIRQ)
        if processed >= config.napi_budget:
            cpu.request_softirq_yield()
    if spans:
        tracer.emit(TracePoint.SPAN_END, track=track, name="net_rx_action")
