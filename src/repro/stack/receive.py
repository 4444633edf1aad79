"""Protocol-layer receive processing: ``ip_rcv`` / ``udp_rcv`` / ``tcp_rcv``.

Called by the final pipeline stage (the veth/backlog stage for overlay
traffic, the NIC stage for host traffic) after the stage's CPU cost has
been charged.  Performs validation and socket demux synchronously.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.packet.headers import TcpHeader, UdpHeader
from repro.packet.skb import SKBuff

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel
    from repro.kernel.cpu import CpuCore
    from repro.stack.netns import NetNamespace

__all__ = ["protocol_rcv"]


def protocol_rcv(kernel: "Kernel", netns: "NetNamespace", skb: SKBuff,
                 from_cpu: "CpuCore") -> bool:
    """Run the packet up the protocol stack to a socket.

    Returns True if the packet reached a socket's receive buffer.
    """
    layers = skb.packet.layers
    ip = layers.ip
    if ip is None:
        _drop(kernel, netns, skb, "non-ip")
        return False
    if ip.ttl <= 0:
        _drop(kernel, netns, skb, "ttl")
        return False
    if netns.is_local_ip(ip.dst) is False and netns._local_ips:
        # Not for us (no forwarding in container namespaces).
        _drop(kernel, netns, skb, "not-local")
        return False

    l4 = layers.l4
    if isinstance(l4, UdpHeader):
        socket = netns.sockets.lookup_udp(ip.dst, l4.dst_port)
        if socket is None:
            _drop(kernel, netns, skb, "udp-unmatched")
            return False
        return socket.deliver(skb, from_cpu)
    if isinstance(l4, TcpHeader):
        endpoint = netns.sockets.lookup_tcp(ip.dst, l4.dst_port)
        if endpoint is None:
            _drop(kernel, netns, skb, "tcp-unmatched")
            return False
        endpoint.receive_skb(skb, from_cpu)
        return True
    _drop(kernel, netns, skb, "proto-unknown")
    return False


def _drop(kernel: "Kernel", netns: "NetNamespace", skb: SKBuff,
          reason: str) -> None:
    name = f"{netns.name}:rcv:{reason}"
    kernel.count_drop(name, skb)
    ledger = kernel.ledger
    if ledger is not None:
        w = skb.gro_segments
        ledger.drop(name, w)
        ledger.leave(w)
    kernel.skb_pool.recycle(skb)
