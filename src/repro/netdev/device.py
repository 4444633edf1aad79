"""Base classes for network devices and their per-stage processing.

A :class:`PacketStage` is the unit of work NAPI polling executes for one
skb in one device's context, as two plain calls: :meth:`~PacketStage.cost`
gives the CPU time it charges and :meth:`~PacketStage.run` does the work,
returning the napi to hand the skb to next (or None once the skb is
delivered to a socket, consumed or dropped).  The hand-off itself —
inline, enqueue, GRO — is :func:`repro.kernel.softnet.hand_off`.

A :class:`NetDevice` is the ``net_device`` analogue: identity (name, MAC,
IP), an owning network namespace, and a reference to the stage that
processes packets received *on* this device.
"""

from __future__ import annotations

import abc
from typing import Optional, TYPE_CHECKING

from repro.packet.addr import Ipv4Address, MacAddress
from repro.packet.skb import SKBuff

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.kernel.softnet import NapiStruct, SoftnetData
    from repro.stack.netns import NetNamespace

__all__ = ["NetDevice", "PacketStage"]


class PacketStage(abc.ABC):
    """One stage of the receive pipeline (runs in softirq context)."""

    #: Short display name used in poll-order traces ("eth", "br", "veth").
    name: str = "stage"

    @abc.abstractmethod
    def cost(self, skb: SKBuff) -> int:
        """CPU nanoseconds this stage charges for *skb* (pure)."""

    @abc.abstractmethod
    def run(self, skb: SKBuff, softnet: "SoftnetData"
            ) -> Optional["NapiStruct"]:
        """Do the stage's work for *skb* on *softnet*'s CPU.

        Called once the stage's cost has been charged.  Returns the napi
        whose stage takes the skb next, or None when the skb was
        delivered, consumed or dropped here.
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class NetDevice:
    """A network device (``net_device`` analogue)."""

    def __init__(self, name: str, *,
                 mac: Optional[MacAddress] = None,
                 ip: Optional[Ipv4Address] = None,
                 netns: Optional["NetNamespace"] = None,
                 mtu: int = 1_500) -> None:
        self.name = name
        self.mac = mac
        self.ip = ip
        self.netns = netns
        self.mtu = mtu
        #: Stage that processes packets received on this device; used by
        #: the shared backlog NAPI to dispatch per-skb.
        self.rx_stage: Optional[PacketStage] = None
        #: Counters (mirroring ``ip -s link`` stats).
        self.rx_packets = 0
        self.rx_bytes = 0
        self.tx_packets = 0
        self.tx_bytes = 0

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
