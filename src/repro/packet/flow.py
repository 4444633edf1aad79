"""Flow identification and hashing.

A :class:`FlowKey` is the classic 5-tuple.  :func:`rss_hash` approximates
the NIC's Toeplitz receive-side-scaling hash: a deterministic hash of the
tuple used to pick an rx queue / CPU.  The PRISM experiments pin all
network processing to one core (paper §V-A); the hash also derives the
VXLAN outer source port from the inner 5-tuple.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.packet.addr import Ipv4Address

__all__ = ["FlowKey", "rss_hash"]


@dataclass(frozen=True)
class FlowKey:
    """A transport-layer 5-tuple identifying a flow."""

    src_ip: Ipv4Address
    dst_ip: Ipv4Address
    src_port: int
    dst_port: int
    protocol: int

    def reversed(self) -> "FlowKey":
        """The key of the reply direction."""
        return FlowKey(
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            src_port=self.dst_port,
            dst_port=self.src_port,
            protocol=self.protocol,
        )

    def __str__(self) -> str:
        proto = {6: "tcp", 17: "udp"}.get(self.protocol, str(self.protocol))
        return (f"{proto}:{self.src_ip}:{self.src_port}"
                f"->{self.dst_ip}:{self.dst_port}")


def rss_hash(key: FlowKey) -> int:
    """Deterministic 32-bit flow hash (Toeplitz stand-in).

    CRC32 over the canonical byte encoding of the 5-tuple.  Deterministic
    across runs and platforms, and well-distributed enough for queue
    selection.
    """
    data = (key.src_ip.to_bytes()
            + key.dst_ip.to_bytes()
            + key.src_port.to_bytes(2, "big")
            + key.dst_port.to_bytes(2, "big")
            + bytes([key.protocol]))
    return zlib.crc32(data) & 0xFFFFFFFF
