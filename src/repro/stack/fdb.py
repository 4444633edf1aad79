"""The bridge forwarding database (FDB).

A learning MAC table: source addresses are learned on ingress, destination
lookups pick the egress port.  Entries can also be installed statically
(Docker's overlay control plane programs static FDB entries for remote
containers — our topology builder does the same).
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.packet.addr import MacAddress

if TYPE_CHECKING:  # pragma: no cover
    from repro.netdev.device import NetDevice

__all__ = ["Fdb"]


_BROADCAST = MacAddress.BROADCAST_VALUE


class Fdb:
    """MAC address -> bridge port map with learning.

    Keyed by the address's integer value: an int hashes in C, and both
    lookups of a forwarded packet (source learn, destination lookup) hit
    the table.
    """

    def __init__(self) -> None:
        self._table: Dict[int, "NetDevice"] = {}
        self.learned = 0
        self.lookups = 0
        self.misses = 0

    def learn(self, mac: MacAddress, port: "NetDevice") -> None:
        """Record that *mac* was seen behind *port*."""
        value = mac.value
        if value == _BROADCAST:
            return
        table = self._table
        if table.get(value) is not port:
            table[value] = port
            self.learned += 1

    def lookup(self, mac: MacAddress) -> Optional["NetDevice"]:
        """Egress port for *mac*, or None (flood) when unknown/broadcast."""
        self.lookups += 1
        value = mac.value
        if value == _BROADCAST:
            return None
        port = self._table.get(value)
        if port is None:
            self.misses += 1
        return port

    def forget(self, mac: MacAddress) -> bool:
        return self._table.pop(mac.value, None) is not None

    def entries(self) -> List[MacAddress]:
        return [MacAddress(value) for value in self._table]

    def __len__(self) -> int:
        return len(self._table)

    def __repr__(self) -> str:
        return f"<Fdb entries={len(self._table)} misses={self.misses}>"
