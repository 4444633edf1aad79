"""MAC and IPv4 address value types.

Both types are immutable wrappers around an integer, hashable (usable as
dict keys in FDB / routing tables) and convertible to/from the usual text
forms.  Each computes its hash once, at construction: flow keys, FDB and
socket lookups hash addresses on every packet.  The hash includes a
``str``, so it differs between interpreters with different
``PYTHONHASHSEED``; pickling therefore ships only the integer and the
receiving process recomputes the hash (``__reduce__``).
"""

from __future__ import annotations

import re
from typing import Union

__all__ = ["MacAddress", "Ipv4Address"]

_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}:){5}[0-9a-fA-F]{2}$")


class MacAddress:
    """A 48-bit Ethernet MAC address."""

    __slots__ = ("value", "_hash")

    BROADCAST_VALUE = (1 << 48) - 1

    def __init__(self, value: Union[int, str, "MacAddress"]) -> None:
        if isinstance(value, MacAddress):
            value = value.value
        elif isinstance(value, str):
            value = self._parse(value)
        if not isinstance(value, int):
            raise TypeError(f"MacAddress requires int or str, got {type(value).__name__}")
        if not 0 <= value < (1 << 48):
            raise ValueError(f"MAC address out of range: {value:#x}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash(("mac", value)))

    @staticmethod
    def _parse(text: str) -> int:
        if not _MAC_RE.match(text):
            raise ValueError(f"invalid MAC address {text!r}")
        return int(text.replace(":", ""), 16)

    @classmethod
    def broadcast(cls) -> "MacAddress":
        """The all-ones broadcast address ff:ff:ff:ff:ff:ff."""
        return cls(cls.BROADCAST_VALUE)

    @property
    def is_broadcast(self) -> bool:
        return self.value == self.BROADCAST_VALUE

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(6, "big")

    def __str__(self) -> str:
        raw = f"{self.value:012x}"
        return ":".join(raw[i:i + 2] for i in range(0, 12, 2))

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MacAddress) and self.value == other.value

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (type(self), (self.value,))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MacAddress is immutable")


class Ipv4Address:
    """A 32-bit IPv4 address."""

    __slots__ = ("value", "_hash")

    def __init__(self, value: Union[int, str, "Ipv4Address"]) -> None:
        if isinstance(value, Ipv4Address):
            value = value.value
        elif isinstance(value, str):
            value = self._parse(value)
        if not isinstance(value, int):
            raise TypeError(f"Ipv4Address requires int or str, got {type(value).__name__}")
        if not 0 <= value < (1 << 32):
            raise ValueError(f"IPv4 address out of range: {value:#x}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash(("ipv4", value)))

    @staticmethod
    def _parse(text: str) -> int:
        parts = text.split(".")
        if len(parts) != 4:
            raise ValueError(f"invalid IPv4 address {text!r}")
        value = 0
        for part in parts:
            if not part.isdigit():
                raise ValueError(f"invalid IPv4 address {text!r}")
            octet = int(part)
            if octet > 255:
                raise ValueError(f"invalid IPv4 address {text!r}")
            value = (value << 8) | octet
        return value

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(4, "big")

    def __str__(self) -> str:
        return ".".join(str((self.value >> shift) & 0xFF) for shift in (24, 16, 8, 0))

    def __repr__(self) -> str:
        return f"Ipv4Address('{self}')"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ipv4Address) and self.value == other.value

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (type(self), (self.value,))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Ipv4Address is immutable")
