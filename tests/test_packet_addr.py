"""Tests for MAC/IPv4 address value types."""

import pytest

from repro.packet import Ipv4Address, MacAddress


class TestMacAddress:
    def test_parse_and_format_round_trip(self):
        mac = MacAddress("02:42:ac:11:00:02")
        assert str(mac) == "02:42:ac:11:00:02"

    def test_from_int(self):
        mac = MacAddress(0x024200000001)
        assert str(mac) == "02:42:00:00:00:01"

    def test_copy_constructor(self):
        a = MacAddress("aa:bb:cc:dd:ee:ff")
        assert MacAddress(a) == a

    def test_invalid_string(self):
        with pytest.raises(ValueError):
            MacAddress("not-a-mac")

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            MacAddress(1 << 48)

    def test_wrong_type(self):
        with pytest.raises(TypeError):
            MacAddress(3.14)  # type: ignore[arg-type]

    def test_broadcast(self):
        assert MacAddress.broadcast().is_broadcast
        assert str(MacAddress.broadcast()) == "ff:ff:ff:ff:ff:ff"
        assert not MacAddress(1).is_broadcast

    def test_equality_and_hash(self):
        a = MacAddress("02:42:ac:11:00:02")
        b = MacAddress("02:42:ac:11:00:02")
        c = MacAddress("02:42:ac:11:00:03")
        assert a == b
        assert a != c
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1

    def test_immutable(self):
        mac = MacAddress(1)
        with pytest.raises(AttributeError):
            mac.value = 2  # type: ignore[misc]

    def test_to_bytes(self):
        assert MacAddress("00:00:00:00:00:01").to_bytes() == b"\x00\x00\x00\x00\x00\x01"


class TestIpv4Address:
    def test_parse_and_format_round_trip(self):
        ip = Ipv4Address("10.0.1.200")
        assert str(ip) == "10.0.1.200"

    def test_from_int(self):
        assert str(Ipv4Address(0x0A000001)) == "10.0.0.1"

    def test_copy_constructor(self):
        a = Ipv4Address("1.2.3.4")
        assert Ipv4Address(a) == a

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", ""])
    def test_invalid_strings(self, bad):
        with pytest.raises(ValueError):
            Ipv4Address(bad)

    def test_out_of_range_int(self):
        with pytest.raises(ValueError):
            Ipv4Address(1 << 32)

    def test_wrong_type(self):
        with pytest.raises(TypeError):
            Ipv4Address([1, 2, 3, 4])  # type: ignore[arg-type]

    def test_equality_and_hash(self):
        a = Ipv4Address("192.168.0.1")
        b = Ipv4Address("192.168.0.1")
        assert a == b
        assert hash(a) == hash(b)
        assert a != Ipv4Address("192.168.0.2")

    def test_mac_and_ip_never_equal(self):
        assert Ipv4Address(5) != MacAddress(5)

    def test_to_bytes(self):
        assert Ipv4Address("1.2.3.4").to_bytes() == b"\x01\x02\x03\x04"

    def test_immutable(self):
        ip = Ipv4Address(1)
        with pytest.raises(AttributeError):
            ip.value = 2  # type: ignore[misc]


class TestCachedHashAndPickling:
    """Addresses cache their hash; copies and pickles rebuild it."""

    ADDRESSES = [Ipv4Address("10.0.0.1"), MacAddress("02:42:ac:11:00:02")]

    def test_cached_hash_is_the_value_hash(self):
        assert hash(Ipv4Address(7)) == hash(("ipv4", 7))
        assert hash(MacAddress(7)) == hash(("mac", 7))

    @pytest.mark.parametrize("addr", ADDRESSES, ids=type)
    def test_pickle_and_copies_round_trip(self, addr):
        import copy
        import pickle

        for clone in (pickle.loads(pickle.dumps(addr)), copy.copy(addr),
                      copy.deepcopy(addr)):
            assert type(clone) is type(addr)
            assert clone == addr and hash(clone) == hash(addr)
            assert {clone: 1}[addr] == 1

    def test_unpickled_hash_is_recomputed_under_another_hash_seed(self):
        """The hash includes a str, so it differs per PYTHONHASHSEED:
        the pickle carries only the integer."""
        import os
        import pickle
        import subprocess
        import sys

        code = ("import pickle, sys\n"
                "from repro.packet import Ipv4Address, MacAddress\n"
                "sys.stdout.write(pickle.dumps([Ipv4Address('10.0.0.1'), "
                "MacAddress('02:42:ac:11:00:02')]).hex())\n")
        env = dict(os.environ, PYTHONHASHSEED="12345",
                   PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True)
        clones = pickle.loads(bytes.fromhex(out.stdout))
        assert clones == self.ADDRESSES
        assert [hash(c) for c in clones] == [hash(a) for a in self.ADDRESSES]
