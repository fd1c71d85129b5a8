"""Tests for the Myrinet fabric: CRC, packets, links, switches, topology."""

import numpy as np
import pytest

from repro.sim import Environment
from repro.hw.myrinet import (
    Link,
    LinkParams,
    MyrinetNetwork,
    MyrinetPacket,
    PacketHeader,
    PortRangeError,
    PortRef,
    Switch,
    crc8,
    topology,
)
from repro.hw.myrinet.crc import _SMALL, _crc8_loop


def make_packet(route=(), payload=b"hello", kind="test", **fields):
    return MyrinetPacket(list(route), PacketHeader(kind, dict(fields)), payload)


# ---------------------------------------------------------------------- CRC
def test_crc8_known_vector():
    # CRC-8/ATM of "123456789" is 0xF4 (standard check value).
    assert crc8(b"123456789") == 0xF4


def test_crc8_empty():
    assert crc8(b"") == 0


def test_crc8_detects_single_bitflip():
    data = bytearray(b"some packet payload")
    reference = crc8(bytes(data))
    data[3] ^= 0x10
    assert crc8(bytes(data)) != reference


def test_crc8_numpy_and_bytes_agree():
    payload = np.arange(256, dtype=np.uint8)
    assert crc8(payload) == crc8(payload.tobytes())


_CRC_INPUTS = {
    "bytes": lambda arr: arr.tobytes(),
    "bytearray": lambda arr: bytearray(arr.tobytes()),
    "ndarray": lambda arr: arr,
    "strided": lambda arr: np.repeat(arr, 2)[::2],
}


@pytest.mark.parametrize("kind", sorted(_CRC_INPUTS))
@pytest.mark.parametrize("size", [
    0, 1, _SMALL - 1, _SMALL, _SMALL + 1, 126, 127, 128, 253, 254, 255,
    4095, 4096, 4097, 4156, 65536, 70001])
def test_crc8_matches_byte_loop_reference(size, kind):
    """Both size paths of crc8 equal the byte loop, for every initial
    value, input type and fold remainder (sizes around multiples of the
    127-byte period, the 4 KiB link packet, a 64 KiB message)."""
    arr = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8)
    data = _CRC_INPUTS[kind](arr.copy())
    for initial in (0, 1, 0x5A, 0xFF):
        assert crc8(data, initial) == _crc8_loop(arr, initial)
    assert bytes(data) == arr.tobytes()  # the input is left untouched


# ------------------------------------------------------------------- packets
def test_packet_seal_and_check():
    pkt = make_packet(payload=b"payload", length=7)
    pkt.seal()
    assert pkt.crc_ok()


def test_packet_corruption_detected():
    pkt = make_packet(payload=b"payload bytes")
    pkt.seal()
    pkt.corrupt(bit=13)
    assert not pkt.crc_ok()


def test_empty_payload_corruption_detected():
    pkt = make_packet(payload=b"")
    pkt.seal()
    pkt.corrupt()
    assert not pkt.crc_ok()


def test_packet_route_consumption():
    pkt = make_packet(route=[3, 1])
    assert pkt.hops_remaining == 2
    assert pkt.next_port() == 3
    assert pkt.next_port() == 1
    assert pkt.route_exhausted
    with pytest.raises(ValueError):
        pkt.next_port()


def test_packet_wire_bytes_accounting():
    pkt = make_packet(route=[1], payload=b"x" * 100)
    # 1 route + 1 type + 16 header + 100 payload + 1 crc
    assert pkt.wire_bytes == 119
    pkt.next_port()
    assert pkt.wire_bytes == 118  # route byte consumed


def test_header_access():
    hdr = PacketHeader("vmmc_long", {"length": 4096})
    assert hdr["length"] == 4096
    assert hdr.get("missing", 7) == 7


# --------------------------------------------------------------------- links
def test_link_delivers_in_order_with_timing():
    env = Environment()
    link = Link(env, LinkParams())
    got = []
    link.connect(lambda pkt: got.append((pkt.header["seq"], env.now)))

    def sender():
        for seq in range(3):
            yield link.transmit(make_packet(payload=b"z" * 1006, seq=seq))

    env.process(sender())
    env.run()
    assert [seq for seq, _ in got] == [0, 1, 2]
    # wire_bytes = 0 route + 1 + 16 + 1006 + 1 = 1024 -> 6400 ns at 160 MB/s.
    assert got[0][1] == 6400 + 100  # wire time + latency
    assert got[1][1] == 2 * 6400 + 100  # pipelined back-to-back


def test_link_160mbps_rate():
    params = LinkParams()
    # 1.28 Gb/s = 160 MB/s -> 16 KB takes 102.4 us
    assert params.wire_time_ns(16 * 1024) == pytest.approx(102400, rel=0.01)


def test_link_error_injection_detected():
    env = Environment()
    link = Link(env, LinkParams(error_rate=1.0),
                rng=np.random.default_rng(42))
    got = []
    link.connect(got.append)

    def sender():
        pkt = make_packet(payload=b"data to protect")
        pkt.seal()
        yield link.transmit(pkt)

    env.process(sender())
    env.run()
    assert len(got) == 1
    assert not got[0].crc_ok()
    assert link.errors_injected == 1


def test_link_unconnected_raises():
    env = Environment()
    link = Link(env)
    with pytest.raises(RuntimeError):
        link.transmit(make_packet())


# ------------------------------------------------------------------ switches
def test_switch_routes_by_route_byte():
    env = Environment()
    sw = Switch(env, nports=4)
    out = {1: [], 2: []}
    for port in (1, 2):
        link = Link(env, name=f"out{port}")
        link.connect(out[port].append)
        sw.attach_output(port, link)

    def feed():
        yield env.process(sw.receive(make_packet(route=[1], tag="a")))
        yield env.process(sw.receive(make_packet(route=[2], tag="b")))

    env.process(feed())
    env.run()
    assert [p.header["tag"] for p in out[1]] == ["a"]
    assert [p.header["tag"] for p in out[2]] == ["b"]
    assert sw.packets_forwarded == 2


def test_switch_drops_on_unconnected_port():
    env = Environment()
    sw = Switch(env, nports=4)
    env.process(sw.receive(make_packet(route=[3])))
    env.run()
    assert sw.drops == 1


def test_switch_bad_port_rejected():
    env = Environment()
    sw = Switch(env, nports=4, name="swX")
    with pytest.raises(PortRangeError) as exc:
        env.process(sw.receive(make_packet(route=[9])))
        env.run()
    # The error names the offending switch — essential in multi-switch
    # fabrics — and carries typed fields.
    assert exc.value.switch == "swX"
    assert exc.value.port == 9
    assert exc.value.nports == 4
    assert "swX" in str(exc.value)


# ------------------------------------------------------------------ topology
def test_single_switch_topology_routes():
    env = Environment()
    net = topology.build(topology.SingleSwitchSpec(nhosts_=4), env)
    assert net.host_names == ["node0", "node1", "node2", "node3"]
    route = net.compute_route("node0", "node3")
    assert route == [3]  # one switch hop, output port 3
    assert net.compute_route("node0", "node0") == []
    assert net.hop_count("node0", "node3") == 2


def test_dual_switch_topology_routes():
    env = Environment()
    net = topology.build(topology.DualSwitchSpec(nhosts_=4), env)
    # node0 on sw0, node3 on sw1: two switch hops.
    route = net.compute_route("node0", "node3")
    assert len(route) == 2
    assert route[0] == 7  # sw0's uplink port


def test_end_to_end_delivery_through_switch():
    env = Environment()
    net = topology.build("single:2", env)
    got = []
    net.attach_host_sink("node1", got.append)

    def sender():
        pkt = make_packet(route=net.compute_route("node0", "node1"),
                          payload=b"through the fabric")
        pkt.seal()
        yield net.inject("node0", pkt)

    env.process(sender())
    env.run()
    assert len(got) == 1
    assert got[0].crc_ok()
    assert bytes(got[0].payload) == b"through the fabric"
    assert got[0].route_exhausted


def test_packets_before_sink_attachment_are_queued():
    env = Environment()
    net = topology.build("single:2", env)

    def sender():
        pkt = make_packet(route=[1], payload=b"early")
        yield net.inject("node0", pkt)

    env.process(sender())
    env.run()
    got = []
    net.attach_host_sink("node1", got.append)
    assert len(got) == 1


def test_duplicate_device_names_rejected():
    env = Environment()
    net = MyrinetNetwork(env)
    net.add_host("a")
    with pytest.raises(ValueError):
        net.add_host("a")
    with pytest.raises(ValueError):
        net.add_switch("a")


def test_host_single_cable_enforced():
    env = Environment()
    net = MyrinetNetwork(env)
    net.add_host("h0")
    net.add_switch("sw", nports=4)
    net.connect(PortRef("h0"), PortRef("sw", 0))
    with pytest.raises(ValueError):
        net.connect(PortRef("h0"), PortRef("sw", 1))


def test_single_switch_capacity_check():
    with pytest.raises(ValueError):
        topology.SingleSwitchSpec(nhosts_=9, switch_ports=8)
