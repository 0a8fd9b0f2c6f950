"""Representation pipeline: dissection (stripping, header length, flow key),
anonymization, crop/pad, flow assembly, and stride cutting."""

import gc
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmamba.errors import ConfigError, MalformedPacketError
from netmamba.traffic import (
    AssemblyStats, Datagram, FiveTuple, FlowRecord, ReprConfig, anonymize,
    assemble_flows, build_sample, classify_and_strip, crop_pad,
)

from helpers import (
    eth_frame, ipv4_packet, ipv6_packet, raw, tcp_flow_packet, tcp_segment,
    udp_datagram,
)

CFG = ReprConfig()


def strip(frame: bytes, cfg: ReprConfig = CFG) -> bytes | None:
    """The IP datagram ``classify_and_strip`` finds in the frame, or None."""
    dissected = classify_and_strip(raw(frame), cfg)
    if dissected is None:
        return None
    _, start, stop, _ = dissected
    return frame[start:stop]


def dissected_key(src: bytes, sport: int, dst: bytes, dport: int,
                  proto: int) -> FiveTuple:
    """The flow key ``classify_and_strip`` gives an IPv4 TCP or UDP frame, a
    plain tuple, read back by field name."""
    if proto == 6:
        transport = tcp_segment(b"", sport, dport)
    else:
        transport = udp_datagram(b"", sport, dport)
    ip = ipv4_packet(transport, proto, src, dst)
    key, *_ = classify_and_strip(raw(eth_frame(ip, 0x0800)),
                                 ReprConfig(drop_dhcp=False))
    assert type(key) is tuple
    return FiveTuple(*key)


def one_flow(packets, cfg: ReprConfig = CFG) -> FlowRecord:
    [flow] = assemble_flows(packets, cfg)
    return flow


def strides_of(sample: bytes, cfg: ReprConfig = CFG) -> np.ndarray:
    """A sample's bytes cut into (n_strides, stride_len) strides."""
    return np.frombuffer(sample, dtype=np.uint8).reshape(cfg.n_strides,
                                                          cfg.stride_len)


def test_strip_plain_ipv4():
    ip = ipv4_packet(tcp_segment(b"hello", 1234, 80), 6)
    assert strip(eth_frame(ip, 0x0800)) == ip


def test_strip_drops_arp():
    arp = bytes(28)
    assert strip(eth_frame(arp, 0x0806)) is None


def test_strip_vlan_tagged_matches_hand_slice():
    ip = ipv4_packet(udp_datagram(b"x", 5000, 5001), 17)
    frame = eth_frame(ip, 0x0800, vlan_tcis=(0x0064,))
    # 14-byte Ethernet header plus one 4-byte tag precede the datagram
    assert frame[18:] == ip
    assert strip(frame) == ip


def test_strip_double_vlan():
    ip = ipv4_packet(b"", 89)
    frame = eth_frame(ip, 0x0800, vlan_tcis=(1, 2))
    assert strip(frame) == ip


def test_strip_short_packet_is_malformed():
    with pytest.raises(MalformedPacketError):
        classify_and_strip(raw(b"\x00" * 13), CFG)


@pytest.mark.parametrize("sport,dport", [(68, 67), (67, 68), (546, 547), (40000, 67)])
def test_dhcp_filter(sport, dport):
    ip = ipv4_packet(udp_datagram(b"dhcp", sport, dport), 17)
    frame = eth_frame(ip, 0x0800)
    assert strip(frame) is None
    assert strip(frame, ReprConfig(drop_dhcp=False)) == ip


def test_dhcp_filter_leaves_other_udp():
    ip = ipv4_packet(udp_datagram(b"dns", 53000, 53), 17)
    assert strip(eth_frame(ip, 0x0800)) == ip


def test_anonymize_zeroes_ipv4_addresses():
    ip = ipv4_packet(b"payload", 17, src="10.0.0.1", dst="10.0.0.2")
    out = anonymize(ip, CFG)
    assert out[:12] == ip[:12]
    assert out[12:20] == bytes(8)
    assert out[20:] == ip[20:]


def test_anonymize_identity_when_disabled():
    ip = ipv4_packet(b"", 6)
    assert anonymize(ip, ReprConfig(anonymize_ips=False)) == ip


def test_anonymize_ipv6_matches_expected_array():
    ip = ipv6_packet(udp_datagram(b"q", 1, 2), 17)
    expected = bytearray(ip)
    expected[8:40] = bytes(32)  # src+dst fields built independently
    assert anonymize(ip, CFG) == bytes(expected)


@pytest.mark.parametrize("ip,header_len,payload", [
    pytest.param(ipv4_packet(tcp_segment(bytes(10), 1, 2), 6), 40, bytes(10),
                 id="ipv4_tcp"),
    pytest.param(ipv4_packet(udp_datagram(b"", 1, 2), 17), 28, b"",
                 id="ipv4_udp_empty_payload"),
    # IHL=6 (24-byte IP header) and TCP data offset 8 (32 bytes) -> 56 total
    pytest.param(ipv4_packet(tcp_segment(b"abc", 1, 2, options=bytes(12)), 6,
                             options=bytes(4)), 24 + 32, b"abc",
                 id="ip_and_tcp_options"),
    pytest.param(ipv4_packet(b"\x08\x00\x00\x00rest", 1), 20,
                 b"\x08\x00\x00\x00rest", id="icmp_header_is_ip_only"),
    # hop-by-hop (8 bytes) then UDP
    pytest.param(ipv6_packet(bytes([17, 0]) + bytes(6)
                             + udp_datagram(b"zz", 7, 8), 0),
                 40 + 8 + 8, b"zz", id="ipv6_extension_headers_count_as_header"),
])
def test_dissect_header_length(ip, header_len, payload):
    ethertype = 0x0800 if ip[0] >> 4 == 4 else 0x86DD
    frame = eth_frame(ip, ethertype)
    _, start, stop, end = classify_and_strip(raw(frame), CFG)
    assert frame[start:stop] == ip
    assert end == header_len
    assert ip[header_len:] == payload


@pytest.mark.parametrize("ip", [
    # cut inside the TCP header, after the ports
    pytest.param(ipv4_packet(tcp_segment(b"", 1, 2), 6)[:30],
                 id="tcp_cut_after_ports"),
    # TCP data offset of 15 words declares 60 bytes of a 20-byte header
    pytest.param(ipv4_packet(tcp_segment(b"", 1, 2), 6)[:32] + b"\xf0"
                 + bytes(7), id="tcp_data_offset_past_end"),
    pytest.param(ipv4_packet(udp_datagram(b"", 5000, 53), 17)[:26],
                 id="udp_header_of_6_bytes"),
])
def test_dissect_declared_length_exceeds_packet(ip):
    with pytest.raises(MalformedPacketError):
        classify_and_strip(raw(eth_frame(ip, 0x0800)), CFG)


TRAILER = bytes(range(1, 7))     # e.g. padding plus a frame check sequence


def with_length_field(ip: bytes, value: int) -> bytes:
    """``ip`` with its IPv4 total length or IPv6 payload length set."""
    at = 2 if ip[0] >> 4 == 4 else 4
    return ip[:at] + struct.pack(">H", value) + ip[at + 2:]


@pytest.mark.parametrize("ip", [
    pytest.param(ipv4_packet(tcp_segment(b"", 1, 2), 6), id="ipv4_ack"),
    pytest.param(ipv4_packet(tcp_segment(b"data", 1, 2), 6), id="ipv4_payload"),
    pytest.param(ipv6_packet(udp_datagram(b"zz", 7, 8), 17), id="ipv6_udp"),
])
def test_link_trailer_is_cut_at_the_declared_ip_length(ip):
    ethertype = 0x0800 if ip[0] >> 4 == 4 else 0x86DD
    assert strip(eth_frame(ip, ethertype) + TRAILER) == ip


def test_ack_with_a_trailer_gives_the_same_sample():
    ack = tcp_flow_packet(0)
    trailed = raw(ack.link_bytes + TRAILER)
    assert build_sample(one_flow([trailed]), CFG) == build_sample(one_flow([ack]), CFG)


@pytest.mark.parametrize("ip", [
    # TCP segmentation offload and jumbograms leave the length field 0
    pytest.param(with_length_field(ipv4_packet(tcp_segment(b"abc", 1, 2), 6), 0),
                 id="ipv4_zero_total_length"),
    # no next header: the header ends at 40, where a zero field would cut
    pytest.param(with_length_field(ipv6_packet(b"opaque", 59), 0),
                 id="ipv6_zero_payload_length"),
    pytest.param(ipv4_packet(tcp_segment(bytes(100), 1, 2), 6)[:70],
                 id="truncated_capture"),
    # a declared length inside the header cuts nothing and is not malformed
    pytest.param(with_length_field(ipv4_packet(tcp_segment(b"abc", 1, 2), 6), 30),
                 id="declared_inside_the_header"),
])
def test_declared_length_outside_the_capture_keeps_its_bytes(ip):
    ethertype = 0x0800 if ip[0] >> 4 == 4 else 0x86DD
    assert strip(eth_frame(ip, ethertype)) == ip


def test_crop_pad_default_budgets():
    header, payload = bytes(range(40)), bytes(range(256)) + bytes(244)
    out = crop_pad(header, payload, CFG)
    assert len(out) == 320
    assert out[:40] == header
    assert out[40:80] == bytes(40)
    assert out[80:320] == payload[:240]


def test_crop_pad_empty_inputs():
    assert crop_pad(b"", b"", CFG) == bytes(320)


def test_crop_pad_toggles():
    header, payload = b"\xaa" * 100, b"\xbb" * 300
    no_header = crop_pad(header, payload, ReprConfig(include_header=False))
    assert no_header == bytes(80) + payload[:240]
    no_payload = crop_pad(header, payload, ReprConfig(include_payload=False))
    assert no_payload == header[:80] + bytes(240)


def test_dissect_key_symmetry_example():
    fwd = ipv4_packet(tcp_segment(b"", 1111, 2222), 6, "10.0.0.1", "10.0.0.2")
    rev = ipv4_packet(tcp_segment(b"", 2222, 1111), 6, "10.0.0.2", "10.0.0.1")
    fwd_key, *_ = classify_and_strip(raw(eth_frame(fwd, 0x0800)), CFG)
    rev_key, *_ = classify_and_strip(raw(eth_frame(rev, 0x0800)), CFG)
    assert fwd_key == rev_key


@settings(max_examples=60, deadline=None)
@given(
    ip1=st.binary(min_size=4, max_size=4), ip2=st.binary(min_size=4, max_size=4),
    p1=st.integers(0, 65535), p2=st.integers(0, 65535),
    proto=st.sampled_from([6, 17]),
)
def test_canonical_key_symmetry_property(ip1, ip2, p1, p2, proto):
    a = dissected_key(ip1, p1, ip2, p2, proto)
    b = dissected_key(ip2, p2, ip1, p1, proto)
    assert a == b
    assert (a.ip_a, a.port_a) <= (a.ip_b, a.port_b)
    assert {(a.ip_a, a.port_a), (a.ip_b, a.port_b)} == {(ip1, p1), (ip2, p2)}


def test_record_fields_and_canonical_type():
    # build_sample, the benchmark and library callers read these by name
    assert FiveTuple._fields == ("ip_a", "port_a", "ip_b", "port_b", "protocol")
    assert Datagram._fields == ("time", "ip_bytes", "header_len")
    lo, hi = bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2])
    key = dissected_key(hi, 80, lo, 40000, 6)
    assert key == FiveTuple(ip_a=lo, port_a=40000, ip_b=hi, port_b=80, protocol=6)
    assert hash(key) == hash(dissected_key(lo, 40000, hi, 80, 6))
    # equal addresses: the lower port comes first
    assert dissected_key(lo, 9, lo, 3, 17) == (lo, 3, lo, 9, 17)
    # the dissector's plain key finds the flow that assembly keys by its
    # FiveTuple, and what a flow holds is typed
    packet = tcp_flow_packet(0, src="10.0.0.2", dst="10.0.0.1", sport=80,
                             dport=40000)
    plain, *_ = classify_and_strip(packet, CFG)
    flow = one_flow([packet])
    assert type(plain) is tuple and type(flow.key) is FiveTuple
    assert plain == flow.key == key and hash(plain) == hash(flow.key)
    assert {flow.key: flow}[plain] is flow
    [datagram] = flow.packets
    assert type(datagram) is Datagram and type(datagram.ip_bytes) is bytes


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=20, max_size=120), st.booleans())
def test_anonymize_idempotent_property(tail, v6):
    packet = (bytes([0x60]) + bytes(39) if v6 else bytes([0x45]) + bytes(19)) + tail
    once = anonymize(packet, CFG)
    assert anonymize(once, CFG) == once


def test_assemble_bidirectional_flow():
    a = tcp_flow_packet(0, src="10.0.0.1", dst="10.0.0.2", sport=1111, dport=2222)
    b = tcp_flow_packet(1, src="10.0.0.2", dst="10.0.0.1", sport=2222, dport=1111)
    flows = assemble_flows([a, b], CFG)
    assert len(flows) == 1
    assert len(flows[0].packets) == 2


def test_assemble_distinct_ports_make_distinct_flows():
    flows = assemble_flows(
        [tcp_flow_packet(0, dport=80), tcp_flow_packet(1, dport=443)], CFG)
    assert len(flows) == 2


def test_assemble_empty_input():
    assert assemble_flows([], CFG) == []


def test_assemble_counts_malformed_and_skipped():
    stats = AssemblyStats()
    packets = [
        tcp_flow_packet(0),
        raw(b"\x00" * 5),                      # malformed ethernet
        raw(eth_frame(bytes(28), 0x0806)),     # ARP
    ]
    flows = assemble_flows(packets, CFG, stats)
    assert len(flows) == 1
    assert stats.malformed_packets == 1
    assert stats.skipped_packets == 1
    assert stats.kept_packets == 1


def test_assemble_orders_flows_first_seen_and_packets_by_time():
    early = tcp_flow_packet(5, dport=80)
    late = tcp_flow_packet(1, dport=80)
    other = tcp_flow_packet(2, dport=443)
    flows = assemble_flows([early, other, late], CFG)
    assert flows[0].key.port_a in (80, 40000) or flows[0].key.port_b == 80
    assert [d.time for d in flows[0].packets] == [(1, 0), (5, 0)]
    assert len(flows) == 2


def test_assemble_keeps_first_seen_flows_and_stable_time_order():
    def packet(t, dport, tag):
        return tcp_flow_packet(t, dport=dport, payload=tag)

    packets = [packet(9, 443, b"a"), packet(3, 80, b"b"), packet(1, 443, b"c"),
               packet(3, 80, b"d"), packet(2, 22, b"e"), packet(3, 80, b"f"),
               packet(0, 80, b"g")]
    flows = assemble_flows(packets, CFG)
    assert [f.key.port_b for f in flows] == [443, 80, 22]
    payloads = [[d.ip_bytes[d.header_len:] for d in f.packets] for f in flows]
    # equal capture times keep their input order
    assert payloads == [[b"c", b"a"], [b"g", b"b", b"d", b"f"], [b"e"]]
    assert [d.time for d in flows[1].packets] == [(0, 0), (3, 0), (3, 0), (3, 0)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3),
                          st.integers(0, 2)), max_size=40),
       st.integers(1, 4))
def test_assembly_keeps_the_first_m_of_a_stable_time_sort(events, m):
    # (flow, seconds, nanoseconds) per packet: few distinct times, so ties
    # and out-of-order packets are common; each payload is its input index
    cfg = ReprConfig(packets_per_flow=m)
    packets = [tcp_flow_packet(sec, dport=80 + flow,
                               payload=struct.pack(">H", i))._replace(ts_nsec=nsec)
               for i, (flow, sec, nsec) in enumerate(events)]
    stats = AssemblyStats()
    flows = assemble_flows(packets, cfg, stats)
    by_flow: dict = {}
    for i, (flow, sec, nsec) in enumerate(events):
        by_flow.setdefault(80 + flow, []).append(((sec, nsec), i))
    assert [f.key.port_b for f in flows] == list(by_flow)
    for flow in flows:
        every = by_flow[flow.key.port_b]
        # sorting (time, index) pairs is a stable sort by time
        expected = sorted(every)[:m]
        kept = [(d.time, struct.unpack(">H", d.ip_bytes[d.header_len:])[0])
                for d in flow.packets]
        assert kept == expected
        assert flow.count == len(every)
    assert stats.kept_packets == len(events)


def test_assembly_holds_m_datagrams_however_long_the_flows():
    # the same 20 flows of 1000-byte packets, 10 or 100 packets long: the
    # flows that assemble_flows returns hold M datagrams each either way.
    # An object taken from one of CPython's per-type free lists (tuples,
    # lists, dicts) is not allocated through the traced allocator, so what
    # earlier code left on those lists moved the held bytes by up to 8 KB;
    # a full collection empties them, and a warm-up call makes the
    # first-call allocations before tracing
    def traced(per_flow):
        packets = [tcp_flow_packet(k, dport=1000 + f, payload=bytes(1000))
                   for k in range(per_flow) for f in range(20)]
        assemble_flows(packets, CFG)
        gc.collect()
        tracemalloc.start()
        try:
            flows = assemble_flows(packets, CFG)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [f.count for f in flows] == [per_flow] * 20
        return held, peak

    (short_held, short_peak), (long_held, long_peak) = traced(10), traced(100)
    assert short_held > 20 * CFG.packets_per_flow * 1000
    assert long_held < 1.05 * short_held, (short_held, long_held)
    assert long_peak < 1.05 * short_peak, (short_peak, long_peak)


def test_build_sample_default_dimensions():
    flow = one_flow([tcp_flow_packet(i) for i in range(7)])
    sample = build_sample(flow, CFG)
    assert CFG.flow_bytes == 1600
    assert CFG.n_strides == 400
    assert len(sample) == 1600
    assert strides_of(sample).shape == (400, 4)


def test_build_sample_single_packet_padding():
    flow = one_flow([tcp_flow_packet(0, payload=b"\xff" * 600)])
    strides = strides_of(build_sample(flow, CFG))
    # one packet fills strides 0..79; the remaining 320 stride rows are zero
    assert strides[:80].any()
    assert not strides[80:].any()


def test_stride_cutting_indexing_identity():
    # with a known ramp byte array, stride 1 must be bytes (4, 5, 6, 7)
    cfg = ReprConfig(packets_per_flow=1, header_bytes=0, payload_bytes=16,
                     stride_len=4, anonymize_ips=False)
    payload = bytes(range(16))
    packet = raw(eth_frame(ipv4_packet(udp_datagram(payload, 9, 10), 17), 0x0800))
    sample = build_sample(one_flow([packet], cfg), cfg)
    assert list(strides_of(sample, cfg)[1]) == [4, 5, 6, 7]


def test_round_trip_strides_equal_crop_pad_concat():
    packets = [tcp_flow_packet(i, payload=bytes([i]) * (20 * i)) for i in range(6)]
    sample = build_sample(one_flow(packets), CFG)
    expected = []
    for i in range(CFG.packets_per_flow):
        # the datagram with its addresses zeroed; 20-byte IP + 20-byte TCP
        anon = ipv4_packet(tcp_segment(bytes([i]) * (20 * i), 40000, 443), 6,
                           "0.0.0.0", "0.0.0.0")
        expected.append(crop_pad(anon[:40], anon[40:], CFG))
    assert sample == b"".join(expected)


def test_length_law_for_various_configs():
    for cfg in (CFG, ReprConfig(packets_per_flow=3, header_bytes=16,
                                payload_bytes=8, stride_len=6)):
        sample = build_sample(one_flow([tcp_flow_packet(0)], cfg), cfg)
        assert len(sample) == cfg.packets_per_flow * cfg.packet_bytes


def test_repr_config_validation():
    with pytest.raises(ConfigError):
        ReprConfig(stride_len=7)  # 1600 % 7 != 0
    with pytest.raises(ConfigError):
        ReprConfig(packets_per_flow=0)
    with pytest.raises(ConfigError):
        ReprConfig(header_bytes=0, payload_bytes=0)
    with pytest.raises(ConfigError, match="include_header and include_payload"):
        ReprConfig(include_header=False, include_payload=False)
    # a sample file's reader holds a flow as one record of under 2**31 bytes
    big = dict(packets_per_flow=1, header_bytes=0, stride_len=4)
    assert ReprConfig(payload_bytes=2**31 - 4, **big).flow_bytes == 2**31 - 4
    with pytest.raises(ConfigError, match="2147483648 is not below 2"):
        ReprConfig(payload_bytes=2**31, **big)
