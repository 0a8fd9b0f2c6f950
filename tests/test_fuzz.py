"""Hypothesis fuzz of the capture-to-sample path on random and truncated
bytes: only the declared error types may escape ``parse_capture`` and
``read_samples``, ``parse_capture`` reads what the whole-file oracle reads
whatever its piece size, ``assemble_flows``/``build_sample`` never raise,
``classify_and_strip`` dissects every frame as the byte-at-a-time oracle
does, and ``assemble_flows`` keeps what an oracle that holds every frame's
datagram keeps."""

import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netmamba.data import HEADER_BYTES, MAGIC, VERSION, read_samples
from netmamba.errors import MalformedPacketError, ParseError, UnsupportedFormatError
from netmamba import pcap
from netmamba.pcap import MAGIC_NS, MAGIC_US, RawPacket, parse_capture
from netmamba.traffic import (
    AssemblyStats, Datagram, FiveTuple, ReprConfig, assemble_flows,
    build_sample, classify_and_strip,
)

from helpers import (
    ReadSpy, eth_frame, ipv4_packet, ipv6_packet, raw, reference_assemble,
    read_records, reference_dissect, reference_parse_capture, tcp_segment,
    udp_datagram,
)

PORTS = st.one_of(st.sampled_from([53, 67, 68, 443, 546, 547]),
                  st.integers(0, 65535))
# IPv6 extension headers the dissector walks: hop-by-hop, routing,
# fragment, destination options, authentication
V6_EXT = (0, 43, 44, 60, 51)


@st.composite
def transports(draw):
    """(protocol, transport header + payload)."""
    proto = draw(st.sampled_from([6, 17, 1]))
    payload = draw(st.binary(max_size=24))
    sport, dport = draw(PORTS), draw(PORTS)
    if proto == 6:
        options = bytes(4 * draw(st.integers(0, 3)))
        return proto, tcp_segment(payload, sport, dport, options=options)
    if proto == 17:
        return proto, udp_datagram(payload, sport, dport)
    return proto, payload


@st.composite
def ipv6_chains(draw, proto: int):
    """(first next-header value, extension chain ending in ``proto``)."""
    kinds = draw(st.lists(st.sampled_from(V6_EXT), max_size=3))
    chain = b""
    for kind, nxt in zip(kinds, kinds[1:] + [proto]):
        units = draw(st.integers(0, 2))
        if kind == 44:
            size = 8
        elif kind == 51:
            size = (units + 2) * 4
        else:
            size = (units + 1) * 8
        chain += bytes([nxt, units]) + bytes(size - 2)
    return (kinds[0] if kinds else proto), chain


@st.composite
def frames(draw):
    """Random bytes, or an Ethernet/IP/transport frame that may carry a
    trailer after the datagram, may be cut at any byte and may have one byte
    overwritten."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=96))
    proto, transport = draw(transports())
    if draw(st.booleans()):
        ip = ipv4_packet(transport, proto,
                         options=bytes(4 * draw(st.integers(0, 2))))
        ethertype = 0x0800
    else:
        first, chain = draw(ipv6_chains(proto))
        ip = ipv6_packet(chain + transport, first)
        ethertype = 0x86DD
    if draw(st.integers(0, 5)) == 0:
        ethertype = draw(st.sampled_from([0x0806, 0x8100, 0x88A8, 0x86DD]))
    vlans = draw(st.lists(st.integers(0, 0xFFFF), max_size=2))
    frame = bytearray(eth_frame(ip, ethertype, vlan_tcis=vlans))
    if draw(st.booleans()):
        frame += draw(st.binary(max_size=8))     # Ethernet padding or FCS
    if draw(st.booleans()):
        frame = frame[:draw(st.integers(0, len(frame)))]
    if frame and draw(st.booleans()):
        frame[draw(st.integers(0, len(frame) - 1))] = draw(st.integers(0, 255))
    return bytes(frame)


@settings(max_examples=400, deadline=None)
@given(st.lists(frames(), max_size=12), st.booleans(), st.booleans())
def test_assemble_and_build_never_raise(frame_list, drop_dhcp, anonymize_ips):
    cfg = ReprConfig(drop_dhcp=drop_dhcp, anonymize_ips=anonymize_ips)
    packets = [raw(f, ts_sec=i) for i, f in enumerate(frame_list)]
    stats = AssemblyStats()
    flows = assemble_flows(packets, cfg, stats)
    assert (stats.kept_packets + stats.skipped_packets
            + stats.malformed_packets) == len(packets)
    assert sum(flow.count for flow in flows) == stats.kept_packets
    for flow in flows:
        assert 1 <= len(flow.packets) <= min(flow.count, cfg.packets_per_flow)
        assert len(build_sample(flow, cfg)) == cfg.flow_bytes


@settings(max_examples=1000, deadline=None)
@given(frames(), st.booleans())
# an IPv6 frame cut one byte into its hop-by-hop header
@example(eth_frame(ipv6_packet(bytes(8), 0), 0x86DD)[:55], True)
def test_dissection_matches_the_byte_at_a_time_oracle(frame, drop_dhcp):
    packet = raw(frame, ts_sec=3, ts_nsec=7)
    cfg = ReprConfig(drop_dhcp=drop_dhcp)
    try:
        expected = reference_dissect(packet, drop_dhcp)
    except MalformedPacketError as exc:
        with pytest.raises(MalformedPacketError) as got:
            classify_and_strip(packet, cfg)
        assert str(got.value) == str(exc)
        return
    dissected = classify_and_strip(packet, cfg)
    if expected is None:
        assert dissected is None
        return
    key, start, stop, header_len = dissected
    assert (key, Datagram((3, 7), frame[start:stop], header_len)) == expected
    assert type(key) is tuple and hash(key) == hash(expected[0])
    assert [type(v) for v in (*key, start, stop, header_len)] == [
        bytes, int, bytes, int, int, int, int, int]
    # the frame is not copied: the only bytes returned are the addresses
    assert len(key[0]) <= 16 and len(key[2]) <= 16


@settings(max_examples=400, deadline=None)
@given(st.lists(frames(), min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2),
                          st.integers(0, 2)), max_size=16),
       st.integers(1, 4), st.booleans())
def test_assembly_matches_the_every_datagram_oracle(pool, events, m, drop_dhcp):
    # each packet is one of a few frames at one of a few times, so flows
    # repeat, and capture times tie and go out of order
    cfg = ReprConfig(packets_per_flow=m, drop_dhcp=drop_dhcp)
    packets = [raw(pool[i % len(pool)], ts_sec=sec, ts_nsec=nsec)
               for i, sec, nsec in events]
    stats = AssemblyStats()
    flows = assemble_flows(packets, cfg, stats)
    expected, expected_stats = reference_assemble(packets, cfg)
    assert flows == expected
    assert stats == expected_stats
    for flow in flows:
        assert type(flow.key) is FiveTuple
        assert all(type(d) is Datagram and type(d.ip_bytes) is bytes
                   for d in flow.packets)


@st.composite
def captures(draw):
    """Random bytes, or a classic pcap with random records that may be cut
    at any byte and may have one byte overwritten."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=96))
    order = draw(st.sampled_from("<>"))
    magic = draw(st.sampled_from([MAGIC_US, MAGIC_NS]))
    linktype = draw(st.sampled_from([1, 1, 1, 101]))
    blob = bytearray(struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 65535,
                                 linktype))
    for record in draw(st.lists(st.binary(max_size=40), max_size=4)):
        blob += struct.pack(order + "IIII", draw(st.integers(0, 2**32 - 1)),
                            draw(st.integers(0, 999_999)), len(record),
                            len(record)) + record
    if draw(st.booleans()):
        blob = blob[:draw(st.integers(0, len(blob)))]
    if blob and draw(st.booleans()):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    return bytes(blob)


@settings(max_examples=300, deadline=None)
@given(captures())
def test_parse_capture_raises_only_declared_errors(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.pcap"
        path.write_bytes(blob)
        try:
            packets = read_records(path)
        except (ParseError, UnsupportedFormatError):
            return
    assert all(len(p.link_bytes) <= len(blob) for p in packets)


def outcome(read, path):
    """``read(path)``, or the type and message of the declared error it
    raises."""
    try:
        return read(path)
    except (ParseError, UnsupportedFormatError) as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(captures(), st.integers(1, 48))
@example(struct.pack("<IHHiIIIIIII", MAGIC_US, 2, 4, 0, 0, 65535, 1, 0, 0, 2,
                     2) + b"ab" + b"\0\0", 5)
def test_streamed_capture_matches_the_whole_file_oracle(blob, piece):
    # pieces of a few bytes: records straddle pieces and some are longer
    # than a piece, as a long record is on a 1 MiB piece; no read asks for
    # more than a piece
    spy = ReadSpy()
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(pcap, "_READ_PIECE", piece)
        patch.setattr(pcap, "open", spy, raising=False)
        path = Path(tmp) / "fuzz.pcap"
        path.write_bytes(blob)
        expected = outcome(reference_parse_capture, path)
        got = outcome(read_records, path)
        assert got == expected
        if isinstance(expected, list):
            assert all(type(p) is RawPacket and type(p.link_bytes) is bytes
                       for p in got)
            expected = len(expected)
        assert outcome(lambda p: len(parse_capture(p)), path) == expected
    assert all(0 < size <= max(piece, 24) for size in spy.sizes), spy.sizes


@st.composite
def stride_files(draw):
    """Random bytes after the NMSTRIDE magic, or a header of small or
    extreme field values over random records, either of which may be cut at
    any byte and may have one byte overwritten."""
    if draw(st.integers(0, 2)) == 0:
        return MAGIC + draw(st.binary(max_size=64))
    fields = st.sampled_from([0, 1, 1, 2, 2, 3, 4, 2**31, 2**32 - 1])
    m, n_h, n_p, l_s, c = (draw(fields) for _ in range(5))
    count = draw(st.integers(0, 3))
    flow_bytes = m * (n_h + n_p)
    version = draw(st.sampled_from([VERSION, VERSION, 0, 2]))
    blob = bytearray(MAGIC + struct.pack("<H6I", version, m, n_h, n_p, l_s, c,
                                         count))
    if flow_bytes <= 64:
        blob += draw(st.binary(min_size=count * (4 + flow_bytes),
                               max_size=count * (4 + flow_bytes)))
    if draw(st.booleans()):
        blob = blob[:draw(st.integers(len(MAGIC), len(blob)))]
    if len(blob) > len(MAGIC) and draw(st.booleans()):
        blob[draw(st.integers(len(MAGIC), len(blob) - 1))] = draw(
            st.integers(0, 255))
    return bytes(blob)


@settings(max_examples=400, deadline=None)
@given(stride_files())
def test_read_samples_raises_only_parse_error(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.nmstride"
        path.write_bytes(blob)
        try:
            sf = read_samples(path)
        except ParseError:
            return
    count = len(sf.labels)
    assert sf.strides.shape == (count, sf.n_strides, sf.stride_len)
    # a file that reads back holds its geometry as a ReprConfig; replace
    # runs ReprConfig's validation again
    assert replace(sf.repr_cfg) == sf.repr_cfg
    assert len(blob) == HEADER_BYTES + count * (4 + sf.repr_cfg.flow_bytes)
