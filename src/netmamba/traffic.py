"""Flow assembly and the byte-balanced, anonymized, stride-cut representation.

Each frame is dissected once, by ``classify_and_strip``: strip the Ethernet
(and VLAN) framing, drop non-IP and optionally DHCP traffic, find where the
IP+transport header ends, and key the packet by its canonical 5-tuple. A
truncated or impossible header at any layer, the TCP/UDP header included,
makes the frame malformed; ``assemble_flows`` counts and skips it, and keeps
only what a sample reads: each flow's M earliest datagrams and a count of
all its packets. For those datagrams, ``build_sample`` zeroes the IP address
fields, splits header from payload at the stored length and crops/pads each
part to a fixed budget; the rows concatenate into the flow's sample bytes,
which a reader cuts into non-overlapping strides. A flow carries no label:
the caller knows its class, so one capture file's flows can become samples,
and be dropped, before the next file is read.

Most frames come after their flow's first M datagrams, so per frame only
their header fields are read, each layer by one precompiled ``struct`` call
at its offset in the frame, and the dissector returns a plain key tuple and
the datagram's bounds in the frame. A frame then costs a dict lookup, a
count and one time comparison. Only a kept datagram is copied out of its
frame into a ``Datagram``, and only a new flow builds its ``FiveTuple``;
both are ``NamedTuple``s, built, compared and hashed in C, where a
dataclass runs Python code for each.
"""

from __future__ import annotations

import struct
from bisect import insort
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .errors import ConfigError, MalformedPacketError, check_min
from .pcap import RawPacket

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD
VLAN_TPIDS = (0x8100, 0x88A8)
PROTO_TCP = 6
PROTO_UDP = 17
DHCP_PORTS = frozenset((67, 68, 546, 547))
# IPv6 extension headers counted as part of the packet header
_V6_EXT = frozenset((0, 43, 44, 60, 51))
# One read per header layer, at an offset into the frame: IPv4's
# version/IHL byte, total length, protocol and addresses; IPv6's payload
# length, next header and addresses; the ports, and TCP's data-offset byte.
_IPV4 = struct.Struct(">BxH5xB2x4s4s").unpack_from
_IPV6 = struct.Struct(">4xHBx16s16s").unpack_from
_TCP = struct.Struct(">HH8xB").unpack_from
_UDP = struct.Struct(">HH").unpack_from
_new = tuple.__new__   # builds a NamedTuple from a tuple in C


class FiveTuple(NamedTuple):
    """Canonical conversation key: endpoint (ip_a, port_a) sorts <= (ip_b,
    port_b), so both directions map to the same tuple."""

    ip_a: bytes
    port_a: int
    ip_b: bytes
    port_b: int
    protocol: int


class Datagram(NamedTuple):
    """One kept packet: capture time (seconds, nanoseconds), the IP
    datagram, and the length of its IP+transport header."""

    time: tuple[int, int]
    ip_bytes: bytes
    header_len: int


@dataclass(slots=True)
class FlowRecord:
    """One flow: its M earliest datagrams by (capture time, file order), and
    the number of its packets, kept or not."""

    key: FiveTuple
    packets: list[Datagram]
    count: int


@dataclass(frozen=True)
class ReprConfig:
    packets_per_flow: int = 5     # M
    header_bytes: int = 80        # N_h
    payload_bytes: int = 240      # N_p
    stride_len: int = 4           # L_s
    anonymize_ips: bool = True
    include_header: bool = True
    include_payload: bool = True
    drop_dhcp: bool = True

    def __post_init__(self):
        for key, low in (("packets_per_flow", 1), ("header_bytes", 0),
                         ("payload_bytes", 0), ("stride_len", 1)):
            check_min(key, getattr(self, key), low)
        if self.header_bytes + self.payload_bytes < 1:
            raise ConfigError("need at least one byte per packet")
        if not (self.include_header or self.include_payload):
            raise ConfigError("include_header and include_payload are both "
                              "false, so every sample would be all zeros")
        # numpy's limit on a record's subarray length, which a sample file's
        # reader needs
        if self.flow_bytes >= 2**31:
            raise ConfigError(f"flow byte length {self.flow_bytes} is not "
                              f"below 2**31")
        if self.flow_bytes % self.stride_len:
            raise ConfigError(
                f"flow byte length {self.flow_bytes} is not divisible by "
                f"stride_len {self.stride_len}")

    @property
    def packet_bytes(self) -> int:
        return self.header_bytes + self.payload_bytes

    @property
    def flow_bytes(self) -> int:
        """L_b = M * (N_h + N_p)."""
        return self.packets_per_flow * self.packet_bytes

    @property
    def n_strides(self) -> int:
        """N_s = L_b / L_s."""
        return self.flow_bytes // self.stride_len


@dataclass
class AssemblyStats:
    kept_packets: int = 0
    skipped_packets: int = 0      # non-IP ethertypes and filtered DHCP
    malformed_packets: int = 0


def classify_and_strip(packet: RawPacket, cfg: ReprConfig
                       ) -> tuple[tuple, int, int, int] | None:
    """Dissect one frame: ``(key, start, stop, header_len)``, or None for
    non-IP and filtered DHCP traffic. ``key`` is the canonical 5-tuple as a
    plain tuple, equal to (and hashing as) the ``FiveTuple`` of its fields;
    ``packet.link_bytes[start:stop]`` is the IP datagram, and ``header_len``
    its IP+transport header length. Nothing is copied. Raises
    MalformedPacketError for any header, from Ethernet to TCP/UDP, that is
    truncated or declares an impossible length. The datagram ends at its
    declared IP length, so Ethernet padding or a trailer after it is not
    payload. Offsets and lengths in the errors count from the start of the
    IP header."""
    data = packet.link_bytes
    stop = len(data)
    if stop < 14:
        raise MalformedPacketError(
            f"packet of {stop} bytes is shorter than an Ethernet header")
    ip = 14
    ethertype = data[12] << 8 | data[13]
    while ethertype in VLAN_TPIDS:
        ip += 4
        if ip > stop:
            raise MalformedPacketError("truncated VLAN tag chain")
        ethertype = data[ip - 2] << 8 | data[ip - 1]
    if ethertype != ETHERTYPE_IPV4 and ethertype != ETHERTYPE_IPV6:
        return None
    size = stop - ip
    version = data[ip] >> 4 if size else None
    if version == 4:
        if size < 20:
            raise MalformedPacketError("IPv4 packet shorter than 20 bytes")
        ver_ihl, length_field, proto, src, dst = _IPV4(data, ip)
        t_off = (ver_ihl & 0x0F) * 4
        if t_off < 20:
            raise MalformedPacketError(f"IPv4 IHL of {t_off} bytes is invalid")
        if t_off > size:
            raise MalformedPacketError(
                f"IPv4 header length {t_off} exceeds packet of {size}")
        declared = length_field                    # the total length
    elif version == 6:
        if size < 40:
            raise MalformedPacketError("IPv6 packet shorter than 40 bytes")
        length_field, proto, src, dst = _IPV6(data, ip)
        declared = 40 + length_field               # 40 + the payload length
        proto, t_off = _transport_offset(data, ip, proto)
    elif version is None:
        raise MalformedPacketError("empty IP packet")
    else:
        raise MalformedPacketError(f"IP version nibble is {version}, not 4 or 6")
    sport = dport = 0
    if proto == PROTO_TCP:
        if t_off + 13 > size:
            raise MalformedPacketError("TCP header truncated before data offset")
        sport, dport, doff = _TCP(data, ip + t_off)
        doff = (doff >> 4) * 4
        if doff < 20:
            raise MalformedPacketError(f"TCP data offset of {doff} bytes is invalid")
        end = t_off + doff
    elif proto == PROTO_UDP:
        end = t_off + 8
    else:
        end = t_off
    if end > size:
        raise MalformedPacketError(
            f"declared header length {end} exceeds packet of {size}")
    if proto == PROTO_UDP:
        sport, dport = _UDP(data, ip + t_off)
        if cfg.drop_dhcp and (sport in DHCP_PORTS or dport in DHCP_PORTS):
            return None
    # a zero field (TSO, jumbograms) or a length past the capture keeps the
    # bytes as captured; a cut never reaches into the header
    if length_field and end <= declared < size:
        stop = ip + declared
    if src < dst or (src == dst and sport <= dport):
        return (src, sport, dst, dport, proto), ip, stop, end
    return (dst, dport, src, sport, proto), ip, stop, end


def anonymize(ip_bytes: bytes, cfg: ReprConfig) -> bytes:
    """Zero the source and destination address fields (IPv4 offsets 12..19,
    IPv6 offsets 8..39) of a datagram that ``classify_and_strip`` accepted;
    identity when anonymization is off."""
    if not cfg.anonymize_ips:
        return ip_bytes
    if ip_bytes[0] >> 4 == 4:
        return ip_bytes[:12] + bytes(8) + ip_bytes[20:]
    return ip_bytes[:8] + bytes(32) + ip_bytes[40:]


def _transport_offset(data: bytes, start: int, proto: int) -> tuple[int, int]:
    """(protocol, offset of the transport header from ``start``) past the
    extension headers of the IPv6 datagram at ``start``, whose fixed header
    names ``proto`` next; the extension headers count as header."""
    size = len(data) - start
    off = 40
    while proto in _V6_EXT:
        if off + 2 > size:
            raise MalformedPacketError(
                f"IPv6 extension chain exceeds packet at offset {off}")
        nxt, units = data[start + off], data[start + off + 1]
        if proto == 44:          # fragment header: fixed 8 bytes
            ext_len = 8
        elif proto == 51:        # AH counts in 4-byte units
            ext_len = (units + 2) * 4
        else:
            ext_len = (units + 1) * 8
        off += ext_len
        if off > size:
            raise MalformedPacketError(
                f"IPv6 extension header length exceeds packet at offset {off}")
        proto = nxt
    return proto, off


def crop_pad(header: bytes, payload: bytes, cfg: ReprConfig) -> bytes:
    """Fixed byte budget per packet: header cropped/zero-padded to N_h, then
    payload to N_p. The include_* toggles blank a region entirely."""
    header = header[:cfg.header_bytes] if cfg.include_header else b""
    payload = payload[:cfg.payload_bytes] if cfg.include_payload else b""
    return (header.ljust(cfg.header_bytes, b"\0")
            + payload.ljust(cfg.payload_bytes, b"\0"))


_time = itemgetter(0)  # a Datagram's capture time


def assemble_flows(packets, cfg: ReprConfig,
                   stats: AssemblyStats | None = None) -> list[FlowRecord]:
    """Group surviving packets by canonical 5-tuple, first-seen order. Each
    flow keeps its M earliest datagrams, the first M of a stable sort by
    capture time, and counts every packet. Malformed packets are skipped and
    counted, never fatal. ``stats`` is added to only once ``packets`` is
    exhausted, so an iterable that raises part-way leaves it as it was."""
    if stats is None:
        stats = AssemblyStats()
    m = cfg.packets_per_flow
    flows: dict[tuple, FlowRecord] = {}
    # bound per call, so a wrapped module attribute is what runs
    dissect, get = classify_and_strip, flows.get
    malformed = skipped = 0
    for packet in packets:
        try:
            dissected = dissect(packet, cfg)
        except MalformedPacketError:
            malformed += 1
            continue
        if dissected is None:
            skipped += 1
            continue
        key, start, stop, end = dissected
        time = packet[:2]   # (seconds, nanoseconds)
        flow = get(key)
        if flow is None:
            datagram = (time, packet.link_bytes[start:stop], end)
            flows[key] = FlowRecord(_new(FiveTuple, key),
                                    [_new(Datagram, datagram)], 1)
            continue
        flow.count += 1
        kept = flow.packets
        # in time order a packet costs one comparison: it goes last, or is
        # past the first M; an equal time sorts after the kept ones. Only a
        # datagram that is kept is copied out of its frame
        if time < kept[-1][0]:
            insort(kept, _new(Datagram,
                              (time, packet.link_bytes[start:stop], end)),
                   key=_time)
            if len(kept) > m:
                kept.pop()
        elif len(kept) < m:
            kept.append(_new(Datagram,
                             (time, packet.link_bytes[start:stop], end)))
    stats.malformed_packets += malformed
    stats.skipped_packets += skipped
    stats.kept_packets += sum(flow.count for flow in flows.values())
    return list(flows.values())


def build_sample(flow: FlowRecord, cfg: ReprConfig) -> bytes:
    """The flow's L_b sample bytes: the first M datagrams, anonymized,
    cropped and concatenated. Flows shorter than M packets are padded with
    all-zero packet slots. Only a datagram's header and its first N_p
    payload bytes are copied."""
    rows = b"".join([
        crop_pad(anonymize(ip_bytes[:end], cfg),
                 ip_bytes[end:end + cfg.payload_bytes], cfg)
        for _, ip_bytes, end in flow.packets[:cfg.packets_per_flow]])
    return rows.ljust(cfg.flow_bytes, b"\0")
