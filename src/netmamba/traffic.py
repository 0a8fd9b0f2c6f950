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

``FiveTuple`` and ``Datagram``, built for every kept frame, are
``NamedTuple``s: a tuple is built, compared and hashed (a flow key is a dict
key) in C, where a dataclass runs Python code for each.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .errors import ConfigError, MalformedPacketError
from .pcap import RawPacket

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD
VLAN_TPIDS = (0x8100, 0x88A8)
PROTO_TCP = 6
PROTO_UDP = 17
DHCP_PORTS = frozenset((67, 68, 546, 547))
# IPv6 extension headers counted as part of the packet header
_V6_EXT = frozenset((0, 43, 44, 60, 51))


class FiveTuple(NamedTuple):
    """Canonical conversation key: endpoint (ip_a, port_a) sorts <= (ip_b,
    port_b), so both directions map to the same tuple."""

    ip_a: bytes
    port_a: int
    ip_b: bytes
    port_b: int
    protocol: int

    @classmethod
    def canonical(cls, src_ip: bytes, src_port: int, dst_ip: bytes,
                  dst_port: int, protocol: int) -> "FiveTuple":
        if src_ip < dst_ip or (src_ip == dst_ip and src_port <= dst_port):
            return tuple.__new__(cls, (src_ip, src_port, dst_ip, dst_port, protocol))
        return tuple.__new__(cls, (dst_ip, dst_port, src_ip, src_port, protocol))


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
        if self.packets_per_flow < 1:
            raise ConfigError("packets_per_flow must be >= 1")
        if self.header_bytes < 0 or self.payload_bytes < 0:
            raise ConfigError("byte budgets must be non-negative")
        if self.header_bytes + self.payload_bytes < 1:
            raise ConfigError("need at least one byte per packet")
        if self.stride_len < 1:
            raise ConfigError("stride_len must be >= 1")
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


def classify_and_strip(packet: RawPacket,
                       cfg: ReprConfig) -> tuple[FiveTuple, Datagram] | None:
    """Dissect one frame: its flow key and IP datagram, or None for non-IP
    and filtered DHCP traffic. Raises MalformedPacketError for any header,
    from Ethernet to TCP/UDP, that is truncated or declares an impossible
    length. The datagram ends at its declared IP length, so Ethernet padding
    or a trailer after it is not payload."""
    ts_sec, ts_nsec, data, _ = packet
    if len(data) < 14:
        raise MalformedPacketError(
            f"packet of {len(data)} bytes is shorter than an Ethernet header")
    off = 14
    ethertype = data[12] << 8 | data[13]
    while ethertype in VLAN_TPIDS:
        off += 4
        if off > len(data):
            raise MalformedPacketError("truncated VLAN tag chain")
        ethertype = data[off - 2] << 8 | data[off - 1]
    if ethertype != ETHERTYPE_IPV4 and ethertype != ETHERTYPE_IPV6:
        return None
    ip_bytes = data[off:]
    size = len(ip_bytes)
    version, proto, t_off = _transport_offset(ip_bytes)
    if proto == PROTO_TCP:
        if t_off + 13 > size:
            raise MalformedPacketError("TCP header truncated before data offset")
        doff = (ip_bytes[t_off + 12] >> 4) * 4
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
    sport = dport = 0
    if proto == PROTO_TCP or proto == PROTO_UDP:
        sport = ip_bytes[t_off] << 8 | ip_bytes[t_off + 1]
        dport = ip_bytes[t_off + 2] << 8 | ip_bytes[t_off + 3]
        if (cfg.drop_dhcp and proto == PROTO_UDP
                and (sport in DHCP_PORTS or dport in DHCP_PORTS)):
            return None
    if version == 4:
        length_field = declared = ip_bytes[2] << 8 | ip_bytes[3]  # total length
        src, dst = ip_bytes[12:16], ip_bytes[16:20]
    else:
        length_field = ip_bytes[4] << 8 | ip_bytes[5]    # payload length
        declared = 40 + length_field
        src, dst = ip_bytes[8:24], ip_bytes[24:40]
    # a zero field (TSO, jumbograms) or a length past the capture keeps the
    # bytes as captured; a cut never reaches into the header
    if length_field and end <= declared < size:
        ip_bytes = ip_bytes[:declared]
    key = FiveTuple.canonical(src, sport, dst, dport, proto)
    return key, tuple.__new__(Datagram, ((ts_sec, ts_nsec), ip_bytes, end))


def anonymize(ip_bytes: bytes, cfg: ReprConfig) -> bytes:
    """Zero the source and destination address fields (IPv4 offsets 12..19,
    IPv6 offsets 8..39); identity when anonymization is off."""
    if not cfg.anonymize_ips:
        return ip_bytes
    version = _ip_version(ip_bytes)
    if version == 4:
        if len(ip_bytes) < 20:
            raise MalformedPacketError("IPv4 packet shorter than 20 bytes")
        return ip_bytes[:12] + bytes(8) + ip_bytes[20:]
    if len(ip_bytes) < 40:
        raise MalformedPacketError("IPv6 packet shorter than 40 bytes")
    return ip_bytes[:8] + bytes(32) + ip_bytes[40:]


def _ip_version(ip_bytes: bytes) -> int:
    if not ip_bytes:
        raise MalformedPacketError("empty IP packet")
    version = ip_bytes[0] >> 4
    if version not in (4, 6):
        raise MalformedPacketError(f"IP version nibble is {version}, not 4 or 6")
    return version


def _transport_offset(ip_bytes: bytes) -> tuple[int, int, int]:
    """(IP version, protocol, offset of the transport header); IPv6
    extension headers are walked and counted as header."""
    version = _ip_version(ip_bytes)
    if version == 4:
        if len(ip_bytes) < 20:
            raise MalformedPacketError("IPv4 packet shorter than 20 bytes")
        ihl = (ip_bytes[0] & 0x0F) * 4
        if ihl < 20:
            raise MalformedPacketError(f"IPv4 IHL of {ihl} bytes is invalid")
        if ihl > len(ip_bytes):
            raise MalformedPacketError(
                f"IPv4 header length {ihl} exceeds packet of {len(ip_bytes)}")
        return 4, ip_bytes[9], ihl
    if len(ip_bytes) < 40:
        raise MalformedPacketError("IPv6 packet shorter than 40 bytes")
    proto = ip_bytes[6]
    off = 40
    while proto in _V6_EXT:
        if off + 2 > len(ip_bytes):
            raise MalformedPacketError(
                f"IPv6 extension chain exceeds packet at offset {off}")
        nxt = ip_bytes[off]
        if proto == 44:          # fragment header: fixed 8 bytes
            ext_len = 8
        elif proto == 51:        # AH counts in 4-byte units
            ext_len = (ip_bytes[off + 1] + 2) * 4
        else:
            ext_len = (ip_bytes[off + 1] + 1) * 8
        off += ext_len
        if off > len(ip_bytes):
            raise MalformedPacketError(
                f"IPv6 extension header length exceeds packet at offset {off}")
        proto = nxt
    return 6, proto, off


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
    counted, never fatal."""
    if stats is None:
        stats = AssemblyStats()
    m = cfg.packets_per_flow
    flows: dict[FiveTuple, FlowRecord] = {}
    malformed = skipped = 0
    for packet in packets:
        try:
            dissected = classify_and_strip(packet, cfg)
        except MalformedPacketError:
            malformed += 1
            continue
        if dissected is None:
            skipped += 1
            continue
        key, datagram = dissected
        flow = flows.get(key)
        if flow is None:
            flows[key] = FlowRecord(key, [datagram], 1)
            continue
        flow.count += 1
        kept = flow.packets
        # in time order a packet costs one comparison: it goes last, or is
        # past the first M; an equal time sorts after the kept ones
        if datagram.time < kept[-1].time:
            insort(kept, datagram, key=_time)
            if len(kept) > m:
                kept.pop()
        elif len(kept) < m:
            kept.append(datagram)
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
