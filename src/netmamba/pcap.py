"""Classic pcap reader (and a small writer for fixtures).

Only the original tcpdump format is handled: 24-byte global header, then
16-byte per-record headers. Byte order and timestamp resolution come from
the magic number. pcapng is out of scope and rejected by magic.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError, UnsupportedFormatError

MAGIC_US = 0xA1B2C3D4
MAGIC_NS = 0xA1B23C4D
LINKTYPE_ETHERNET = 1

# raw leading bytes -> (struct byte-order char, fraction-to-ns multiplier)
_MAGIC_TABLE = {
    struct.pack("<I", MAGIC_US): ("<", 1000),
    struct.pack(">I", MAGIC_US): (">", 1000),
    struct.pack("<I", MAGIC_NS): ("<", 1),
    struct.pack(">I", MAGIC_NS): (">", 1),
}


@dataclass(frozen=True)
class RawPacket:
    """One captured record: link-layer bytes plus capture metadata."""

    ts_sec: int
    ts_nsec: int
    link_bytes: bytes
    orig_len: int

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.ts_sec, self.ts_nsec)


def parse_capture(path) -> list[RawPacket]:
    """Read every record of a classic pcap file, in file order.

    Raises UnsupportedFormatError for unknown magics or non-Ethernet link
    types, ParseError (naming the byte offset) for truncation.
    """
    blob = Path(path).read_bytes()
    if len(blob) < 24:
        raise ParseError(f"{path}: truncated global header at offset 0 "
                         f"(need 24 bytes, have {len(blob)})")
    try:
        order, frac_to_ns = _MAGIC_TABLE[blob[:4]]
    except KeyError:
        raise UnsupportedFormatError(
            f"{path}: unknown capture magic {blob[:4].hex()}") from None
    linktype = struct.unpack(order + "I", blob[20:24])[0]
    if linktype != LINKTYPE_ETHERNET:
        raise UnsupportedFormatError(
            f"{path}: unsupported link type {linktype} (only Ethernet/1)")

    rec = struct.Struct(order + "IIII")
    packets: list[RawPacket] = []
    off = 24
    while off < len(blob):
        if off + 16 > len(blob):
            raise ParseError(f"{path}: truncated record header at offset {off}")
        ts_sec, ts_frac, incl_len, orig_len = rec.unpack_from(blob, off)
        off += 16
        if off + incl_len > len(blob):
            raise ParseError(
                f"{path}: truncated record at offset {off} "
                f"(declared {incl_len} bytes, {len(blob) - off} remain)")
        packets.append(RawPacket(
            ts_sec=ts_sec,
            ts_nsec=ts_frac * frac_to_ns,
            link_bytes=blob[off:off + incl_len],
            orig_len=orig_len,
        ))
        off += incl_len
    return packets


def write_pcap(path, packets) -> None:
    """Write a little-endian microsecond classic pcap (fixture helper)."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IHHiIII", MAGIC_US, 2, 4, 0, 0, 65535,
                             LINKTYPE_ETHERNET))
        for p in packets:
            fh.write(struct.pack("<IIII", p.ts_sec, p.ts_nsec // 1000,
                                 len(p.link_bytes), p.orig_len))
            fh.write(p.link_bytes)
