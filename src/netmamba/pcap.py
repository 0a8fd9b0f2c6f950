"""Classic pcap reader (and a small writer for fixtures).

Only the original tcpdump format is handled: 24-byte global header, then
16-byte per-record headers. Byte order and timestamp resolution come from
the magic number. pcapng is out of scope and rejected by magic.

A record is a ``NamedTuple``: extraction builds one per frame, and a tuple
is built in C, where a dataclass runs Python code.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import NamedTuple

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


class RawPacket(NamedTuple):
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

    unpack = struct.Struct(order + "IIII").unpack_from
    packets: list[RawPacket] = []
    append = packets.append
    new = tuple.__new__
    end = len(blob)
    off = 24
    try:
        while off < end:
            # raises struct.error when fewer than 16 bytes remain
            ts_sec, ts_frac, incl_len, orig_len = unpack(blob, off)
            start = off + 16
            off = start + incl_len
            if off > end:
                raise ParseError(
                    f"{path}: truncated record at offset {start} "
                    f"(declared {incl_len} bytes, {end - start} remain)")
            append(new(RawPacket, (ts_sec, ts_frac * frac_to_ns,
                                   blob[start:off], orig_len)))
    except struct.error:
        raise ParseError(
            f"{path}: truncated record header at offset {off}") from None
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
