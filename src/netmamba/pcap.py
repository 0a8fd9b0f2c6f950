"""Classic pcap reader (and a small writer for fixtures).

Only the original tcpdump format is handled: 24-byte global header, then
16-byte per-record headers. Byte order and timestamp resolution come from
the magic number. pcapng is out of scope and rejected by magic.

``parse_capture`` checks the global header and returns a ``Capture``, which
reads the records as it is iterated, in pieces of at most ``_READ_PIECE``
bytes. A file of any size is thus read in about one piece of memory, plus
whatever the caller keeps of its records. A record is a ``NamedTuple``:
extraction builds one per frame, and a tuple is built in C, where a
dataclass runs Python code.
"""

from __future__ import annotations

import os
import struct
from typing import Iterator, NamedTuple

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

# the most bytes one read asks for; the rest of a record cut by the end of a
# piece is read on its own, so one piece and one record are held at a time
_READ_PIECE = 1 << 20


class RawPacket(NamedTuple):
    """One captured record: link-layer bytes plus capture metadata."""

    ts_sec: int
    ts_nsec: int
    link_bytes: bytes
    orig_len: int

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.ts_sec, self.ts_nsec)


class Capture:
    """The records of one classic pcap file whose global header was checked.

    Each iteration reads the file from its first record and yields each
    one as a ``RawPacket``, in file order; a truncated record raises
    ParseError (naming its byte offset) when the iteration reaches it, after
    the records before it; the file ends at its size when it was opened.
    ``len()`` counts the records one iteration yields and raises the same
    error; ``list()`` asks it first.
    """

    def __init__(self, path, order: str, frac_to_ns: int):
        self.path = path
        self._unpack = struct.Struct(order + "IIII").unpack_from
        self._frac_to_ns = frac_to_ns

    def __iter__(self) -> Iterator[RawPacket]:
        path, unpack, frac_to_ns = self.path, self._unpack, self._frac_to_ns
        new = tuple.__new__
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            fh.seek(24)
            read = fh.read
            buf, at, off = b"", 24, 0   # buf holds the file from offset at
            while True:
                end = len(buf)
                try:
                    while True:
                        # raises struct.error when fewer than 16 bytes remain
                        ts_sec, ts_frac, incl_len, orig_len = unpack(buf, off)
                        start = off + 16
                        stop = start + incl_len
                        if stop > end:
                            break
                        yield new(RawPacket, (ts_sec, ts_frac * frac_to_ns,
                                              buf[start:stop], orig_len))
                        off = stop
                except struct.error:
                    stop, incl_len = off + 16, 0
                # buf[off:] is the head of the record at file offset head,
                # which ends at file offset tail
                head, tail = at + off, at + stop
                if tail > size:
                    if head == size:
                        return
                    raise _truncated(path, head, size, incl_len)
                # a record cut by the end of buf is completed on its own;
                # nothing past the size taken at open is read
                have = end - off
                want = tail - head if have else min(_READ_PIECE, size - head)
                pieces = [buf[off:]] if have else []
                del buf  # freed before the next piece is read
                while have < want:
                    piece = read(min(_READ_PIECE, want - have))
                    if not piece:  # the file shrank since it was opened
                        size = head + have
                        break
                    pieces.append(piece)
                    have += len(piece)
                buf, at, off = b"".join(pieces), head, 0

    def __len__(self) -> int:
        """The record count, from one iteration over the records."""
        return sum(1 for _ in self)


def _truncated(path, head: int, size: int, incl_len: int) -> ParseError:
    """The error for the record at file offset ``head`` of a file of
    ``size`` bytes that ends inside it."""
    if head + 16 > size:
        return ParseError(f"{path}: truncated record header at offset {head}")
    return ParseError(f"{path}: truncated record at offset {head + 16} "
                      f"(declared {incl_len} bytes, {size - head - 16} remain)")


def parse_capture(path) -> Capture:
    """Check a classic pcap file's global header and return its records,
    which are read as the ``Capture`` is iterated.

    Raises UnsupportedFormatError for unknown magics or non-Ethernet link
    types, ParseError (naming the byte offset) for truncation.
    """
    with open(path, "rb") as fh:
        blob = fh.read(24)
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
    return Capture(path, order, frac_to_ns)


def write_pcap(path, packets) -> None:
    """Write a little-endian microsecond classic pcap (fixture helper)."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IHHiIII", MAGIC_US, 2, 4, 0, 0, 65535,
                             LINKTYPE_ETHERNET))
        for p in packets:
            fh.write(struct.pack("<IIII", p.ts_sec, p.ts_nsec // 1000,
                                 len(p.link_bytes), p.orig_len))
            fh.write(p.link_bytes)
