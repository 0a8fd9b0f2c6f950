"""Capture-file parser checks; every fixture is packed byte-by-byte."""

import struct
from types import SimpleNamespace

import pytest

from netmamba import pcap
from netmamba.errors import ParseError, UnsupportedFormatError
from netmamba.pcap import RawPacket, parse_capture, write_pcap

from helpers import read_records, reference_parse_capture


def global_header(magic=0xA1B2C3D4, order="<", linktype=1) -> bytes:
    return struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 65535, linktype)


def record(data: bytes, ts_sec=0, ts_frac=0, order="<", incl=None) -> bytes:
    incl = len(data) if incl is None else incl
    return struct.pack(order + "IIII", ts_sec, ts_frac, incl, len(data)) + data


def test_minimal_single_record_file(tmp_path):
    payload = bytes(range(60))
    path = tmp_path / "one.pcap"
    path.write_bytes(global_header() + record(payload, ts_sec=7, ts_frac=123))
    packets = read_records(path)
    assert len(packets) == 1
    assert packets[0].link_bytes == payload
    assert packets[0].ts_sec == 7
    assert packets[0].ts_nsec == 123_000  # microsecond magic
    assert packets[0].orig_len == 60


def test_empty_capture(tmp_path):
    path = tmp_path / "empty.pcap"
    path.write_bytes(global_header())
    assert read_records(path) == []


def test_truncated_record_names_offset(tmp_path):
    path = tmp_path / "short.pcap"
    path.write_bytes(global_header() + record(bytes(10), incl=50))
    with pytest.raises(ParseError, match="offset 40"):
        read_records(path)


def test_truncated_record_header(tmp_path):
    path = tmp_path / "hdr.pcap"
    path.write_bytes(global_header() + b"\x00" * 7)
    with pytest.raises(ParseError, match="offset 24"):
        read_records(path)


def test_truncated_global_header(tmp_path):
    path = tmp_path / "tiny.pcap"
    path.write_bytes(b"\xd4\xc3\xb2\xa1xx")
    with pytest.raises(ParseError, match="offset 0"):
        parse_capture(path)


@pytest.mark.parametrize("cut", [0, 5, 20], ids=["at-a-record", "in-a-header",
                                               "in-a-record"])
def test_capture_that_shrinks_while_read_ends_where_its_reads_end(
        tmp_path, monkeypatch, cut):
    # the size taken when the file was opened is a megabyte past its end
    path = tmp_path / "shrunk.pcap"
    path.write_bytes(global_header() + record(bytes(10)) + record(bytes(30))[:cut])
    try:
        expected = reference_parse_capture(path)
    except ParseError as exc:
        expected = str(exc)
    monkeypatch.setattr(pcap, "os", SimpleNamespace(
        fstat=lambda fd: SimpleNamespace(st_size=2**20)))
    monkeypatch.setattr(pcap, "_READ_PIECE", 8)
    try:
        assert read_records(path) == expected
    except ParseError as exc:
        assert str(exc) == expected


def test_capture_that_grows_while_read_ends_at_its_size_when_opened(
        tmp_path, monkeypatch):
    path = tmp_path / "grown.pcap"
    path.write_bytes(global_header() + record(bytes(10)) + record(bytes(30)))
    monkeypatch.setattr(pcap, "os", SimpleNamespace(
        fstat=lambda fd: SimpleNamespace(st_size=24 + 16 + 10)))
    assert read_records(path) == [RawPacket(0, 0, bytes(10), 10)]


def test_unknown_magic_rejected(tmp_path):
    path = tmp_path / "ng.pcap"
    path.write_bytes(b"\x0a\x0d\x0d\x0a" + bytes(20))  # pcapng block type
    with pytest.raises(UnsupportedFormatError, match="magic"):
        parse_capture(path)


def test_non_ethernet_link_type_rejected(tmp_path):
    path = tmp_path / "raw.pcap"
    path.write_bytes(global_header(linktype=101))
    with pytest.raises(UnsupportedFormatError, match="link type 101"):
        parse_capture(path)


def test_big_endian_and_nanosecond_magics(tmp_path):
    be = tmp_path / "be.pcap"
    be.write_bytes(global_header(order=">") + record(bytes(5), ts_frac=9, order=">"))
    packets = read_records(be)
    assert packets[0].ts_nsec == 9_000

    ns = tmp_path / "ns.pcap"
    ns.write_bytes(global_header(magic=0xA1B23C4D) + record(bytes(5), ts_frac=9))
    assert read_records(ns)[0].ts_nsec == 9


def test_write_then_parse_round_trip(tmp_path):
    packets = [
        RawPacket(ts_sec=1, ts_nsec=5000, link_bytes=bytes(range(30)), orig_len=30),
        RawPacket(ts_sec=2, ts_nsec=0, link_bytes=b"\xff" * 14, orig_len=90),
    ]
    path = tmp_path / "rt.pcap"
    write_pcap(path, packets)
    parsed = read_records(path)
    assert parsed == packets
    assert all(type(p) is RawPacket for p in parsed)
    assert [p.sort_key for p in parsed] == [(1, 5000), (2, 0)]


def test_raw_packet_fields_and_construction():
    # the fixture and benchmark generators build records by keyword
    packet = RawPacket(ts_sec=3, ts_nsec=7, link_bytes=b"\x01", orig_len=60)
    assert RawPacket._fields == ("ts_sec", "ts_nsec", "link_bytes", "orig_len")
    assert packet == RawPacket(3, 7, b"\x01", 60)
    assert packet.sort_key == (3, 7)
