"""End-to-end command surface: extract golden runs, train/evaluate flows,
config precedence, and exit codes."""

import hashlib
import json
import shutil
import struct
import tracemalloc
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from netmamba import checkpoint as ckpt
from netmamba import cli
from netmamba import config as cfgmod
from netmamba import model as nm
from netmamba import pcap
from netmamba import train
from netmamba.data import (
    StrideSample, read_samples, synthetic_samples, write_samples,
)
from netmamba.pcap import write_pcap
from netmamba.traffic import ReprConfig

from helpers import (
    ReadSpy, eth_frame, ipv4_packet, raw, tcp_segment, udp_datagram,
)

SMALL_CFG = """
packets_per_flow = 2
header_bytes = 24
payload_bytes = 8
stride_len = 4
d_enc = 16
e_enc = 32
depth_enc = 1
d_dec = 8
e_dec = 16
depth_dec = 1
state_dim = 4
dt_rank = 4
mask_ratio = 0.5
log_every = 5
"""

def build_pcap_tree(root, classes=("chat", "video"), files_per_class=12):
    """Two flows per file; class identity shows up in ports and payload."""
    for c, name in enumerate(classes):
        class_dir = root / name
        class_dir.mkdir(parents=True)
        for i in range(files_per_class):
            packets = []
            for flow in range(2):
                sport = 20000 + 1000 * c + 10 * i + flow
                dport = 443 if c == 0 else 8080
                for k in range(3):
                    payload = bytes([(c * 97 + 13 * j) % 256 for j in range(40)])
                    segment = tcp_segment(payload, sport, dport)
                    ip = ipv4_packet(segment, 6, f"10.0.{c}.{i + 1}", "10.9.9.9")
                    packets.append(raw(eth_frame(ip, 0x0800),
                                       ts_sec=i, ts_nsec=k * 1000 + flow))
            write_pcap(class_dir / f"capture_{i:02d}.pcap", packets)
    return root

@pytest.fixture()
def workspace(tmp_path):
    pcaps = build_pcap_tree(tmp_path / "pcaps")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG)
    return tmp_path, pcaps, cfg

def run(argv) -> int:
    return cli.main([str(a) for a in argv])

def test_extract_golden_determinism(workspace):
    tmp, pcaps, cfg = workspace
    out1, out2 = tmp / "out1", tmp / "out2"
    for out in (out1, out2):
        code = run(["extract", "--input", pcaps, "--output", out,
                    "--config", cfg, "--seed", 7])
        assert code == 0
    for name in ("train.nmstride", "val.nmstride", "test.nmstride",
                 "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest == {"0": "chat", "1": "video"}
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["classes"]["chat"]["flows_kept"] == 24
    sf = read_samples(out1 / "train.nmstride")
    assert sf.strides.shape[1:] == (16, 4)
    assert set(np.unique(sf.labels)) <= {0, 1}

# sha256 of every extract output for the workspace tree, computed before
# extraction kept only M datagrams per flow and split class by class: two
# runs of the same code agreeing cannot show a changed split or balance
# order, these can. The balanced run uses the small config, whose M = 2
# cuts each 3-packet flow.
GOLDEN_EXTRACTS = {
    "defaults": (["--seed", 7], {
        "train.nmstride": "65db2af8ab16ecb9be4630fee4ae8babd171f26812226333e6cc0999717f7604",
        "val.nmstride": "c29244470ba469daeb7e224bf56267727a105c2bfe3d221696393151af8060df",
        "test.nmstride": "a7c0b88d80a44f85203d0fe9dd363b91138615cb9cdad7ef0a2ac3fda7ad7803",
        "manifest.json": "f64b65cc923386fd73f4a683573d749923d29d39a21cabf2c421d3203ced54db",
        "summary.json": "e951d7676d916e992ad73df8a837ac95baece3598f33372204fa9748b812efb9",
    }),
    "balanced": (["--config", "SMALL_CFG", "--limit-lower", 1,
                  "--limit-upper", 10, "--min-packets", 2, "--seed", 5], {
        "train.nmstride": "eb96c0277013667634359666a9af1476e7de943f5fdfba1737ce8d3805e42fb9",
        "val.nmstride": "38aa7b7e75df368f8d78d08b5ca9e5e3c23bbabed69d255233456a5236d7c640",
        "test.nmstride": "c0a5b129b6e6eb0f1c4e505c9f701a5ef451cc55e239f49b8bc55395a074aaa6",
        "manifest.json": "f64b65cc923386fd73f4a683573d749923d29d39a21cabf2c421d3203ced54db",
        "summary.json": "c8780f3d2dbec604a9ba84c0ded23be45f6c915a532150dd844f43d824b0a8b1",
    }),
}

@pytest.mark.parametrize("run_name", sorted(GOLDEN_EXTRACTS))
def test_extract_outputs_match_pinned_digests(workspace, run_name):
    tmp, pcaps, cfg = workspace
    flags, digests = GOLDEN_EXTRACTS[run_name]
    flags = [cfg if flag == "SMALL_CFG" else flag for flag in flags]
    out = tmp / run_name
    assert run(["extract", "--input", pcaps, "--output", out] + flags) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in digests} == digests

def test_extract_no_header_zeroes_header_regions(workspace):
    tmp, pcaps, cfg = workspace
    out = tmp / "nohdr"
    assert run(["extract", "--input", pcaps, "--output", out,
                "--config", cfg, "--no-header", "--seed", 1]) == 0
    sf = read_samples(out / "train.nmstride")
    per_packet = sf.data.reshape(len(sf.data), 2, 32)
    assert not per_packet[:, :, :24].any()
    assert per_packet[:, :, 24:].any()

def test_extract_missing_input_dir(tmp_path):
    assert run(["extract", "--input", tmp_path / "nope",
                "--output", tmp_path / "out"]) == 2

def test_extract_zero_usable_flows(tmp_path):
    arp_dir = tmp_path / "pcaps" / "junk"
    arp_dir.mkdir(parents=True)
    write_pcap(arp_dir / "a.pcap", [raw(eth_frame(bytes(28), 0x0806))])
    assert run(["extract", "--input", tmp_path / "pcaps",
                "--output", tmp_path / "out"]) == 2

def test_extract_records_per_file_errors_and_continues(workspace):
    tmp, pcaps, cfg = workspace
    (pcaps / "chat" / "broken.pcap").write_bytes(b"\x00" * 30)
    out = tmp / "witherr"
    with pytest.warns(UserWarning, match="broken.pcap: .*unknown capture magic"):
        assert run(["extract", "--input", pcaps, "--output", out,
                    "--config", cfg, "--seed", 3]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["file_errors"]) == 1
    assert "broken.pcap" in summary["file_errors"][0]["file"]

SAMPLE_FILES = ("train.nmstride", "val.nmstride", "test.nmstride")

def extract_beside(workspace, add, name) -> tuple[dict, dict]:
    """Extracts the workspace tree and a copy of it that ``add(class_dir)``
    adds to; returns the copy's summary and whether each sample file of the
    copy equals the clean tree's."""
    tmp, pcaps, cfg = workspace
    shutil.copytree(pcaps, tmp / name)
    add(tmp / name / "chat")
    outs = {}
    for tree in (pcaps, tmp / name):
        outs[tree] = tmp / f"out-{tree.name}"
        assert run(["extract", "--input", tree, "--output", outs[tree],
                    "--config", cfg, "--seed", 3]) == 0
    clean, added = outs.values()
    same = {f: (clean / f).read_bytes() == (added / f).read_bytes()
            for f in SAMPLE_FILES}
    return json.loads((added / "summary.json").read_text()), same

def cut_capture(class_dir):
    # two flows of three packets, the file cut inside the last record: its
    # first five frames parse before the cut is reached
    packets = [raw(eth_frame(ipv4_packet(tcp_segment(bytes(40), 30000 + f, 443),
                                         6, "10.0.0.99"), 0x0800), ts_sec=k)
               for k in range(3) for f in range(2)]
    write_pcap(class_dir / "cut.pcap", packets)
    blob = (class_dir / "cut.pcap").read_bytes()
    (class_dir / "cut.pcap").write_bytes(blob[:-5])

def test_extract_drops_a_capture_cut_mid_record_whole(workspace):
    with pytest.warns(UserWarning, match="cut.pcap: .*truncated record"):
        summary, same = extract_beside(workspace, cut_capture, "cut")
    assert same == dict.fromkeys(SAMPLE_FILES, True)
    [error] = summary["file_errors"]
    assert error["file"].endswith("cut.pcap")
    assert "truncated record at offset" in error["error"]
    assert summary["classes"]["chat"]["flows_kept"] == 24

def test_extract_skips_a_directory_named_like_a_capture(workspace):
    def add(class_dir):
        (class_dir / "dir.pcap").mkdir()
        (class_dir / "dir.pcap" / "inner.pcap").write_bytes(b"")

    summary, same = extract_beside(workspace, add, "withdir")
    assert same == dict.fromkeys(SAMPLE_FILES, True)
    assert summary["file_errors"] == []

def test_extract_records_a_capture_that_fails_to_read(workspace, monkeypatch):
    # a read error part-way, after some records: the file adds no flow
    parse = cli.parse_capture

    def parse_capture(path):
        if path.name != "capture_03.pcap":
            return parse(path)

        def records():
            yield from parse(path)
            raise OSError(5, "Input/output error")

        return records()

    monkeypatch.setattr(cli, "parse_capture", parse_capture)
    tmp, pcaps, cfg = workspace
    with pytest.warns(UserWarning, match="capture_03.pcap: .*Input/output"):
        assert run(["extract", "--input", pcaps, "--output", tmp / "eio",
                    "--config", cfg]) == 0
    summary = json.loads((tmp / "eio" / "summary.json").read_text())
    assert [Path(e["file"]).name for e in summary["file_errors"]] == [
        "capture_03.pcap"] * 2   # one per class
    assert summary["classes"]["chat"]["flows_kept"] == 22

def test_extract_counts_truncated_transport_headers_as_malformed(tmp_path):
    class_dir = tmp_path / "pcaps" / "web"
    class_dir.mkdir(parents=True)
    segments = [tcp_segment(bytes([k + 1]) * 30, 40000, 443) for k in range(3)]
    good = [ipv4_packet(seg, 6, "10.0.0.1", "10.0.0.2") for seg in segments]
    # valid IPv4 headers; the TCP header stops after the ports, the UDP
    # header after 6 of its 8 bytes
    tcp_cut = ipv4_packet(tcp_segment(b"", 41000, 80), 6, "10.0.0.3")[:24]
    udp_cut = ipv4_packet(udp_datagram(b"", 5000, 53), 17, "10.0.0.4")[:26]
    frames = [good[0], tcp_cut, good[1], udp_cut, good[2]]
    write_pcap(class_dir / "a.pcap",
               [raw(eth_frame(ip, 0x0800), ts_sec=i) for i, ip in enumerate(frames)])
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="only 1 samples"):
        code = run(["extract", "--input", tmp_path / "pcaps", "--output", out])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["malformed_packets"] == 2
    assert summary["skipped_packets"] == 0
    assert summary["classes"]["web"] == {"flows_kept": 1, "flows_dropped": 0}
    # the good flow's row: each datagram with its addresses zeroed, the
    # 40-byte IP+TCP header padded to 80 bytes and the payload to 240
    expected = b""
    for seg in segments:
        anon = ipv4_packet(seg, 6, "0.0.0.0", "0.0.0.0")
        expected += anon[:40].ljust(80, b"\0") + anon[40:].ljust(240, b"\0")
    sf = read_samples(out / "train.nmstride")
    assert sf.labels.tolist() == [0]
    assert sf.data[0].tobytes() == expected.ljust(1600, b"\0")

def test_extract_memory_is_bounded_by_one_capture_file(tmp_path):
    # one class of 2 or 8 copies of a capture of 8 long flows: the flows of
    # each file become samples before the next file is read, so 6 more files
    # add only their 48 samples to the peak, not their 12k datagrams
    packets = [raw(eth_frame(ipv4_packet(tcp_segment(bytes(500), 40000 + f, 443),
                                         6), 0x0800), ts_sec=k, ts_nsec=f)
               for k in range(250) for f in range(8)]
    capture = tmp_path / "capture.pcap"
    write_pcap(capture, packets)
    file_bytes = capture.stat().st_size
    peaks = {}
    for copies in (2, 8):
        class_dir = tmp_path / f"x{copies}" / "web"
        class_dir.mkdir(parents=True)
        for i in range(copies):
            (class_dir / f"copy_{i}.pcap").write_bytes(capture.read_bytes())
        tracemalloc.start()
        try:
            assert run(["extract", "--input", class_dir.parent,
                        "--output", tmp_path / f"out{copies}"]) == 0
            peaks[copies] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8] < pcap._READ_PIECE + file_bytes / 4, (peaks, file_bytes)
    assert peaks[8] - peaks[2] < file_bytes / 4, (peaks, file_bytes)

def test_extract_memory_is_flat_in_the_capture_size(tmp_path, monkeypatch):
    # one capture of 8 long flows (its run also makes the first extract's
    # imports), then one whose flows hold 10 times the packets: records are
    # read a piece at a time and only the kept datagrams outlive their
    # piece, so the peak holds one piece, not the file
    spy = ReadSpy()
    monkeypatch.setattr(pcap, "open", spy, raising=False)
    peaks, file_bytes = {}, {}
    for times in (1, 10):
        class_dir = tmp_path / f"x{times}" / "web"
        class_dir.mkdir(parents=True)
        write_pcap(class_dir / "capture.pcap", [
            raw(eth_frame(ipv4_packet(tcp_segment(bytes(500), 40000 + f, 443),
                                      6), 0x0800), ts_sec=k, ts_nsec=f)
            for k in range(250 * times) for f in range(8)])
        file_bytes[times] = (class_dir / "capture.pcap").stat().st_size
        tracemalloc.start()
        try:
            assert run(["extract", "--input", class_dir.parent,
                        "--output", tmp_path / f"out{times}"]) == 0
            peaks[times] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert file_bytes[10] > 10 * pcap._READ_PIECE
    assert peaks[10] < pcap._READ_PIECE + 256 * 1024, (peaks, file_bytes)
    assert all(0 < size <= pcap._READ_PIECE for size in spy.sizes), spy.sizes

def test_extract_balance_limits(workspace):
    tmp, pcaps, cfg = workspace
    out = tmp / "balanced"
    assert run(["extract", "--input", pcaps, "--output", out, "--config", cfg,
                "--limit-lower", 1, "--limit-upper", 10, "--seed", 5]) == 0
    summary = json.loads((out / "summary.json").read_text())
    for entry in summary["classes"].values():
        assert entry["flows_after_balance"] == 10

def test_extract_memory_is_bounded_by_one_class(tmp_path):
    # 2 or 8 classes of one capture of 300 one-packet flows each: a class is
    # written before the next is read, so 6 more classes add their summary
    # entries to the peak, not their 1800 rows of 1600 bytes
    packets = [raw(eth_frame(ipv4_packet(tcp_segment(bytes(400), 1024 + f, 443),
                                         6), 0x0800), ts_sec=f)
               for f in range(300)]
    peaks = {}
    for n_classes in (2, 8):
        root = tmp_path / f"c{n_classes}"
        for c in range(n_classes):
            (root / f"class_{c}").mkdir(parents=True)
            write_pcap(root / f"class_{c}" / "a.pcap", packets)
        tracemalloc.start()
        try:
            assert run(["extract", "--input", root,
                        "--output", tmp_path / f"out{n_classes}"]) == 0
            peaks[n_classes] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    class_rows = 300 * ReprConfig().flow_bytes
    assert peaks[2] > class_rows
    assert peaks[8] - peaks[2] < class_rows / 4, (peaks, class_rows)

@pytest.mark.parametrize("flags", [[], ["--limit-lower", 50]],
                         ids=["no-flows", "every-class-below-the-limit"])
def test_extract_without_usable_flows_leaves_no_outputs(workspace, capsys,
                                                        flags):
    tmp, pcaps, _ = workspace
    if not flags:  # a tree whose only frame is ARP
        pcaps = tmp / "arp"
        (pcaps / "junk").mkdir(parents=True)
        write_pcap(pcaps / "junk" / "a.pcap", [raw(eth_frame(bytes(28), 0x0806))])
    out = tmp / "out"
    assert run(["extract", "--input", pcaps, "--output", out] + flags) == 2
    assert "no usable flows" in capsys.readouterr().err
    assert list(out.glob("*")) == []

def test_extract_failing_midway_keeps_the_previous_outputs(workspace,
                                                           monkeypatch):
    tmp, pcaps, cfg = workspace
    out = tmp / "out"
    assert run(["extract", "--input", pcaps, "--output", out, "--config", cfg,
                "--seed", 7]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    build = cli.traffic.build_sample

    def build_sample(flow, cfg):
        if flow.key.ip_a.startswith(bytes([10, 0, 1])):  # the second class
            raise RuntimeError("interrupted")
        return build(flow, cfg)

    monkeypatch.setattr(cli.traffic, "build_sample", build_sample)
    with pytest.raises(RuntimeError, match="interrupted"):
        run(["extract", "--input", pcaps, "--output", out, "--config", cfg,
             "--seed", 8])
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before

def refuses_before_reading(workspace, monkeypatch, capsys, argv) -> str:
    """Runs ``extract`` over the workspace tree with ``argv`` added, which
    must exit 2 before any capture is read or the output directory made;
    returns standard error."""
    tmp, pcaps, _ = workspace

    def parse_capture(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "parse_capture", parse_capture)
    out = tmp / "out"
    assert run(["extract", "--input", pcaps, "--output", out] + argv) == 2
    assert not out.exists()
    return capsys.readouterr().err


def test_extract_refuses_inverted_limits_before_reading_a_capture(
        workspace, monkeypatch, capsys):
    err = refuses_before_reading(workspace, monkeypatch, capsys,
                                 ["--limit-lower", 10, "--limit-upper", 5])
    assert "lower limit 10 exceeds upper limit 5" in err


def test_extract_refuses_no_header_and_no_payload(workspace, monkeypatch,
                                                  capsys):
    # both regions blanked would write all-zero samples
    err = refuses_before_reading(workspace, monkeypatch, capsys,
                                 ["--no-header", "--no-payload"])
    assert "include_header and include_payload" in err


def test_extract_refuses_flows_its_reader_refuses(workspace, monkeypatch,
                                                  capsys):
    # 8388608 packets of 320 bytes make 2**31 + 2**29 bytes per flow
    tmp = workspace[0]
    huge = tmp / "huge.cfg"
    huge.write_text("packets_per_flow = 8388608\n")
    err = refuses_before_reading(workspace, monkeypatch, capsys,
                                 ["--config", huge])
    assert "flow byte length 2684354560 is not below 2**31" in err


@pytest.mark.parametrize("flag,value,low", [
    ("--min-packets", 0, 1), ("--min-packets", -3, 1),
    ("--limit-lower", -5, 0), ("--limit-upper", -1, 0),
], ids=["min_packets_0", "min_packets_negative", "limit_lower_negative",
        "limit_upper_negative"])
def test_extract_refuses_limits_below_their_floor(workspace, monkeypatch,
                                                  capsys, flag, value, low):
    err = refuses_before_reading(workspace, monkeypatch, capsys,
                                 [flag, value])
    key = flag[2:].replace("-", "_")
    assert f"{key} must be >= {low}, got {value}" in err


@pytest.mark.parametrize("key, value, low", [
    ("packets_per_flow", 0, 1), ("header_bytes", -1, 0),
    ("payload_bytes", -1, 0), ("stride_len", 0, 1),
])
def test_extract_refuses_a_geometry_below_its_floor(workspace, monkeypatch,
                                                    capsys, key, value, low):
    # these used to leave out the value, and the byte budgets the key
    cfg = workspace[0] / "geometry.cfg"
    cfg.write_text(f"{key} = {value}\n")
    err = refuses_before_reading(workspace, monkeypatch, capsys,
                                 ["--config", cfg])
    assert f"{key} must be >= {low}, got {value}" in err


def test_extract_refuses_a_nan_split_ratio(workspace, monkeypatch, capsys):
    # NaN passed both ratio checks and ended in a ValueError traceback
    cfg = workspace[0] / "nan.cfg"
    cfg.write_text("val_ratio = nan\n")
    err = refuses_before_reading(workspace, monkeypatch, capsys,
                                 ["--config", cfg])
    assert "need three non-negative ratios, got (0.8, nan, 0.1)" in err
    assert "Traceback" not in err


def test_unknown_config_key_is_usage_error(workspace):
    tmp, pcaps, _ = workspace
    bad = tmp / "bad.cfg"
    bad.write_text("frobnicate = 3\n")
    assert run(["extract", "--input", pcaps, "--output", tmp / "o",
                "--config", bad]) == 2

@pytest.mark.parametrize("line", ["norm = layer", "recon_target = embedded"])
def test_retired_model_keys_are_unknown_config_keys(tmp_path, capsys, line):
    cfg = tmp_path / "retired.cfg"
    cfg.write_text(SMALL_CFG + line + "\n")
    assert run(["pretrain", "--data", tmp_path / "train.nmstride",
                "--output", tmp_path / "pt", "--config", cfg]) == 2
    key = line.split()[0]
    assert f"unknown config key {key!r}" in capsys.readouterr().err

@pytest.fixture()
def extracted(workspace):
    tmp, pcaps, cfg = workspace
    out = tmp / "dataset"
    assert run(["extract", "--input", pcaps, "--output", out,
                "--config", cfg, "--seed", 11]) == 0
    return tmp, out, cfg

def test_pretrain_finetune_evaluate_pipeline(extracted):
    tmp, dataset, cfg = extracted
    pre_dir = tmp / "pre"
    assert run(["pretrain", "--data", dataset, "--output", pre_dir,
                "--config", cfg, "--steps", 12, "--batch", 8, "--seed", 2]) == 0
    log = (pre_dir / "loss_log.csv").read_text().splitlines()
    assert log[0] == "step,loss,lr"
    assert len(log) > 2
    assert (pre_dir / "best.nmckpt").exists()

    fine_dir = tmp / "fine"
    assert run(["finetune", "--data", dataset, "--output", fine_dir,
                "--config", cfg, "--init", pre_dir / "best.nmckpt",
                "--epochs", 2, "--batch", 8, "--seed", 3]) == 0
    assert (fine_dir / "metrics.json").exists()

    out1, out2 = tmp / "m1.json", tmp / "m2.json"
    for out in (out1, out2):
        assert run(["evaluate", "--data", dataset / "test.nmstride",
                    "--checkpoint", fine_dir / "best.nmckpt",
                    "--output", out]) == 0
    assert out1.read_bytes() == out2.read_bytes()

def test_finetune_from_scratch_ablation(extracted):
    tmp, dataset, cfg = extracted
    out = tmp / "scratch"
    assert run(["finetune", "--data", dataset, "--output", out,
                "--config", cfg, "--from-scratch", "--epochs", 1,
                "--batch", 8, "--seed", 4]) == 0
    assert (out / "best.nmckpt").exists()

def test_finetune_requires_init_choice(extracted, capsys, monkeypatch):
    # exactly one of the two: with both, --from-scratch used to be ignored
    # and the run initialized from the checkpoint
    tmp, dataset, cfg = extracted
    called = []
    monkeypatch.setattr(cli.trainmod, "finetune", lambda *a, **k: called.append(k))
    for flags in ([], ["--init", tmp / "pre.nmckpt", "--from-scratch"]):
        assert run(["finetune", "--data", dataset, "--output", tmp / "x",
                    "--config", cfg] + flags) == 2
        err = capsys.readouterr().err
        assert err == "error: pass exactly one of --init and --from-scratch\n"
    assert not called and not (tmp / "x").exists()

@pytest.mark.parametrize("stride_len, num_classes", [(8, 2), (4, 3)])
def test_finetune_refuses_splits_of_differing_geometry(extracted, capsys,
                                                       stride_len, num_classes):
    tmp, dataset, cfg = extracted
    other = ReprConfig(packets_per_flow=2, header_bytes=24, payload_bytes=8,
                       stride_len=stride_len)
    write_samples(dataset / "test.nmstride",
                  synthetic_samples(2, 3, other, seed=0), other, num_classes)
    out = tmp / "ft"
    assert run(["finetune", "--data", dataset, "--output", out, "--config", cfg,
                "--from-scratch", "--epochs", 1, "--batch", 8]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"L_s={stride_len} in {num_classes} classes" in err
    assert str(dataset / "test.nmstride") in err
    assert str(dataset / "train.nmstride") in err
    assert not (out / "best.nmckpt").exists()

def test_finetune_unlabeled_training_split_is_usage_error(extracted, capsys):
    tmp, dataset, cfg = extracted
    sf = read_samples(dataset / "train.nmstride")
    unlabeled = [StrideSample(x, None) for x in sf.strides]
    write_samples(dataset / "train.nmstride", unlabeled, sf.repr_cfg,
                  sf.num_classes)
    assert run(["finetune", "--data", dataset, "--output", tmp / "ft",
                "--config", cfg, "--from-scratch", "--epochs", 1]) == 2
    assert "sample 0 has label -1 outside [0, 2)" in capsys.readouterr().err

def test_finetune_empty_val_split_is_usage_error(workspace, capsys):
    tmp, pcaps, _ = workspace
    cfg = tmp / "no_val.cfg"
    cfg.write_text(SMALL_CFG + "train_ratio = 0.8\nval_ratio = 0\ntest_ratio = 0.2\n")
    dataset = tmp / "dataset"
    assert run(["extract", "--input", pcaps, "--output", dataset,
                "--config", cfg, "--seed", 11]) == 0
    assert len(read_samples(dataset / "val.nmstride").labels) == 0
    out = tmp / "ft"
    assert run(["finetune", "--data", dataset, "--output", out, "--config", cfg,
                "--from-scratch", "--epochs", 1, "--batch", 8]) == 2
    assert "validation split is empty" in capsys.readouterr().err
    assert not (out / "best.nmckpt").exists()

def test_pretrain_short_sample_header_is_parse_error(tmp_path, capsys):
    # the magic and version fit, the six u32 header fields do not
    short = tmp_path / "short.nmstride"
    short.write_bytes(b"NMSTRIDE" + bytes([1, 0, 0, 0]))
    out = tmp_path / "pt"
    assert run(["pretrain", "--data", short, "--output", out]) == 2
    assert "shorter than the 34-byte header" in capsys.readouterr().err
    assert not out.exists()

def test_checkpoint_mismatch_exit_code(extracted):
    tmp, dataset, cfg = extracted
    pre_dir = tmp / "pre2"
    assert run(["pretrain", "--data", dataset, "--output", pre_dir,
                "--config", cfg, "--steps", 2, "--batch", 4, "--seed", 0]) == 0
    wide = tmp / "wide.cfg"
    wide.write_text(SMALL_CFG.replace("d_enc = 16", "d_enc = 32")
                    .replace("e_enc = 32", "e_enc = 64"))
    code = run(["finetune", "--data", dataset, "--output", tmp / "y",
                "--config", wide, "--init", pre_dir / "best.nmckpt",
                "--epochs", 1, "--batch", 4])
    assert code == 3

def test_evaluate_pretrain_checkpoint_is_mismatch(extracted, capsys):
    tmp, dataset, cfg = extracted
    pre_dir = tmp / "pre_eval"
    assert run(["pretrain", "--data", dataset, "--output", pre_dir,
                "--config", cfg, "--steps", 2, "--batch", 4, "--seed", 0]) == 0
    capsys.readouterr()
    ckpt_path = pre_dir / "best.nmckpt"
    assert run(["evaluate", "--data", dataset, "--checkpoint", ckpt_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("checkpoint mismatch:")
    assert str(ckpt_path) in err and "classification head" in err
    assert "Traceback" not in err

def test_evaluate_stride_geometry_mismatch(extracted, capsys):
    tmp, dataset, cfg = extracted
    fine_dir = tmp / "fine_eval"
    assert run(["finetune", "--data", dataset, "--output", fine_dir,
                "--config", cfg, "--from-scratch", "--epochs", 1,
                "--batch", 8, "--seed", 4]) == 0
    longer = tmp / "longer.cfg"
    longer.write_text(SMALL_CFG.replace("packets_per_flow = 2",
                                        "packets_per_flow = 3"))
    other = tmp / "longer_dataset"
    assert run(["extract", "--input", tmp / "pcaps", "--output", other,
                "--config", longer, "--seed", 11]) == 0
    capsys.readouterr()
    ckpt_path = fine_dir / "best.nmckpt"
    assert run(["evaluate", "--data", other, "--checkpoint", ckpt_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("checkpoint mismatch:")
    assert str(ckpt_path) in err and "16 strides of 4 bytes" in err
    assert "has 24 of 4" in err
    assert "Traceback" not in err

@pytest.fixture()
def head_checkpoint(tmp_path):
    """A freshly initialized fine-tuning checkpoint and a split it fits."""
    geometry = ReprConfig(packets_per_flow=2, header_bytes=24, payload_bytes=8)
    data = tmp_path / "test.nmstride"
    write_samples(data, synthetic_samples(2, 3, geometry, seed=0), geometry,
                  num_classes=2)
    cfg = nm.ModelConfig(d_enc=16, e_enc=32, depth_enc=1, d_dec=8, e_dec=16,
                         depth_dec=1, state_dim=4, dt_rank=4,
                         seq_len=geometry.n_strides + 1)
    path = tmp_path / "fine.nmckpt"
    ckpt.save_model(path, nm.init_params(cfg, np.random.default_rng(0),
                                         with_decoder=False, with_head=True))
    return data, path

@pytest.mark.parametrize("keys, code", [
    ({"norm": "rms", "recon_target": "bytes", "use_state_skip": False}, 0),
    ({"norm": "layer"}, 3),
    ({"bogus": 1}, 3),
    ({"use_state_skip": True}, 3),
    ({"use_state_skip": 0}, 3),
    ({"use_state_skip": 1}, 3),
], ids=["paper-values", "layer-norm", "unknown-key", "state-skip-true",
        "state-skip-0", "state-skip-1"])
def test_evaluate_checks_checkpoint_config_keys(head_checkpoint, capsys, keys,
                                                code):
    # checkpoints written before the retired keys went hold them at the
    # values the model still implements; 0 equals False but is not a bool
    data, path = head_checkpoint
    meta, tensors = ckpt.load_checkpoint(path)
    meta["config"].update(keys)
    ckpt.save_checkpoint(path, tensors, meta)
    assert run(["evaluate", "--data", data, "--checkpoint", path]) == code
    if code:
        (key, value), = keys.items()
        assert f"{key!r} = {value!r}" in capsys.readouterr().err

@pytest.mark.parametrize("key, value", [
    ("d_enc", "16"),
    ("d_enc", True),
    ("d_enc", 16.0),
    ("use_pos_embed", 1),
], ids=["str-for-int", "bool-for-int", "float-for-int", "int-for-bool"])
def test_evaluate_checks_checkpoint_config_value_types(head_checkpoint, capsys,
                                                       key, value):
    # a value of the wrong type would otherwise reach init_params and die
    # there with a TypeError traceback
    data, path = head_checkpoint
    meta, tensors = ckpt.load_checkpoint(path)
    meta["config"][key] = value
    ckpt.save_checkpoint(path, tensors, meta)
    assert run(["evaluate", "--data", data, "--checkpoint", path]) == 3
    err = capsys.readouterr().err
    assert f"{key!r} = {value!r}" in err and "Traceback" not in err


@pytest.mark.parametrize("key, value, low", [("state_dim", 0, 1),
                                             ("depth_enc", -1, 0),
                                             ("stride_len", 0, 1)])
def test_evaluate_names_the_checkpoint_of_an_out_of_range_config(
        head_checkpoint, capsys, key, value, low):
    # ModelConfig's refusal used to reach the user as a usage error (exit 2)
    # that did not name the checkpoint
    data, path = head_checkpoint
    meta, tensors = ckpt.load_checkpoint(path)
    meta["config"][key] = value
    ckpt.save_checkpoint(path, tensors, meta)
    assert run(["evaluate", "--data", data, "--checkpoint", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("checkpoint mismatch:") and str(path) in err
    assert f"{key} must be >= {low}, got {value}" in err and "Traceback" not in err


def test_evaluate_names_the_checkpoint_of_a_head_with_one_class(
        head_checkpoint, capsys):
    # the head's refusal used to escape the loader's wrapping and exit 2
    # without the path
    data, path = head_checkpoint
    meta, tensors = ckpt.load_checkpoint(path)
    meta["config"]["num_classes"] = 1
    ckpt.save_checkpoint(path, tensors, meta)
    assert run(["evaluate", "--data", data, "--checkpoint", path]) == 3
    err = capsys.readouterr().err
    assert err == f"checkpoint mismatch: {path}: need at least 2 classes, got 1\n"


def test_evaluate_names_the_checkpoint_of_an_impossible_patch_geometry(
        head_checkpoint, capsys):
    # 16 one-byte strides make a 4x4 matrix, but a 1-byte token cannot be a
    # 2-row patch
    data, path = head_checkpoint
    meta, tensors = ckpt.load_checkpoint(path)
    meta["config"].update(patch_split=True, stride_len=1)
    ckpt.save_checkpoint(path, tensors, meta)
    assert run(["evaluate", "--data", data, "--checkpoint", path]) == 3
    err = capsys.readouterr().err
    assert err == (f"checkpoint mismatch: {path}: patch splitting needs an "
                   "even stride_len\n")


def test_evaluate_refuses_a_label_the_head_lacks(head_checkpoint, tmp_path,
                                                 capsys):
    # the split check names the sample; the metrics no longer check labels
    data, path = head_checkpoint
    geometry = ReprConfig(packets_per_flow=2, header_bytes=24, payload_bytes=8)
    three = tmp_path / "three.nmstride"
    write_samples(three, synthetic_samples(3, 2, geometry, seed=0), geometry,
                  num_classes=3)
    assert run(["evaluate", "--data", three, "--checkpoint", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: evaluation split: sample 4 has label 2 outside "
                   "[0, 2)\n")


@pytest.mark.parametrize("kind", ["bogus", "full", None])
def test_evaluate_refuses_an_unknown_model_kind(head_checkpoint, capsys, kind):
    # an unknown kind must not load as an encoder-only model with the head
    # tensors left over as optimizer state
    data, path = head_checkpoint
    meta, tensors = ckpt.load_checkpoint(path)
    meta["kind"] = kind
    ckpt.save_checkpoint(path, tensors, meta)
    assert run(["evaluate", "--data", data, "--checkpoint", path]) == 3
    err = capsys.readouterr().err
    assert f"unknown model kind {kind!r}" in err and "Traceback" not in err


@pytest.mark.parametrize("header", [
    b"\xff\xfe{",
    b'{"meta": {}',
    b'{"meta": {}}',
    b'{"tensors": []}',
    b'{"meta": {}, "tensors": [{"name": "w"}]}',
], ids=["not-utf8", "not-json", "no-tensor-index", "no-meta",
        "entry-without-shape"])
def test_evaluate_malformed_checkpoint_metadata_is_parse_error(tmp_path, capsys,
                                                               header):
    path = tmp_path / "bad.nmckpt"
    path.write_bytes(ckpt.MAGIC + struct.pack("<I", len(header)) + header)
    assert run(["evaluate", "--data", tmp_path, "--checkpoint", path]) == 2
    assert str(path) in capsys.readouterr().err

def test_flag_overrides_config_file(extracted, capsys):
    tmp, dataset, cfg = extracted
    pre_dir = tmp / "pre3"
    # config file says log_every=5; the step count comes from the flag
    assert run(["pretrain", "--data", dataset, "--output", pre_dir,
                "--config", cfg, "--steps", 7, "--batch", 4, "--seed", 0]) == 0
    log = (pre_dir / "loss_log.csv").read_text().splitlines()[1:]
    steps = [int(line.split(",")[0]) for line in log]
    assert steps == [0, 5, 6]  # log_every=5 from file, 7 steps from flag

def test_patch_split_config_path(extracted, monkeypatch):
    tmp, dataset, cfg = extracted
    patch_cfg = tmp / "patch.cfg"
    patch_cfg.write_text(SMALL_CFG + "patch_split = true\n")
    out = tmp / "patch_pre"
    # L_b = 64 reshapes to an 8x8 matrix of 2x2 patches
    assert run(["pretrain", "--data", dataset, "--output", out,
                "--config", patch_cfg, "--steps", 3, "--batch", 4,
                "--seed", 0]) == 0
    assert (out / "last.nmckpt").exists()
    fine = tmp / "patch_fine"
    assert run(["finetune", "--data", dataset, "--output", fine,
                "--config", patch_cfg, "--init", out / "best.nmckpt",
                "--epochs", 1, "--batch", 8, "--seed", 0]) == 0
    params, _, _ = ckpt.load_model(fine / "best.nmckpt")
    assert params.cfg.patch_split is True
    # the checkpoint names its tokenizer: evaluate, given no config, embeds
    # the test flows' patches
    embedded = []
    embed = nm.embed_batch
    monkeypatch.setattr(nm, "embed_batch",
                        lambda x, *a: embedded.append(x) or embed(x, *a))
    assert run(["evaluate", "--data", dataset, "--checkpoint",
                fine / "best.nmckpt", "--batch", 1000]) == 0
    sf = read_samples(dataset / "test.nmstride")
    np.testing.assert_array_equal(
        embedded[0], nm.normalize_strides(nm.patch_tokens(sf.data, 4)))

@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_patch_split_of_a_non_square_extract_is_refused_before_training(
        tmp_path, monkeypatch, capsys, command):
    # 2 packets of 160 bytes make 320 bytes, no square matrix: this used to
    # exit 2 only at the first forward, after the model was built
    geometry = ReprConfig(packets_per_flow=2, header_bytes=40, payload_bytes=120)
    for name in ("train", "val", "test"):
        write_samples(tmp_path / f"{name}.nmstride",
                      synthetic_samples(2, 2, geometry, seed=0), geometry,
                      num_classes=2)
    cfg = tmp_path / "patch.cfg"
    cfg.write_text(SMALL_MODEL + "patch_split = true\n")

    def never(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(cli.trainmod, "pretrain", never)
    monkeypatch.setattr(cli.trainmod, "finetune", never)
    argv = command_argv(command, tmp_path, tmp_path) + ["--config", cfg]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "error: patch splitting needs a square byte count, got 320\n")
    assert not (tmp_path / command).exists()

def test_console_entry_point():
    import os, subprocess, sys
    # the child imports netmamba from wherever this process does, so the
    # test also runs from a checkout that was never installed
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "netmamba.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "extract" in proc.stdout and "bench" in proc.stdout

def test_bench_command_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("d_enc = 8\ne_enc = 16\ndepth_enc = 1\nstate_dim = 4\n"
                   "dt_rank = 4\n")
    out = tmp_path / "bench.csv"
    assert run(["bench", "--config", cfg, "--batch-sizes", "1",
                "--lengths", "16,32", "--repeats", 5, "--output", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "batch,seq_len,samples_per_sec,peak_bytes"
    assert len(lines) == 3
    printed = capsys.readouterr().out
    assert printed.startswith(out.read_text()) and "scaling exponent" in printed

@pytest.mark.parametrize("flag, value, text", [
    ("--batch-sizes", "0", "'0'"),
    ("--batch-sizes", "x", "'x'"),
    ("--batch-sizes", "1,", "'1,'"),
    ("--lengths", "0,8", "'0,8'"),
    ("--lengths", "-4", "'-4'"),
    ("--repeats", "0", "0"),
], ids=["batch-0", "batch-x", "batch-trailing-comma", "lengths-0", "lengths-neg",
        "repeats-0"])
def test_bench_refuses_a_list_or_repeat_count_it_cannot_run(capsys, flag, value,
                                                              text):
    # each used to end in a traceback: a zero batch divided by zero, a
    # malformed list failed to parse, a zero length broke the stack's tail
    # contract and a negative one numpy's shapes
    args = {"--batch-sizes": "1", "--lengths": "16", "--repeats": "5", flag: value}
    assert run(["bench"] + [a for kv in args.items() for a in kv]) == 2
    err = capsys.readouterr().err
    assert f"{flag} must be" in err and f"got {text}" in err
    assert "Traceback" not in err

def test_pretrain_resume_from_fine_tuning_checkpoint_is_mismatch(
        head_checkpoint, tmp_path, capsys):
    data, path = head_checkpoint
    assert run(["pretrain", "--data", data, "--output", tmp_path / "pt",
                "--resume", path, "--steps", 2, "--batch", 2]) == 3
    err = capsys.readouterr().err
    assert err.startswith("checkpoint mismatch:")
    assert str(path) in err and "without a decoder" in err
    assert "Traceback" not in err


def test_pretrain_resume_stride_geometry_mismatch(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG)
    paths = {}
    for m in (2, 3):
        geometry = ReprConfig(packets_per_flow=m, header_bytes=24,
                              payload_bytes=8)
        paths[m] = tmp_path / f"m{m}.nmstride"
        write_samples(paths[m], synthetic_samples(2, 3, geometry, seed=0),
                      geometry, num_classes=2)
    pre_dir = tmp_path / "pre"
    assert run(["pretrain", "--data", paths[2], "--output", pre_dir,
                "--config", cfg, "--steps", 2, "--batch", 2]) == 0
    capsys.readouterr()
    last = pre_dir / "last.nmckpt"
    assert run(["pretrain", "--data", paths[3], "--output", tmp_path / "more",
                "--config", cfg, "--resume", last, "--steps", 4,
                "--batch", 2]) == 3
    err = capsys.readouterr().err
    assert err.startswith("checkpoint mismatch:")
    assert str(last) in err and "16 strides of 4 bytes" in err
    assert "has 24 of 4" in err and "Traceback" not in err


@pytest.fixture()
def pretrained(tmp_path):
    """A 2-step pre-training run at SMALL_CFG (mask_ratio 0.5): its config,
    data and last.nmckpt."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG)
    geometry = ReprConfig(packets_per_flow=2, header_bytes=24, payload_bytes=8)
    data = tmp_path / "train.nmstride"
    write_samples(data, synthetic_samples(2, 3, geometry, seed=0), geometry,
                  num_classes=2)
    assert run(["pretrain", "--data", data, "--output", tmp_path / "pre",
                "--config", cfg, "--steps", 2, "--batch", 2]) == 0
    return cfg, data, tmp_path / "pre" / "last.nmckpt"


@pytest.fixture()
def finetune_data(tmp_path):
    """A labelled train/val/test directory at SMALL_CFG's geometry."""
    geometry = ReprConfig(packets_per_flow=2, header_bytes=24, payload_bytes=8)
    data = tmp_path / "splits"
    data.mkdir()
    for seed, split in enumerate(("train", "val", "test")):
        write_samples(data / f"{split}.nmstride",
                      synthetic_samples(2, 2, geometry, seed=seed), geometry,
                      num_classes=2)
    return data


def test_finetune_init_refuses_an_encoder_key_the_checkpoint_disagrees_with(
        pretrained, finetune_data, tmp_path, capsys):
    # use_pos_embed leaves every tensor shape the same, so only the config
    # comparison can catch it
    cfg, _, last = pretrained
    cfg.write_text(SMALL_CFG + "use_pos_embed = false\n")
    capsys.readouterr()
    out = tmp_path / "ft"
    assert run(["finetune", "--data", finetune_data, "--output", out,
                "--config", cfg, "--init", last, "--epochs", 1,
                "--batch", 2]) == 3
    err = capsys.readouterr().err
    assert err.startswith("checkpoint mismatch:")
    assert str(last) in err and "use_pos_embed = True, not False" in err
    assert "Traceback" not in err and not (out / "best.nmckpt").exists()


@pytest.mark.parametrize("pre_line, run_line, named", [
    ("patch_split = true\n", "", "patch_split = True, not False"),
    ("", "patch_split = true\n", "patch_split = False, not True"),
], ids=("patch-checkpoint", "stride-checkpoint"))
def test_finetune_init_refuses_the_other_tokenizer(
        finetune_data, tmp_path, capsys, pre_line, run_line, named):
    # the checkpoint records its tokenizer, and the encoder-key comparison
    # refuses a run that tokenizes the other way
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG + pre_line)
    assert run(["pretrain", "--data", finetune_data, "--output", tmp_path / "pre",
                "--config", cfg, "--steps", 2, "--batch", 2]) == 0
    cfg.write_text(SMALL_CFG + run_line)
    capsys.readouterr()
    best = tmp_path / "pre" / "best.nmckpt"
    out = tmp_path / "ft"
    assert run(["finetune", "--data", finetune_data, "--output", out,
                "--config", cfg, "--init", best, "--epochs", 1,
                "--batch", 2]) == 3
    err = capsys.readouterr().err
    assert err.startswith("checkpoint mismatch:")
    assert str(best) in err and named in err
    assert "Traceback" not in err and not (out / "best.nmckpt").exists()


def test_pretrain_resume_refuses_the_other_tokenizer_of_a_patch_checkpoint(
        finetune_data, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG + "patch_split = true\n")
    assert run(["pretrain", "--data", finetune_data, "--output", tmp_path / "pre",
                "--config", cfg, "--steps", 2, "--batch", 2]) == 0
    last = tmp_path / "pre" / "last.nmckpt"
    cfg.write_text(SMALL_CFG + "patch_split = false\n")
    capsys.readouterr()
    assert run(["pretrain", "--data", finetune_data, "--output", tmp_path / "more",
                "--config", cfg, "--resume", last, "--steps", 4,
                "--batch", 2]) == 3
    err = capsys.readouterr().err
    assert err.startswith("checkpoint mismatch:")
    assert str(last) in err and "patch_split = True, not False" in err
    assert "Traceback" not in err and not (tmp_path / "more").exists()


def test_pretrain_resume_refuses_a_checkpoint_without_optimizer_state(
        pretrained, tmp_path, capsys):
    # best.nmckpt keeps the model alone: resuming from it would restart
    # Adam's moments from zero and replay steps from its step index
    cfg, data, last = pretrained
    best = last.parent / "best.nmckpt"
    capsys.readouterr()
    assert run(["pretrain", "--data", data, "--output", tmp_path / "more",
                "--config", cfg, "--resume", best, "--steps", 4,
                "--batch", 2]) == 3
    err = capsys.readouterr().err
    assert err.startswith("checkpoint mismatch:")
    assert str(best) in err and "no optimizer tensor opt.m.embed.w" in err
    assert "Traceback" not in err and not (tmp_path / "more").exists()


def test_evaluate_refuses_a_tensor_with_no_place(head_checkpoint, capsys):
    data, path = head_checkpoint
    meta, tensors = ckpt.load_checkpoint(path)
    tensors["enc.9.w_out"] = np.zeros((4, 4), dtype=np.float32)
    ckpt.save_checkpoint(path, tensors, meta)
    assert run(["evaluate", "--data", data, "--checkpoint", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("checkpoint mismatch:")
    assert "tensor enc.9.w_out has no place in this model" in err
    assert "Traceback" not in err


def test_finetune_init_accepts_other_decoder_widths_and_mask_ratio(
        pretrained, finetune_data, tmp_path):
    cfg, _, last = pretrained
    cfg.write_text(SMALL_CFG.replace("mask_ratio = 0.5", "mask_ratio = 0.75")
                   .replace("d_dec = 8", "d_dec = 12")
                   .replace("e_dec = 16", "e_dec = 24")
                   .replace("depth_dec = 1", "depth_dec = 2"))
    out = tmp_path / "ft"
    assert run(["finetune", "--data", finetune_data, "--output", out,
                "--config", cfg, "--init", last, "--epochs", 1,
                "--batch", 2]) == 0
    assert (out / "best.nmckpt").exists()


def test_pretrain_resume_of_a_finished_run_is_usage_error(pretrained, capsys):
    # resuming at the step the run already reached would take no step, and
    # the run's loss log and last.nmckpt must stay as they were
    cfg, data, last = pretrained
    log = last.parent / "loss_log.csv"
    before = log.read_bytes(), last.read_bytes()
    capsys.readouterr()
    assert run(["pretrain", "--data", data, "--output", last.parent,
                "--config", cfg, "--resume", last, "--steps", 2,
                "--batch", 2]) == 2
    assert "starts at step 2 and ends at step 2" in capsys.readouterr().err
    assert (log.read_bytes(), last.read_bytes()) == before


@pytest.mark.parametrize("step", (None, "2", 2.0, True, -1),
                         ids=("missing", "str", "float", "bool", "negative"))
def test_pretrain_resume_refuses_a_step_that_is_no_count(pretrained, tmp_path,
                                                         capsys, step):
    cfg, data, last = pretrained
    meta, tensors = ckpt.load_checkpoint(last)
    meta.pop("step")
    if step is not None:
        meta["step"] = step
    ckpt.save_checkpoint(last, tensors, meta)
    capsys.readouterr()
    assert run(["pretrain", "--data", data, "--output", tmp_path / "more",
                "--config", cfg, "--resume", last, "--steps", 4,
                "--batch", 2]) == 3
    err = capsys.readouterr().err
    assert err.startswith("checkpoint mismatch:")
    assert f"metadata step {step!r}" in err and "Traceback" not in err


@pytest.mark.parametrize("extra, flags, named", [
    ("", ["--mask-ratio", 0.75], "mask_ratio = 0.5, not 0.75"),
    ("state_dim = 8\n", [], "state_dim = 4, not 8"),
    ("use_pos_embed = false\n", [], "use_pos_embed = True, not False"),
    ("patch_split = true\n", [], "patch_split = False, not True"),
], ids=("flag", "config", "config-bool", "tokenizer"))
def test_pretrain_resume_refuses_a_model_key_the_checkpoint_disagrees_with(
        pretrained, tmp_path, capsys, extra, flags, named):
    cfg, data, last = pretrained
    cfg.write_text(SMALL_CFG + extra)
    capsys.readouterr()
    assert run(["pretrain", "--data", data, "--output", tmp_path / "more",
                "--config", cfg, "--resume", last, "--steps", 4,
                "--batch", 2] + flags) == 3
    err = capsys.readouterr().err
    assert err.startswith("checkpoint mismatch:")
    assert str(last) in err and named in err and "Traceback" not in err
    assert not (tmp_path / "more").exists()


def test_pretrain_resume_accepts_model_keys_the_checkpoint_agrees_with(
        pretrained, tmp_path):
    # the run's own config file and a flag at the checkpoint's value, and
    # no model key at all: both resume
    cfg, data, last = pretrained
    assert run(["pretrain", "--data", data, "--output", tmp_path / "a",
                "--config", cfg, "--resume", last, "--steps", 4, "--batch", 2,
                "--mask-ratio", 0.5]) == 0
    assert run(["pretrain", "--data", data, "--output", tmp_path / "b",
                "--resume", last, "--steps", 4, "--batch", 2]) == 0


# ---------------------------------------------------------------------------
# config keys: every dataclass field is a key, flags override the file

# a valid value other than the default for every field that a config file sets
FIELD_VALUES = {
    ReprConfig: {"packets_per_flow": "3", "header_bytes": "40",
                 "payload_bytes": "120", "stride_len": "8",
                 "anonymize_ips": "false", "include_header": "false",
                 "include_payload": "false", "drop_dhcp": "false"},
    nm.ModelConfig: {"stride_len": "8", "d_enc": "24", "e_enc": "48",
                     "depth_enc": "3", "d_dec": "24", "e_dec": "40",
                     "depth_dec": "3", "state_dim": "8", "mask_ratio": "0.75",
                     "use_pos_embed": "false", "dt_rank": "8",
                     "conv_kernel": "3", "patch_split": "true"},
    train.TrainConfig: {"batch_size": "7", "lr": "0.01", "steps": "3",
                        "epochs": "2", "weight_decay": "0.1",
                        "warmup_frac": "0.2", "grad_clip": "2.0", "seed": "5",
                        "log_every": "2", "early_stop_val_acc": "0.5"},
}
CONFIG_FIELDS = [(cls, f.name) for cls in FIELD_VALUES for f in fields(cls)
                 if f.name not in ("seq_len", "num_classes")]


@pytest.fixture()
def built(monkeypatch):
    """Runs commands with the heavy work stubbed out and records the config
    dataclasses each one builds, by class."""
    seen = {}
    open_writer = cli.datamod.sample_writer

    def sample_writer(path, cfg, num_classes):
        seen[ReprConfig] = cfg
        return open_writer(path, cfg, num_classes)

    def bench_forward(cfg, *args, **kwargs):
        seen[nm.ModelConfig] = cfg
        return [{"batch": 1, "seq_len": 16, "samples_per_sec": 1.0,
                 "peak_bytes": 0, "median_seconds": 1.0}]

    def pretrain(tokens, cfg, tcfg, **kwargs):
        seen[nm.ModelConfig], seen[train.TrainConfig] = cfg, tcfg
        return SimpleNamespace(best_loss=0.0, best_step=0)

    def finetune(splits, cfg, tcfg, **kwargs):
        seen[nm.ModelConfig], seen[train.TrainConfig] = cfg, tcfg
        report = SimpleNamespace(to_dict=dict, accuracy=0.0)
        return SimpleNamespace(report=report, best_val_acc=0.0, best_epoch=0)

    monkeypatch.setattr(cli.datamod, "sample_writer", sample_writer)
    monkeypatch.setattr(cli.bench_mod, "bench_forward", bench_forward)
    monkeypatch.setattr(cli.trainmod, "pretrain", pretrain)
    monkeypatch.setattr(cli.trainmod, "finetune", finetune)
    return seen


@pytest.fixture()
def tiny_split(tmp_path):
    """A labeled extract directory: the same small split as train, val and
    test."""
    geometry = ReprConfig(packets_per_flow=2, header_bytes=24, payload_bytes=8)
    for name in ("train", "val", "test"):
        write_samples(tmp_path / f"{name}.nmstride",
                      synthetic_samples(2, 2, geometry, seed=0), geometry,
                      num_classes=2)
    return tmp_path


def command_argv(command, tmp_path, split_dir):
    """A minimal invocation of ``command`` over small inputs."""
    if command == "extract":
        pcaps = build_pcap_tree(tmp_path / "pcaps", files_per_class=2)
        return ["extract", "--input", pcaps, "--output", tmp_path / "x"]
    if command == "bench":
        return ["bench", "--batch-sizes", "1", "--lengths", "16"]
    argv = [command, "--data", split_dir, "--output", tmp_path / command]
    return argv + ["--from-scratch"] if command == "finetune" else argv


# the command that builds each config dataclass from every field it names
BUILDER = {ReprConfig: "extract", nm.ModelConfig: "bench",
           train.TrainConfig: "pretrain"}


@pytest.mark.parametrize("cls, key", CONFIG_FIELDS,
                         ids=[f"{c.__name__}.{k}" for c, k in CONFIG_FIELDS])
def test_every_config_field_reaches_the_built_config(tmp_path, built,
                                                     tiny_split, cls, key):
    raw = FIELD_VALUES[cls][key]
    expected = cfgmod.parse_value(key, raw)
    assert getattr(cls(), key) != expected
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{key} = {raw}\n")
    argv = command_argv(BUILDER[cls], tmp_path, tiny_split)
    assert run(argv + ["--config", cfg]) == 0
    assert getattr(built[cls], key) == expected


@pytest.mark.parametrize("key", ["seq_len", "num_classes"])
def test_keys_the_sample_file_fixes_are_unknown(tiny_split, capsys, key):
    cfg = tiny_split / "fixed.cfg"
    cfg.write_text(f"{key} = 9\n")
    assert run(["pretrain", "--data", tiny_split, "--output",
                tiny_split / "p", "--config", cfg]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, line, cls, key, expected", [
    ("pretrain", ["--batch", 5], "batch_size = 3", train.TrainConfig,
     "batch_size", 5),
    ("finetune", ["--batch", 5], "batch_size = 3", train.TrainConfig,
     "batch_size", 5),
    ("finetune", ["--early-stop", 0.7], "early_stop_val_acc = 0.3",
     train.TrainConfig, "early_stop_val_acc", 0.7),
    ("pretrain", ["--mask-ratio", 0.75], "mask_ratio = 0.5", nm.ModelConfig,
     "mask_ratio", 0.75),
    ("extract", ["--no-anonymize-ips"], "anonymize_ips = true", ReprConfig,
     "anonymize_ips", False),
    ("extract", ["--no-header"], "include_header = true", ReprConfig,
     "include_header", False),
    ("extract", ["--no-payload"], "include_payload = true", ReprConfig,
     "include_payload", False),
], ids=["pretrain-batch", "finetune-batch", "early-stop", "mask-ratio",
        "no-anonymize-ips", "no-header", "no-payload"])
def test_renamed_flags_override_the_file(tmp_path, built, tiny_split, command,
                                         flag, line, cls, key, expected):
    cfg = tmp_path / "file.cfg"
    cfg.write_text(line + "\n")
    argv = command_argv(command, tmp_path, tiny_split)
    assert run(argv + ["--config", cfg] + flag) == 0
    assert getattr(built[cls], key) == expected


def test_min_packets_flag_overrides_the_file(tmp_path, capsys):
    # every flow in the tree has three packets
    argv = command_argv("extract", tmp_path, None)
    cfg = tmp_path / "file.cfg"
    cfg.write_text("min_packets = 4\n")
    assert run(argv + ["--config", cfg]) == 2
    assert "no usable flows" in capsys.readouterr().err
    assert run(argv + ["--config", cfg, "--min-packets", 3]) == 0


SMALL_MODEL = """
d_enc = 16
e_enc = 32
depth_enc = 1
d_dec = 8
e_dec = 16
depth_dec = 1
state_dim = 4
dt_rank = 4
"""


@pytest.mark.parametrize("command, flags, line, key, value", [
    ("pretrain", ["--batch", 0], "", "batch_size", 0),
    ("pretrain", ["--batch", -1], "", "batch_size", -1),
    ("finetune", ["--batch", 0], "", "batch_size", 0),
    ("pretrain", [], "log_every = 0", "log_every", 0),
    ("finetune", [], "log_every = -3", "log_every", -3),
], ids=["pretrain-batch-0", "pretrain-batch-neg", "finetune-batch-0",
        "pretrain-log-every-0", "finetune-log-every-neg"])
def test_training_refuses_a_batch_or_log_interval_below_one(
        tmp_path, tiny_split, capsys, command, flags, line, key, value):
    # refused when the training config is built, before any work: a zero
    # batch would divide by zero or draw no samples, a zero log interval
    # would divide by zero at the first step
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_MODEL + line + "\n")
    argv = command_argv(command, tmp_path, tiny_split)
    length = ["--steps", 1] if command == "pretrain" else ["--epochs", 1]
    assert run(argv + ["--config", cfg] + length + flags) == 2
    err = capsys.readouterr().err
    assert f"{key} must be >= 1, got {value}" in err and "Traceback" not in err
    assert not (tmp_path / command).exists()


@pytest.mark.parametrize("key, value, low", [
    ("d_enc", 0, 1), ("e_enc", 0, 1), ("d_dec", 0, 1), ("e_dec", 0, 1),
    ("state_dim", 0, 1), ("dt_rank", 0, 1), ("conv_kernel", 0, 1),
    ("depth_enc", -1, 0), ("depth_dec", -1, 0),
])
@pytest.mark.parametrize("command", ["pretrain", "finetune", "bench"])
def test_a_model_width_below_one_is_refused(
        tmp_path, tiny_split, capsys, command, key, value, low):
    # a width below 1 used to end in the block's ContractError traceback
    # with exit 1, and a negative depth built no blocks
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_MODEL + f"{key} = {value}\n")
    argv = command_argv(command, tmp_path, tiny_split) + ["--config", cfg]
    length = {"pretrain": ["--steps", 1], "finetune": ["--epochs", 1]}
    assert run(argv + length.get(command, [])) == 2
    err = capsys.readouterr().err
    assert f"{key} must be >= {low}, got {value}" in err and "Traceback" not in err
    assert not (tmp_path / command).exists()


@pytest.mark.parametrize("command, flags, key, value", [
    ("pretrain", ["--steps", 0], "steps", 0),
    ("finetune", ["--epochs", 0], "epochs", 0),
    ("pretrain", ["--steps", 1, "--lr", -1], "lr", -1.0),
    ("finetune", ["--epochs", 1, "--lr", -1], "lr", -1.0),
])
def test_a_run_without_steps_or_with_a_negative_rate_is_refused(
        tmp_path, tiny_split, capsys, command, flags, key, value):
    # refused, naming the key, before the data is read: the data path given
    # does not exist. These used to exit 2 after reading the data, with a
    # message naming no key
    argv = [command, "--data", tmp_path / "missing", "--output", tmp_path / command]
    if command == "finetune":
        argv += ["--from-scratch"]
    assert run(argv + flags) == 2
    err = capsys.readouterr().err
    low = 0 if key == "lr" else 1
    assert f"{key} must be >= {low}, got {value}" in err and "Traceback" not in err
    assert not (tmp_path / command).exists()


@pytest.mark.parametrize("command, line, message", [
    ("pretrain", "warmup_frac = 2", "warmup_frac must lie in [0, 1], got 2.0"),
    ("finetune", "weight_decay = -0.5", "weight_decay must be >= 0, got -0.5"),
    ("pretrain", "grad_clip = -1", "grad_clip must be >= 0, got -1.0"),
    ("finetune", "early_stop_val_acc = 7",
     "early_stop_val_acc must lie in [0, 1], got 7.0"),
    ("pretrain", "lr = nan", "lr must be >= 0, got nan"),
    ("pretrain", "lr = inf", "lr must be finite, got inf"),
    ("finetune", "weight_decay = nan", "weight_decay must be >= 0, got nan"),
    ("finetune", "weight_decay = inf", "weight_decay must be finite, got inf"),
    ("pretrain", "grad_clip = nan", "grad_clip must be >= 0, got nan"),
], ids=["warmup_frac", "weight_decay", "grad_clip", "early_stop_val_acc",
        "lr-nan", "lr-inf", "weight_decay-nan", "weight_decay-inf",
        "grad_clip-nan"])
def test_an_optimizer_setting_out_of_range_is_refused(
        tmp_path, capsys, command, line, message):
    # each used to be accepted, and a negative grad_clip turned clipping off;
    # a NaN or infinite rate trained to all non-finite parameters.
    # Refused before the data is read: the data path given does not exist
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    argv = [command, "--data", tmp_path / "missing", "--output", tmp_path / command,
            "--config", cfg]
    if command == "finetune":
        argv += ["--from-scratch"]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / command).exists()


@pytest.mark.parametrize("where", ["flag", "file"])
@pytest.mark.parametrize("command", ["extract", "pretrain", "finetune", "bench"])
def test_a_negative_seed_is_refused_before_any_work(
        tmp_path, tiny_split, capsys, command, where):
    # numpy seeds only from non-negative ints: a negative seed used to end
    # in its ValueError traceback with exit 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_MODEL + ("seed = -3\n" if where == "file" else ""))
    argv = command_argv(command, tmp_path, tiny_split) + ["--config", cfg]
    assert run(argv + (["--seed", -1] if where == "flag" else [])) == 2
    err = capsys.readouterr().err
    value = -1 if where == "flag" else -3
    assert f"seed must be >= 0, got {value}" in err and "Traceback" not in err
    assert not (tmp_path / command).exists() and not (tmp_path / "x").exists()


def test_finetune_refuses_a_data_path_that_is_not_a_directory(
        tmp_path, tiny_split, capsys):
    # a file used to stand for all three splits, so the test metrics came
    # from the training flows
    data = tiny_split / "train.nmstride"
    out = tmp_path / "ft"
    assert run(["finetune", "--data", data, "--output", out,
                "--from-scratch", "--epochs", 1]) == 2
    err = capsys.readouterr().err
    assert f"{data} is not an extract directory" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("batch", [0, -1])
def test_evaluate_refuses_a_batch_below_one(head_checkpoint, tmp_path, capsys,
                                            batch):
    # 0 used to run silently at the default of 64, and -1 failed with a
    # message about label and prediction counts
    data, path = head_checkpoint
    assert run(["evaluate", "--data", data, "--checkpoint", path,
                "--batch", batch]) == 2
    err = capsys.readouterr().err
    assert f"batch_size must be >= 1, got {batch}" in err and "Traceback" not in err
    assert run(["evaluate", "--data", data, "--checkpoint", path,
                "--batch", 1]) == 0
    # refused before either file is read: the batch used to be checked
    # after both were, so a missing data path was reported instead
    missing = tmp_path / "missing"
    assert run(["evaluate", "--data", missing, "--checkpoint", missing,
                "--batch", batch]) == 2
    err = capsys.readouterr().err
    assert f"batch_size must be >= 1, got {batch}" in err and "missing" not in err


def test_evaluate_refuses_an_output_directory_before_reading_the_checkpoint(
        head_checkpoint, tmp_path, capsys, monkeypatch):
    # it used to run the whole evaluation and print the report before the
    # write into the directory failed
    data, path = head_checkpoint
    read = []
    monkeypatch.setattr(ckpt, "load_model", lambda *args: read.append(args))
    assert run(["evaluate", "--data", data, "--checkpoint", path,
                "--output", tmp_path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and read == []
    assert err == f"error: --output {tmp_path} is a directory\n"


def refused_argv(case, tmp_path, request):
    """The argv of one refused invocation, its inputs made under tmp_path."""
    command, what = case.split("-", 1)
    if command == "extract":
        pcaps = build_pcap_tree(tmp_path / "pcaps", files_per_class=1)
        argv = ["extract", "--input", pcaps, "--output", tmp_path / "x"]
        if what == "output-is-a-file":
            argv[-1] = tmp_path / "taken"
            argv[-1].write_text("")
        elif what == "config-not-utf8":
            cfg = tmp_path / "latin1.cfg"
            cfg.write_bytes(b"seed = 1  # caf\xe9\n")
            argv += ["--config", cfg]
        else:
            argv += ["--config", tmp_path]
        return argv
    if command == "evaluate":
        data, path = request.getfixturevalue("head_checkpoint")
        if what == "output-is-a-dir":
            return ["evaluate", "--data", data, "--checkpoint", path,
                    "--output", tmp_path]
        return ["evaluate", "--data", data, "--checkpoint", tmp_path]
    cfg = tmp_path / "stride8.cfg"
    cfg.write_text("stride_len = 8\n")
    split = request.getfixturevalue("tiny_split")
    return command_argv(command, tmp_path, split) + ["--config", cfg]


@pytest.mark.parametrize("case", [
    "extract-output-is-a-file", "extract-config-not-utf8",
    "extract-config-is-a-dir", "evaluate-output-is-a-dir",
    "evaluate-checkpoint-is-a-dir", "pretrain-stride-conflict",
    "finetune-stride-conflict"])
def test_os_errors_and_contradicted_keys_exit_2_with_one_line(
        tmp_path, request, capsys, case):
    # each used to end in a traceback with exit 1, except the stride_len
    # conflicts, which ran at the sample file's stride length
    argv = refused_argv(case, tmp_path, request)
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err
    if case.endswith("stride-conflict"):
        assert "stride_len = 8" in err and "stride_len = 4" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the divergence itself
def test_a_diverging_run_exits_4_with_the_numeric_fault_label(
        tmp_path, tiny_split, capsys):
    argv = command_argv("pretrain", tmp_path, tiny_split)
    assert run(argv + ["--lr", 1e38, "--steps", 3, "--batch", 2]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric fault: non-finite") and "Traceback" not in err
