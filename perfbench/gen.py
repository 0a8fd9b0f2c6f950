"""Seeded input generators for the benchmark workloads.

Run as its own process so that the benchmark process's peak RSS holds only
the program's work:

    python3 perfbench/gen.py --workload extract_pcap --seed 3 --out DIR

The program under test receives only the files written here. ``truth.json``
next to them holds the ground truth the benchmark checks outputs against;
the program never reads it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import struct
import sys
from pathlib import Path

import numpy as np

import checkout

checkout.use_source()
from netmamba import checkpoint as ckpt  # noqa: E402
from netmamba import data  # noqa: E402
from netmamba import model as nm  # noqa: E402
from netmamba.pcap import RawPacket, write_pcap  # noqa: E402
from netmamba.traffic import ReprConfig  # noqa: E402

REPR = ReprConfig()                     # paper representation: M=5, 80+240 bytes

# extract_pcap tree geometry. The traffic mix is chosen to cover both sides
# of every cut extraction makes, not taken from measured traffic (README.md,
# "Traffic mix")
PCAP_CLASSES = 8
PCAP_FILES_PER_CLASS = 10
SHORT_FLOWS_PER_FILE = 40               # 1..14 packets around M=5
MAX_SHORT_PACKETS = 14
MAX_SHORT_PAYLOAD = 600                 # payloads on both sides of N_p=240
LONG_FLOWS_PER_FILE = 2                 # bulk flows of 100..500 packets
LONG_PACKETS = (100, 500)
LONG_PAYLOAD = (1200, 1460)             # near-MTU data packets ...
LONG_ACK_SHARE = 0.15                   # ... and empty acknowledgements
SKIPPED_SHARE = 0.04                    # ARP and DHCP frames
MALFORMED_SHARE = 0.02                  # truncated frames

# training workloads (paper widths; see model.ModelConfig defaults)
N_CLASSES = 4
PRETRAIN_PER_CLASS = 32
FINETUNE_TRAIN, FINETUNE_VAL, FINETUNE_TEST = 8, 2, 2
INFER_FLOWS = 16

_UDP, _TCP = 17, 6
_DHCP_PORTS = (67, 68)


def _eth(ethertype: int, body: bytes, vlan: bool) -> bytes:
    frame = bytes.fromhex("02000000aa01") + bytes.fromhex("02000000bb02")
    if vlan:
        frame += struct.pack(">HH", 0x8100, 100)
    return frame + struct.pack(">H", ethertype) + body


def _transport(proto: int, sport: int, dport: int, payload_len: int,
               tcp_words: int, rng) -> bytes:
    if proto == _UDP:
        return struct.pack(">HHHH", sport, dport, 8 + payload_len, 0)
    options = rng.integers(0, 256, size=4 * (tcp_words - 5), dtype=np.uint8)
    return (struct.pack(">HHIIBBHHH", sport, dport, 1, 2, tcp_words << 4,
                        0x18, 4096, 0, 0) + options.tobytes())


def _ip(version: int, proto: int, src: bytes, dst: bytes, rest: bytes,
        hop_by_hop: bool) -> tuple[bytes, bytes]:
    """(datagram, its IP header bytes with the address fields zeroed)."""
    if version == 4:
        head = struct.pack(">BBHHHBBH", 0x45, 0, 20 + len(rest), 7, 0, 64,
                           proto, 0)
        return head + src + dst + rest, head + bytes(8)
    ext = b""
    nxt = proto
    if hop_by_hop:
        ext = bytes([proto, 0]) + bytes(6)
        nxt = 0
    head = struct.pack(">IHBB", 6 << 28, len(ext) + len(rest), nxt, 64)
    return head + src + dst + ext + rest, head + bytes(32) + ext


def _expected_row(header: bytes, payload: bytes) -> bytes:
    """The paper's per-packet byte budget: header cropped/padded to N_h,
    then payload cropped/padded to N_p."""
    h = header[:REPR.header_bytes].ljust(REPR.header_bytes, b"\0")
    p = payload[:REPR.payload_bytes].ljust(REPR.payload_bytes, b"\0")
    return h + p


def _payload_len(rng, long: bool) -> int:
    if not long:
        return int(rng.integers(0, MAX_SHORT_PAYLOAD))
    if rng.random() < LONG_ACK_SHARE:
        return 0
    return int(rng.integers(LONG_PAYLOAD[0], LONG_PAYLOAD[1] + 1))


def _flow_packets(rng, flow_id: int, label: int, long_packets: int):
    """One bidirectional flow, a bulk flow of ``long_packets`` packets if
    that is not 0: (frames, expected sample digest)."""
    version = 6 if rng.random() < 0.3 else 4
    proto = _UDP if rng.random() < 0.35 else _TCP
    vlan = rng.random() < 0.2
    hop_by_hop = version == 6 and rng.random() < 0.3
    alen = 4 if version == 4 else 16
    client = bytes([10, label, flow_id >> 8, flow_id & 0xFF]).ljust(alen, b"\x01")
    server = bytes([192, 0, 2, label + 1]).ljust(alen, b"\x02")
    cport = 20000 + flow_id
    sport = 1000 + 11 * label                # never a DHCP port
    tcp_words = int(rng.integers(5, 16))     # 20..60-byte TCP headers
    long = long_packets > 0
    n = long_packets or int(rng.integers(1, MAX_SHORT_PACKETS + 1))
    frames, rows = [], []
    for k in range(n):
        outbound = k == 0 or rng.random() < 0.6
        src, dst = (client, server) if outbound else (server, client)
        sp, dp = (cport, sport) if outbound else (sport, cport)
        payload = rng.integers(0, 256, size=_payload_len(rng, long),
                               dtype=np.uint8).tobytes()
        transport = _transport(proto, sp, dp, len(payload), tcp_words, rng)
        datagram, anon_ip = _ip(version, proto, src, dst, transport + payload,
                                hop_by_hop)
        ethertype = 0x0800 if version == 4 else 0x86DD
        frames.append(_eth(ethertype, datagram, vlan))
        if len(rows) < REPR.packets_per_flow:
            rows.append(_expected_row(anon_ip + transport, payload))
    flat = b"".join(rows).ljust(REPR.flow_bytes, b"\0")
    return frames, hashlib.sha256(flat).hexdigest()


def _skipped_frame(rng) -> bytes:
    if rng.random() < 0.5:                   # ARP request
        return _eth(0x0806, bytes(28), vlan=rng.random() < 0.3)
    udp = struct.pack(">HHHH", _DHCP_PORTS[1], _DHCP_PORTS[0], 8 + 240, 0)
    datagram, _ = _ip(4, _UDP, bytes(4), bytes([255] * 4), udp + bytes(240),
                      hop_by_hop=False)
    return _eth(0x0800, datagram, vlan=rng.random() < 0.3)


def _malformed_frame(rng) -> bytes:
    kind = int(rng.integers(0, 3))
    if kind == 0:                            # shorter than an Ethernet header
        return bytes(10)
    if kind == 1:                            # IPv4 header cut at 12 bytes
        return _eth(0x0800, bytes([0x45]) + bytes(11), vlan=False)
    return _eth(0x0800, bytes([0x55]) + bytes(39), vlan=False)  # version 5


def make_pcap_tree(root: Path, seed: int) -> dict:
    """<root>/class_XX/capture_YY.pcap with interleaved flows plus skipped
    and malformed frames; returns the ground truth."""
    rng = np.random.default_rng(seed)
    # each class's bulk flow lengths are spread evenly over LONG_PACKETS and
    # dealt out in a seeded order, so every seed and every class holds the
    # same number of bulk packets
    n_long = PCAP_FILES_PER_CLASS * LONG_FLOWS_PER_FILE
    lengths = np.linspace(*LONG_PACKETS, n_long).round().astype(int)
    truth = {"flows": {}, "digests": {}, "skipped": 0, "malformed": 0,
             "packets": 0, "files": 0}
    flow_id = 0
    for label in range(PCAP_CLASSES):
        name = f"class_{label:02d}"
        class_dir = root / name
        class_dir.mkdir(parents=True)
        digests = []
        long_lengths = iter(rng.permutation(lengths))
        for f in range(PCAP_FILES_PER_CLASS):
            streams = []
            kinds = [True] * LONG_FLOWS_PER_FILE + [False] * SHORT_FLOWS_PER_FILE
            for long in rng.permutation(kinds):
                frames, digest = _flow_packets(
                    rng, flow_id, label, int(next(long_lengths)) if long else 0)
                flow_id += 1
                digests.append(digest)
                streams.append(frames)
            # interleave: repeatedly take the next frame of a random live flow,
            # so every flow keeps its own order
            order = np.repeat(np.arange(len(streams)), [len(s) for s in streams])
            rng.shuffle(order)
            cursor = [0] * len(streams)
            frames = []
            for i in order:
                frames.append(streams[i][cursor[i]])
                cursor[i] += 1
            n_skip = int(round(SKIPPED_SHARE * len(frames)))
            n_bad = int(round(MALFORMED_SHARE * len(frames)))
            extra = ([_skipped_frame(rng) for _ in range(n_skip)]
                     + [_malformed_frame(rng) for _ in range(n_bad)])
            for frame in extra:
                frames.insert(int(rng.integers(0, len(frames) + 1)), frame)
            truth["skipped"] += n_skip
            truth["malformed"] += n_bad
            truth["packets"] += len(frames)
            packets = [RawPacket(ts_sec=1_700_000_000 + i // 1000,
                                 ts_nsec=(i % 1000) * 1000,
                                 link_bytes=frame, orig_len=len(frame))
                       for i, frame in enumerate(frames)]
            write_pcap(class_dir / f"capture_{f:02d}.pcap", packets)
            truth["files"] += 1
        truth["flows"][name] = len(digests)
        truth["digests"][str(label)] = sorted(digests)
    return truth


def _shuffled(samples, rng):
    return [samples[i] for i in rng.permutation(len(samples))]


def _shuffled_samples(per_class: int, seed: int):
    samples = data.synthetic_samples(N_CLASSES, per_class, REPR, seed)
    return _shuffled(samples, np.random.default_rng(seed + 1))


def make_training_files(root: Path, workload: str, seed: int) -> dict:
    root.mkdir(parents=True)
    if workload == "pretrain_paper":
        samples = _shuffled_samples(PRETRAIN_PER_CLASS, seed)
        data.write_samples(root / "train.nmstride", samples, REPR, N_CLASSES)
        return {"train": len(samples)}
    if workload == "finetune_paper":
        per_class = -(-(FINETUNE_TRAIN + FINETUNE_VAL + FINETUNE_TEST) // N_CLASSES)
        samples = data.synthetic_samples(N_CLASSES, per_class, REPR, seed)
        # train takes the same number of flows from every class; val and
        # test take the rest
        train_per_class = FINETUNE_TRAIN // N_CLASSES
        by_class = [[s for s in samples if s.label == c] for c in range(N_CLASSES)]
        rng = np.random.default_rng(seed + 1)
        train_part = _shuffled([s for group in by_class
                                for s in group[:train_per_class]], rng)
        rest = _shuffled([s for group in by_class
                          for s in group[train_per_class:]], rng)
        parts = {"train": train_part,
                 "val": rest[:FINETUNE_VAL],
                 "test": rest[FINETUNE_VAL:FINETUNE_VAL + FINETUNE_TEST]}
        for name, part in parts.items():
            data.write_samples(root / f"{name}.nmstride", part, REPR, N_CLASSES)
        return {name: len(part) for name, part in parts.items()}
    if workload == "infer_paper":
        samples = _shuffled_samples(INFER_FLOWS // N_CLASSES, seed)
        data.write_samples(root / "heldout.nmstride", samples, REPR, N_CLASSES)
        cfg = nm.ModelConfig(seq_len=REPR.n_strides + 1, num_classes=N_CLASSES)
        params = nm.init_params(cfg, np.random.default_rng(seed),
                                with_decoder=False, with_head=True)
        ckpt.save_model(root / "model.nmckpt", params)
        return {"heldout": len(samples)}
    raise ValueError(f"unknown workload {workload!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    if args.workload == "extract_pcap":
        truth = make_pcap_tree(out / "pcaps", args.seed)
    else:
        truth = make_training_files(out / "data", args.workload, args.seed)
    (out / "truth.json").write_text(json.dumps(truth))
    return 0


if __name__ == "__main__":
    sys.exit(main())
