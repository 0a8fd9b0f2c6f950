"""End-to-end command surface: extract golden runs, train/evaluate flows,
config precedence, and exit codes."""

import json

import numpy as np
import pytest

from netmamba import cli
from netmamba.data import read_samples
from netmamba.pcap import write_pcap

from helpers import eth_frame, ipv4_packet, raw, tcp_segment

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
    assert run(["extract", "--input", pcaps, "--output", out,
                "--config", cfg, "--seed", 3]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["file_errors"]) == 1
    assert "broken.pcap" in summary["file_errors"][0]["file"]

def test_extract_balance_limits(workspace):
    tmp, pcaps, cfg = workspace
    out = tmp / "balanced"
    assert run(["extract", "--input", pcaps, "--output", out, "--config", cfg,
                "--limit-lower", 1, "--limit-upper", 10, "--seed", 5]) == 0
    summary = json.loads((out / "summary.json").read_text())
    for entry in summary["classes"].values():
        assert entry["flows_after_balance"] == 10

def test_unknown_config_key_is_usage_error(workspace):
    tmp, pcaps, _ = workspace
    bad = tmp / "bad.cfg"
    bad.write_text("frobnicate = 3\n")
    assert run(["extract", "--input", pcaps, "--output", tmp / "o",
                "--config", bad]) == 2

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
                    "--config", cfg, "--output", out]) == 0
    assert out1.read_bytes() == out2.read_bytes()

def test_finetune_from_scratch_ablation(extracted):
    tmp, dataset, cfg = extracted
    out = tmp / "scratch"
    assert run(["finetune", "--data", dataset, "--output", out,
                "--config", cfg, "--from-scratch", "--epochs", 1,
                "--batch", 8, "--seed", 4]) == 0
    assert (out / "best.nmckpt").exists()

def test_finetune_requires_init_choice(extracted):
    tmp, dataset, cfg = extracted
    assert run(["finetune", "--data", dataset, "--output", tmp / "x",
                "--config", cfg]) == 2

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

def test_flag_overrides_config_file(extracted, capsys):
    tmp, dataset, cfg = extracted
    pre_dir = tmp / "pre3"
    # config file says log_every=5; the step count comes from the flag
    assert run(["pretrain", "--data", dataset, "--output", pre_dir,
                "--config", cfg, "--steps", 7, "--batch", 4, "--seed", 0]) == 0
    log = (pre_dir / "loss_log.csv").read_text().splitlines()[1:]
    steps = [int(line.split(",")[0]) for line in log]
    assert steps == [0, 5, 6]  # log_every=5 from file, 7 steps from flag

def test_patch_split_config_path(extracted):
    tmp, dataset, cfg = extracted
    patch_cfg = tmp / "patch.cfg"
    patch_cfg.write_text(SMALL_CFG + "patch_split = true\n")
    out = tmp / "patch_pre"
    # L_b = 64 reshapes to an 8x8 matrix of 2x2 patches
    assert run(["pretrain", "--data", dataset, "--output", out,
                "--config", patch_cfg, "--steps", 3, "--batch", 4,
                "--seed", 0]) == 0
    assert (out / "last.nmckpt").exists()

def test_thread_cap_env(monkeypatch):
    monkeypatch.setenv("NETMAMBA_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    cli._cap_threads()
    import os
    assert os.environ["OMP_NUM_THREADS"] == "3"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"

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
    assert "scaling exponent" in capsys.readouterr().out
