"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the desk-scale learning criterion takes a few minutes of CPU.
"""

import struct
import time

import numpy as np
import pytest

from netmamba import autodiff as ad
from netmamba import bench
from netmamba import checkpoint as ckpt
from netmamba import model as nm
from netmamba import ssm
from netmamba import train
from netmamba.data import (read_samples, sample_writer, samples_to_arrays,
                           split_dataset, synthetic_samples)
from netmamba.metrics import compute_metrics
from netmamba.pcap import parse_capture, write_pcap
from netmamba.traffic import ReprConfig, assemble_flows, build_sample

from helpers import (conv_form_oracle, direct_scan_oracle,
                     discretize_loop_oracle, eth_frame, identity_scan,
                     ipv4_packet, max_rel_err, random_instance, raw,
                     softplus_inverse, tcp_segment, udp_datagram)
from test_metrics import brute_force


def _report(n: int, text: str) -> None:
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_1_ssm_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        B = int(rng.integers(1, 3))
        L = int(rng.integers(2, 17))
        E = int(rng.integers(1, 5))
        N = int(rng.integers(1, 5))
        delta, a, b_in, c, x = random_instance(rng, B, L, E, N,
                                               time_invariant=True)
        abar, bbar = discretize_loop_oracle(delta, a, b_in)
        # ssm.selective_scan through identity projections: the plain scan
        y = identity_scan(*(ad.Tensor(v) for v in
                            (softplus_inverse(delta), a, b_in, c, x))).data
        y_conv = conv_form_oracle(abar, bbar, c, x)
        y_direct = direct_scan_oracle(abar, bbar, c, x)
        worst = max(worst, np.abs(y - y_conv).max(), np.abs(y - y_direct).max())
    elapsed = time.perf_counter() - started
    assert worst < 1e-10
    assert elapsed < 5.0
    _report(1, f"scan vs conv oracle vs direct sum on 50 instances, "
               f"max abs err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_gradient_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    w7 = np.random.default_rng(7)

    def weighted(op, *tensors, shape):
        wt = w7.standard_normal(shape)
        return lambda: ad.sum(ad.mul(op(*tensors), wt))

    checks = []
    a, b = (ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
            for _ in range(2))
    checks.append(("add", weighted(ad.add, a, b, shape=(3, 4)), [a, b]))
    checks.append(("mul", weighted(ad.mul, a, b, shape=(3, 4)), [a, b]))
    u = ad.Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    for name in ("neg", "exp", "silu", "softplus"):
        checks.append((name, weighted(getattr(ad, name), u, shape=(4, 5)), [u]))
    m1 = ad.Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    m2 = ad.Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    checks.append(("matmul", weighted(ad.matmul, m1, m2, shape=(2, 3, 2)),
                   [m1, m2]))
    x = ad.Tensor(rng.standard_normal((2, 5, 6)), requires_grad=True)
    g = ad.Tensor(rng.standard_normal(6), requires_grad=True)
    checks.append(("rmsnorm", weighted(ad.rmsnorm, x, g, shape=(2, 5, 6)),
                   [x, g]))
    checks.append(("layernorm", weighted(ad.layernorm, x, g, shape=(2, 5, 6)),
                   [x, g]))
    cx = ad.Tensor(rng.standard_normal((2, 7, 3)), requires_grad=True)
    cw = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    cb = ad.Tensor(rng.standard_normal(3), requires_grad=True)
    checks.append(("causal_conv1d",
                   weighted(ad.causal_conv1d, cx, cw, cb, shape=(2, 7, 3)),
                   [cx, cw, cb]))
    s = ad.Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    w_slice = w7.standard_normal((2, 3))
    checks.append(("slice", lambda: ad.sum(ad.mul(s[1:3, ::2], w_slice)), [s]))
    checks.append(("concat", weighted(lambda p, q: ad.concat([p, q], axis=0),
                                      a, b, shape=(6, 4)), [a, b]))
    checks.append(("permute", weighted(lambda p: ad.permute(p, (1, 0, 2)),
                                       m1, shape=(3, 2, 4)), [m1]))
    w_sum = w7.standard_normal((2, 4))
    checks.append(("sum", lambda: ad.sum(ad.mul(ad.sum(m1, axis=1), w_sum)),
                   [m1]))
    w_mean = w7.standard_normal(3)
    checks.append(("mean",
                   lambda: ad.sum(ad.mul(ad.mean(m1, axis=(0, 2)), w_mean)),
                   [m1]))
    logits = ad.Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    checks.append(("softmax_cross_entropy",
                   lambda: ad.softmax_cross_entropy(logits, [0, 3, 1, 4]),
                   [logits]))
    pred = ad.Tensor(rng.standard_normal((2, 5, 3)), requires_grad=True)
    tgt = rng.standard_normal((2, 5, 3))
    checks.append(("mse", lambda: ad.mse(pred, tgt), [pred]))

    worst_primitive = 0.0
    for name, f, wrt in checks:
        err = max_rel_err(f, wrt)
        assert err < 1e-6, f"{name}: relative error {err:.3e}"
        worst_primitive = max(worst_primitive, err)

    # composed block at the reference dims (B=2, L=8, D=8, E=16, N=4)
    params = ssm.init_mamba_block(ssm.SSMDims(d=8, e=16, n=4, r=4), rng,
                                  dtype=np.float64)
    params.dt_bias.data[:] = rng.uniform(0.2, 0.8, size=16)
    bx = ad.Tensor(rng.standard_normal((2, 8, 8)), requires_grad=True)
    bw = w7.standard_normal((2, 8, 8))
    f = lambda: ad.sum(ad.mul(ssm.block_forward(bx, params), bw))
    block_err = max_rel_err(f, [bx] + [t for _, t in params.named()])
    elapsed = time.perf_counter() - started
    assert block_err < 1e-3
    assert elapsed < 60.0
    _report(2, f"primitive max rel err {worst_primitive:.2e} (< 1e-6), "
               f"composed block {block_err:.2e} (< 1e-3), {elapsed:.1f}s")


def test_criterion_3_encoder_causality():
    cfg = nm.ModelConfig(stride_len=4, d_enc=16, e_enc=32, depth_enc=4,
                         d_dec=8, e_dec=16, depth_dec=1, state_dim=4,
                         dt_rank=4, seq_len=25)
    rng = np.random.default_rng(303)
    params = nm.init_params(cfg, rng, dtype=np.float64)
    x = rng.standard_normal((1, cfg.seq_len, cfg.d_enc))
    encoder = lambda rows: ssm.stack_forward(ad.Tensor(rows), params.enc_blocks,
                                             params.enc_norm).data
    base = encoder(x)
    for probe in range(20):
        t = int(rng.integers(1, cfg.seq_len))
        bumped = x.copy()
        bumped[:, t] += rng.standard_normal(cfg.d_enc)
        out = encoder(bumped)
        assert np.array_equal(base[:, :t], out[:, :t]), f"probe {probe} at {t}"
    _report(3, "4-block encoder: 20 perturbation probes leave earlier "
               "rows bit-identical")


def test_criterion_4_representation_golden_files(tmp_path):
    cfg = ReprConfig()  # M=5, N_h=80, N_p=240, L_s=4
    model_cfg = nm.ModelConfig()
    assert cfg.flow_bytes == 1600
    assert cfg.n_strides == 400
    assert model_cfg.seq_len == 401 == cfg.n_strides + 1
    plan = nm.make_mask(model_cfg.seq_len, model_cfg.mask_ratio,
                        np.random.default_rng(0))
    assert len(plan.visible) + 1 == 41 and len(plan.masked) == 360

    # hand-crafted packets; every construction parameter is known exactly
    tcp_payload_1 = bytes(range(1, 101))
    tcp_payload_2 = bytes([0xAB] * 300)
    udp_payload = bytes([7] * 30)
    vlan_payload = bytes(range(50, 90))
    tcp1 = ipv4_packet(tcp_segment(tcp_payload_1, 40001, 443), 6,
                       "192.168.1.10", "10.1.2.3")
    tcp2 = ipv4_packet(tcp_segment(tcp_payload_2, 443, 40001), 6,
                       "10.1.2.3", "192.168.1.10")
    udp1 = ipv4_packet(udp_datagram(udp_payload, 50000, 9999), 17,
                       "172.16.0.1", "172.16.0.2")
    vlan_tcp = ipv4_packet(tcp_segment(vlan_payload, 1234, 80), 6,
                           "192.0.2.1", "192.0.2.2")
    packets = [
        raw(eth_frame(tcp1, 0x0800), ts_sec=1),
        raw(eth_frame(bytes(28), 0x0806), ts_sec=2),            # ARP, dropped
        raw(eth_frame(udp1, 0x0800), ts_sec=3),
        raw(eth_frame(tcp2, 0x0800), ts_sec=4),
        raw(eth_frame(vlan_tcp, 0x0800, vlan_tcis=(5,)), ts_sec=5),
    ]
    pcap_path = tmp_path / "golden.pcap"
    write_pcap(pcap_path, packets)

    flows = assemble_flows(parse_capture(pcap_path), cfg)
    assert len(flows) == 3  # TCP conversation, UDP flow, VLAN flow
    out_path = tmp_path / "golden.nmstride"
    with sample_writer(out_path, cfg, num_classes=1) as writer:
        for flow in flows:
            writer.append(0, build_sample(flow, cfg))

    # expected bytes assembled independently, straight from the definitions
    def expect_row(ip: bytes, transport_header: int, payload: bytes) -> bytes:
        anon = ip[:12] + bytes(8) + ip[20:]
        header = anon[:20 + transport_header]
        return (header[:80] + bytes(80 - min(len(header), 80))
                + payload[:240] + bytes(240 - min(len(payload), 240)))

    flow_a = (expect_row(tcp1, 20, tcp_payload_1)
              + expect_row(tcp2, 20, tcp_payload_2) + bytes(3 * 320))
    flow_b = expect_row(udp1, 8, udp_payload) + bytes(4 * 320)
    flow_c = expect_row(vlan_tcp, 20, vlan_payload) + bytes(4 * 320)
    expected = b"NMSTRIDE" + struct.pack("<H", 1)
    expected += struct.pack("<6I", 5, 80, 240, 4, 1, 3)
    for flow_bytes in (flow_a, flow_b, flow_c):
        assert len(flow_bytes) == 1600
        expected += struct.pack("<I", 0) + flow_bytes
    assert out_path.read_bytes() == expected

    loaded = read_samples(out_path)
    assert loaded.strides.shape == (3, 400, 4)
    # short flows were padded: trailing packet slots are all zero
    assert not loaded.data[1][320:].any()
    _report(4, "golden pcap (TCP, UDP, VLAN, ARP-drop, short-flow padding) "
               "produced byte-exact NMSTRIDE; L_b=1600 N_s=400 L=401 L_vis=41")


def test_criterion_5_masking_statistics():
    rng = np.random.default_rng(505)
    counts = np.zeros(400)
    for _ in range(1000):
        plan = nm.make_mask(401, 0.9, rng)
        assert 400 not in plan.visible and 400 not in plan.masked
        assert plan.visible.size == 40
        counts[plan.visible] += 1
    freq = counts / 1000.0
    spread = np.abs(freq - 0.10).max()
    assert spread <= 0.05
    _report(5, f"1000 plans: class token always visible, stride visibility "
               f"within {spread:.3f} of 10%")


def test_criterion_6_parameter_counts():
    pre, fin = nm.count_parameters(nm.ModelConfig(num_classes=20))
    assert abs(pre - 2.2e6) <= 0.15 * 2.2e6
    assert abs(fin - 1.9e6) <= 0.15 * 1.9e6
    _report(6, f"pre-training params {pre/1e6:.3f}M (2.2M +/- 15%), "
               f"fine-tuning params {fin/1e6:.3f}M (1.9M +/- 15%)")


DESK_REPR = ReprConfig(packets_per_flow=5, header_bytes=48, payload_bytes=16,
                       stride_len=4)
DESK_MODEL = nm.ModelConfig(
    stride_len=4, d_enc=64, e_enc=128, depth_enc=2, d_dec=32, e_dec=64,
    depth_dec=1, state_dim=8, dt_rank=8,
    seq_len=DESK_REPR.n_strides + 1, mask_ratio=0.9, num_classes=10)


def test_criterion_7_desk_scale_learning(tmp_path):
    started = time.perf_counter()
    samples = synthetic_samples(10, 200, DESK_REPR, seed=0)
    all_strides, _ = samples_to_arrays(samples)

    # (a) 500 pre-training steps on 2000 samples halve the masked MSE
    tcfg = train.pretrain_defaults(steps=500, batch_size=32, lr=2e-3, seed=1,
                                   log_every=5)
    pre = train.pretrain(all_strides, DESK_MODEL, tcfg, out_dir=tmp_path)
    first20 = np.mean([l for s, l, _ in pre.log if s < 20])
    last20 = np.mean([l for s, l, _ in pre.log if s >= tcfg.steps - 20])
    assert last20 <= 0.5 * first20, f"{last20:.4f} vs first-20 mean {first20:.4f}"

    # (b) fine-tuning the pre-trained model reaches >=95% test accuracy
    tr, va, te = split_dataset(samples, (0.8, 0.1, 0.1), seed=0)
    splits = {"train": samples_to_arrays(tr), "val": samples_to_arrays(va),
              "test": samples_to_arrays(te)}
    ft_cfg = train.finetune_defaults(epochs=60, batch_size=32, seed=2,
                                     early_stop_val_acc=0.995)
    full = train.finetune(splits, DESK_MODEL, ft_cfg,
                          init=tmp_path / "last.nmckpt")
    assert full.report.accuracy >= 0.95
    assert len(full.history) <= 60

    # ...and beats (or ties) from-scratch at 10% of the training data under
    # an identical tight budget
    tx, ty = splits["train"]
    rng = np.random.default_rng(3)
    keep: list[int] = []
    for c in range(10):
        idx = np.where(ty == c)[0]
        keep.extend(rng.choice(idx, size=max(len(idx) // 10, 1), replace=False))
    sel = np.array(sorted(keep))
    few = {"train": (tx[sel], ty[sel]), "val": splits["val"],
           "test": splits["test"]}
    few_cfg = train.finetune_defaults(epochs=10, batch_size=32, seed=4)
    few_pre = train.finetune(few, DESK_MODEL, few_cfg,
                             init=tmp_path / "last.nmckpt")
    few_scr = train.finetune(few, DESK_MODEL, few_cfg)
    assert few_pre.report.accuracy >= few_scr.report.accuracy, (
        f"pretrained {few_pre.report.accuracy} < scratch {few_scr.report.accuracy}")
    elapsed = time.perf_counter() - started
    assert elapsed < 15 * 60
    _report(7, f"masked MSE {first20:.4f} -> {last20:.4f} "
               f"({100 * (1 - last20 / first20):.0f}% drop); full fine-tune acc "
               f"{full.report.accuracy:.3f} in {len(full.history)} epochs; "
               f"few-shot pretrained {few_pre.report.accuracy:.3f} >= scratch "
               f"{few_scr.report.accuracy:.3f}; {elapsed / 60:.1f} min")


def test_criterion_8_linear_time_scaling():
    # batch 1 and a narrow encoder keep every per-op working set inside
    # cache at all three lengths, so the fit reflects op counts rather
    # than a memory-hierarchy cliff between L=400 and L=1600
    cfg = nm.ModelConfig(stride_len=4, d_enc=32, e_enc=64, depth_enc=2,
                         d_dec=32, e_dec=64, depth_dec=1, state_dim=8,
                         dt_rank=8, seq_len=81, num_classes=10)
    exponent = bench.scaling_exponent(cfg, lengths=(400, 800, 1600),
                                      batch=1, repeats=7)
    assert exponent <= 1.3
    _report(8, f"encoder forward wall-clock exponent over L=(400,800,1600): "
               f"{exponent:.3f} (<= 1.3)")


def test_criterion_9_metric_oracle():
    rng = np.random.default_rng(909)
    for _ in range(100):
        C = int(rng.integers(2, 8))
        n = int(rng.integers(1, 80))
        y_true = rng.integers(0, C, n)
        y_pred = rng.integers(0, C, n)
        report = compute_metrics(y_true, y_pred, C)
        acc, wp, wr, wf = brute_force(list(y_true), list(y_pred), C)
        assert report.accuracy == acc
        assert report.precision == wp
        assert report.recall == wr
        assert report.f1 == wf
    _report(9, "weighted AC/PR/RC/F1 equal the per-sample loop on 100 random "
               "confusion matrices exactly")


def test_criterion_10_checkpoint_round_trip(tmp_path):
    repr_cfg = ReprConfig(packets_per_flow=2, header_bytes=24, payload_bytes=8,
                          stride_len=4)
    cfg = nm.ModelConfig(stride_len=4, d_enc=16, e_enc=32, depth_enc=1,
                         d_dec=8, e_dec=16, depth_dec=1, state_dim=4,
                         dt_rank=4, seq_len=repr_cfg.n_strides + 1,
                         mask_ratio=0.5, num_classes=2)
    samples = synthetic_samples(2, 24, repr_cfg, seed=5)
    strides, _ = samples_to_arrays(samples)

    # save -> load -> evaluate is bit-identical to in-memory evaluation
    tr, va, te = split_dataset(samples, (0.6, 0.2, 0.2), seed=1)
    splits = {"train": samples_to_arrays(tr), "val": samples_to_arrays(va),
              "test": samples_to_arrays(te)}
    ft = train.finetune(splits, cfg, train.finetune_defaults(
        epochs=3, batch_size=8, seed=6), out_dir=tmp_path / "ft")
    reloaded, _, _ = ckpt.load_model(tmp_path / "ft" / "best.nmckpt")
    x, y = splits["test"]
    assert train.evaluate(ft.params, x, y).to_json() == \
        train.evaluate(reloaded, x, y).to_json()
    np.testing.assert_array_equal(train.predict(ft.params, x),
                                  train.predict(reloaded, x))

    # resumed pre-training matches the uninterrupted run step-for-step
    tcfg = train.pretrain_defaults(steps=14, batch_size=8, seed=7, log_every=1)
    full = train.pretrain(strides, cfg, tcfg)
    train.pretrain(strides, cfg, tcfg, out_dir=tmp_path / "half", stop_at=7)
    resumed = train.pretrain(strides, cfg, tcfg,
                             resume=tmp_path / "half" / "last.nmckpt")
    assert resumed.log == full.log[7:]
    for (na, ta), (nb, tb) in zip(full.params.named(), resumed.params.named()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)
    _report(10, "save/load/evaluate bit-identical; resumed run replays the "
                "uninterrupted step stream exactly")
