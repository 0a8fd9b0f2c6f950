"""Embedding, masking, pre-training and fine-tuning forward passes."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from netmamba import autodiff as ad
from netmamba import model as nm
from netmamba import ssm, train
from netmamba.errors import ConfigError, ContractError, NumericFaultError, ShapeError

DEFAULT_CFG = nm.ModelConfig()

SMALL = nm.ModelConfig(
    stride_len=4, d_enc=16, e_enc=32, depth_enc=2, d_dec=8, e_dec=16,
    depth_dec=1, state_dim=4, seq_len=9, mask_ratio=0.5, num_classes=3,
    dt_rank=4,
)


def small_params(seed=0, dtype=np.float64, **kw):
    return nm.init_params(SMALL, np.random.default_rng(seed), dtype=dtype, **kw)


def test_embed_zero_sample_rows_equal_positional_table():
    params = small_params()
    x0 = nm.embed_batch(np.zeros((1, SMALL.n_strides, SMALL.stride_len)), params).data[0]
    np.testing.assert_allclose(x0[:-1], params.pos_enc.data[:-1], atol=1e-12)
    np.testing.assert_allclose(
        x0[-1], params.cls_token.data + params.pos_enc.data[-1], atol=1e-12)


def test_embed_default_shape():
    params = nm.init_params(DEFAULT_CFG, np.random.default_rng(0))
    x0 = nm.embed_batch(np.zeros((1, 400, 4), dtype=np.float32), params)
    assert x0.shape == (1, 401, 256)


def test_embed_locality_of_stride_rows():
    params = small_params()
    rng = np.random.default_rng(1)
    a = rng.random((SMALL.n_strides, SMALL.stride_len))
    b = a.copy()
    b[3] = rng.random(SMALL.stride_len)
    xa = nm.embed_batch(a[None], params).data[0]
    xb = nm.embed_batch(b[None], params).data[0]
    diff = np.abs(xa - xb).sum(axis=1)
    assert diff[3] > 0
    assert np.all(diff[np.arange(SMALL.seq_len) != 3] == 0)


def test_embed_rejects_wrong_stride_shape():
    params = small_params()
    with pytest.raises(ShapeError):
        nm.embed_batch(np.zeros((1, SMALL.n_strides, SMALL.stride_len + 1)), params)


def test_forwards_refuse_a_flow_without_its_batch_axis():
    # one flow's (n_strides, stride_len) bytes used to fail on a bare tuple
    # unpack; it is a ShapeError that names the expected shape
    rng = np.random.default_rng(2)
    flow = rng.integers(0, 256, (SMALL.n_strides, SMALL.stride_len), dtype=np.uint8)
    plans = [nm.make_mask(SMALL.seq_len, SMALL.mask_ratio, rng)]
    expected = f"expected a \\(batch, {SMALL.n_strides}, {SMALL.stride_len}\\)"
    with pytest.raises(ShapeError, match=expected):
        nm.embed_batch(nm.normalize_strides(flow), small_params())
    with pytest.raises(ShapeError, match=expected):
        nm.pretrain_forward(flow, plans, small_params(with_decoder=True))
    with pytest.raises(ShapeError, match=expected):
        nm.finetune_forward(flow, small_params(with_decoder=False, with_head=True))


def test_make_mask_default_counts():
    rng = np.random.default_rng(0)
    plan = nm.make_mask(401, 0.9, rng)
    # 41 visible rows with the class token: ceil(0.1 * 401)
    assert plan.visible.shape == (40,)
    assert plan.masked.shape == (360,)


def test_make_mask_partition_and_sorting():
    rng = np.random.default_rng(1)
    plan = nm.make_mask(21, 0.7, rng)
    assert sorted(np.concatenate([plan.visible, plan.masked])) == list(range(20))
    assert np.all(np.diff(plan.visible) > 0)
    assert 20 not in plan.visible and 20 not in plan.masked


def test_make_mask_vanishing_ratio_keeps_everything_visible():
    plan = nm.make_mask(11, 1e-9, np.random.default_rng(2))
    assert plan.masked.size == 0
    assert plan.visible.size == 10


def test_mask_statistics_monte_carlo():
    # visibility frequency per stride tracks the hypergeometric mean 40/400
    rng = np.random.default_rng(3)
    counts = np.zeros(400)
    for _ in range(1000):
        plan = nm.make_mask(401, 0.9, rng)
        counts[plan.visible] += 1
    freq = counts / 1000.0
    assert np.all(np.abs(freq - 0.10) <= 0.05)


def test_mask_plans_deterministic_for_fixed_seed():
    a = [nm.make_mask(51, 0.8, np.random.default_rng(9)) for _ in range(3)]
    b = [nm.make_mask(51, 0.8, np.random.default_rng(9)) for _ in range(3)]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.visible, y.visible)
        np.testing.assert_array_equal(x.masked, y.masked)


def encoder_rows(x0, params):
    """The encoder stack over arbitrary (B, L, d_enc) rows, every row read."""
    return ssm.stack_forward(x0, params.enc_blocks, params.enc_norm)


def batch_inputs(rng, n=2):
    strides = rng.integers(0, 256, (n, SMALL.n_strides, SMALL.stride_len),
                           dtype=np.uint8)
    return strides, nm.normalize_strides(strides, np.float64)


def test_pretrain_forward_shapes_and_loss_matches_external_mse():
    rng = np.random.default_rng(4)
    params = small_params(with_decoder=True)
    strides, norm = batch_inputs(rng)
    plans = [nm.make_mask(SMALL.seq_len, SMALL.mask_ratio, rng) for _ in range(2)]
    pred, loss = nm.pretrain_forward(strides, plans, params)
    n_masked = plans[0].masked.size
    assert pred.shape == (2, n_masked, SMALL.stride_len)
    tgt = np.stack([norm[b][plans[b].masked] for b in range(2)])
    assert loss.item() == pytest.approx(float(((pred.data - tgt) ** 2).mean()), rel=1e-12)


def test_pretrain_loss_zero_when_nothing_masked():
    rng = np.random.default_rng(5)
    params = small_params(with_decoder=True)
    strides, _ = batch_inputs(rng, n=1)
    plan = nm.MaskPlan(visible=np.arange(SMALL.n_strides),
                       masked=np.empty(0, dtype=np.int64))
    _, loss = nm.pretrain_forward(strides, [plan], params)
    assert loss.item() == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the inf itself
@pytest.mark.parametrize("stack, name", [("enc_blocks", "enc.0"), ("dec_blocks", "dec.0")])
def test_pretrain_forward_fault_names_the_stack_of_its_block(stack, name):
    # both stacks number their blocks from 0, so only the stack tells an
    # encoder fault from a decoder one
    rng = np.random.default_rng(6)
    params = small_params(with_decoder=True)
    getattr(params, stack)[0].w_out.data[:] = np.inf
    strides, _ = batch_inputs(rng)
    plans = [nm.make_mask(SMALL.seq_len, SMALL.mask_ratio, rng) for _ in range(2)]
    with pytest.raises(NumericFaultError, match=rf"^non-finite activation in block {name}$"):
        nm.pretrain_forward(strides, plans, params)


def test_forwards_refuse_float_strides():
    # a float batch may or may not be normalized already; the forwards
    # take bytes and normalize them once themselves
    rng = np.random.default_rng(6)
    strides, norm = batch_inputs(rng, n=1)
    plans = [nm.make_mask(SMALL.seq_len, SMALL.mask_ratio, rng)]
    pre = small_params(with_decoder=True)
    fine = small_params(with_decoder=False, with_head=True)
    nm.pretrain_forward(strides, plans, pre)
    nm.finetune_forward(strides, fine)
    with pytest.raises(ContractError, match="integer bytes"):
        nm.pretrain_forward(norm, plans, pre)
    with pytest.raises(ContractError, match="integer bytes"):
        nm.finetune_forward(norm, fine)


def test_untrained_reconstruction_loss_near_uniform_variance():
    # random bytes, fresh model: masked MSE should sit near Var(U[0,1]) = 1/12
    cfg = nm.ModelConfig(d_enc=32, e_enc=64, depth_enc=1, d_dec=16, e_dec=32,
                         depth_dec=1, state_dim=8, dt_rank=8, seq_len=401)
    rng = np.random.default_rng(7)
    params = nm.init_params(cfg, rng, dtype=np.float64)
    strides = rng.integers(0, 256, (4, 400, 4), dtype=np.uint8)
    plans = [nm.make_mask(401, 0.9, rng) for _ in range(4)]
    _, loss = nm.pretrain_forward(strides, plans, params)
    assert 1 / 12 * 0.5 <= loss.item() <= 1 / 12 * 1.5


def test_finetune_logits_shape_and_softmax():
    rng = np.random.default_rng(9)
    params = small_params(with_decoder=False, with_head=True)
    strides, _ = batch_inputs(rng)
    logits = nm.finetune_forward(strides, params)
    assert logits.shape == (2, SMALL.num_classes)
    p = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)


def test_finetune_sees_last_stride():
    # causality means the trailing class token aggregates every stride,
    # including the one immediately before it
    rng = np.random.default_rng(10)
    params = small_params(with_decoder=False, with_head=True)
    strides, _ = batch_inputs(rng, n=1)
    base = nm.finetune_forward(strides, params).data
    bumped = strides.copy()
    bumped[0, -1] = 255 - bumped[0, -1]
    out = nm.finetune_forward(bumped, params).data
    assert not np.allclose(base, out)


@pytest.mark.parametrize("rows", (1, 2, 4, 5), ids=lambda r: f"{r}rows")
@pytest.mark.parametrize("dtype", (np.float64, np.float32))
def test_streamed_encoder_and_logits_match_grad_mode(monkeypatch, rows, dtype):
    # no-grad passes walk the 9-row sequence in row chunks; grad-mode
    # passes run it whole. A chunk holding the sequence gives the same bits
    rng = np.random.default_rng(12)
    params = small_params(dtype=dtype, with_decoder=False, with_head=True)
    strides, _ = batch_inputs(rng, n=3)
    x0 = nm.embed_batch(nm.normalize_strides(strides, dtype), params)
    whole = encoder_rows(x0, params).data
    logits = nm.finetune_forward(strides, params).data
    monkeypatch.setattr(ssm, "_STREAM_BLOCK", rows * 3 * SMALL.e_enc)
    with ad.no_grad():
        streamed = encoder_rows(x0, params).data
        streamed_logits = nm.finetune_forward(strides, params).data
    assert streamed.shape == whole.shape == (3, SMALL.seq_len, SMALL.d_enc)
    for got, ref in ((streamed, whole), (streamed_logits, logits)):
        if dtype == np.float64:
            assert np.abs(got - ref).max() <= 1e-12
        else:
            assert np.abs(got - ref).max() / np.abs(ref).max() <= 1e-5


def test_streamed_predictions_equal_one_at_a_time(monkeypatch):
    rng = np.random.default_rng(13)
    params = small_params(dtype=np.float32, with_decoder=False, with_head=True)
    strides, _ = batch_inputs(rng, n=6)
    monkeypatch.setattr(ssm, "_STREAM_BLOCK", 2 * 6 * SMALL.e_enc)
    batched = train.predict(params, strides, batch_size=6)
    single = train.predict(params, strides, batch_size=1)
    assert np.array_equal(batched, single)
    assert np.array_equal(batched, train.predict(params, strides, batch_size=6))


def full_read_logits(x0, params):
    """The head over the last row of the encoder's whole (B, L, d_enc)
    output: what classification computes when every row is read."""
    cls = encoder_rows(x0, params)[:, -1, :]
    hidden = ad.silu(ad.add(ad.matmul(cls, params.head_w1), params.head_b1))
    return ad.add(ad.matmul(hidden, params.head_w2), params.head_b2)


def assert_logits_close(got, ref, dtype):
    if dtype == np.float64:
        assert np.abs(got - ref).max() <= 1e-12
    else:
        assert np.abs(got - ref).max() / np.abs(ref).max() <= 1e-5


@pytest.mark.parametrize("seq_len, batch, rows, pos", [
    (9, 3, 4, True),      # L not a multiple of the chunk; the last chunk
    (9, 3, 8, True),      # holds only the class token
    (9, 3, 5, True),
    (9, 3, 1, True),
    (2, 2, 1, True),      # L < k-1: the conv's past is shorter than its taps
    (9, 1, 2, True),      # one flow
    (9, 3, 4, False),     # no positional table
    (9, 3, 40, True),     # one chunk holds the sequence
], ids=("9by4", "9by8", "9by5", "9by1", "2by1", "B1", "no-pos", "9by40"))
@pytest.mark.parametrize("dtype", (np.float64, np.float32))
def test_one_row_logits_match_grad_mode(monkeypatch, seq_len, batch, rows, pos,
                                        dtype):
    # no-grad logits embed and encode the flows a row chunk at a time and
    # form only the class-token row past the top block's scan; grad-mode
    # logits run the whole sequence in one chunk, and the reference reads
    # every row of the encoder's output
    cfg = nm.ModelConfig(**{**SMALL.to_dict(), "seq_len": seq_len,
                            "use_pos_embed": pos})
    rng = np.random.default_rng(seq_len + batch + rows)
    params = nm.init_params(cfg, rng, dtype=dtype, with_decoder=False,
                            with_head=True)
    for p in params.enc_blocks:   # steps large enough that the state matters
        p.dt_bias.data[:] = rng.uniform(0.2, 0.8, size=cfg.e_enc)
    strides = rng.integers(0, 256, (batch, cfg.n_strides, cfg.stride_len))
    graded = nm.finetune_forward(strides, params)
    assert graded.requires_grad
    full = full_read_logits(
        nm.embed_batch(nm.normalize_strides(strides, dtype), params), params).data
    monkeypatch.setattr(ssm, "_STREAM_BLOCK", rows * batch * cfg.e_enc)
    with ad.no_grad():
        streamed = nm.finetune_forward(strides, params)
    assert streamed.shape == (batch, cfg.num_classes)
    assert streamed.dtype == graded.dtype == dtype
    for got, ref in ((streamed.data, graded.data), (graded.data, full)):
        assert_logits_close(got, ref, dtype)
    if rows >= seq_len:
        assert streamed.data.tobytes() == graded.data.tobytes()


def test_one_row_logits_match_the_full_read_at_paper_width(monkeypatch):
    # the paper's widths in float32 at batch 2, streamed in 64-row chunks:
    # what the benchmark's prediction checks cannot see, the logits
    # themselves, held to the rows-read-in-full reference
    rng = np.random.default_rng(31)
    params = nm.init_params(DEFAULT_CFG, rng, with_decoder=False, with_head=True)
    strides = rng.integers(0, 256, (2, DEFAULT_CFG.n_strides, DEFAULT_CFG.stride_len))
    norm = nm.normalize_strides(strides)
    with ad.no_grad():
        full = full_read_logits(nm.embed_batch(norm, params), params).data
        monkeypatch.setattr(ssm, "_STREAM_BLOCK", 64 * 2 * DEFAULT_CFG.e_enc)
        streamed = nm.finetune_forward(strides, params).data
    graded = nm.finetune_forward(strides, params).data
    assert full.dtype == streamed.dtype == graded.dtype == np.float32
    assert_logits_close(streamed, full, np.float32)
    assert_logits_close(graded, full, np.float32)


def test_embedded_rows_are_the_rows_of_the_whole_embedding():
    rng = np.random.default_rng(32)
    params = small_params()
    _, norm = batch_inputs(rng, n=3)
    whole = nm.embed_batch(norm, params).data
    assert nm.embed_batch(norm, params, slice(0, SMALL.seq_len)).data.tobytes() \
        == whole.tobytes()
    for r0, r1 in ((0, 1), (2, 7), (5, 9), (8, 9), (0, 8)):
        part = nm.embed_batch(norm, params, slice(r0, r1)).data
        np.testing.assert_allclose(part, whole[:, r0:r1], rtol=1e-14, atol=0)


def test_no_grad_classification_memory_does_not_grow_with_length(monkeypatch):
    # in 32-row chunks, the no-grad peak of a batch at L=1024 exceeds the
    # one at L=256 by no more than the longer strides input plus a little:
    # no (B, L, d_enc) embedding or encoder output is formed
    B = 2
    monkeypatch.setattr(ssm, "_STREAM_BLOCK", 32 * B * SMALL.e_enc)
    peaks = {}
    for L in (256, 1024):
        cfg = nm.ModelConfig(**{**SMALL.to_dict(), "seq_len": L})
        params = nm.init_params(cfg, np.random.default_rng(L), with_decoder=False,
                                with_head=True)
        strides = np.random.default_rng(L).integers(0, 256, (B, L - 1, 4))
        with ad.no_grad():
            nm.finetune_forward(strides, params)  # first-call allocations
            tracemalloc.start()
            try:
                logits = nm.finetune_forward(strides, params)
                peaks[L] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert logits.shape == (B, cfg.num_classes)
    allowance = B * (1024 - 256) * SMALL.stride_len * 8 + 16 * 1024
    assert allowance < B * (1024 - 256) * SMALL.d_enc * 8 / 2   # half an embedding's growth
    assert peaks[1024] - peaks[256] <= allowance


def test_class_token_jacobian_covers_all_strides():
    rng = np.random.default_rng(11)
    params = small_params(with_decoder=False, with_head=True)
    _, norm = batch_inputs(rng, n=1)
    x0 = nm.embed_batch(norm, params)
    leaf = ad.Tensor(x0.data, requires_grad=True)
    ad.backward(ad.sum(ssm.stack_forward(leaf, params.enc_blocks, params.enc_norm,
                                         tail=1)))
    row_norms = np.abs(leaf.grad[0]).sum(axis=1)
    assert np.all(row_norms > 0)


def test_finetune_requires_head_and_classes():
    # a single-class config is fine for pre-training, but the head rejects it
    cfg = nm.ModelConfig(**{**SMALL.to_dict(), "num_classes": 1})
    with pytest.raises(ConfigError):
        nm.init_params(cfg, np.random.default_rng(0), with_head=True)


def test_config_rejects_invalid_num_classes_never():
    # num_classes is irrelevant during pre-training; only head init enforces it
    cfg = nm.ModelConfig(num_classes=1)
    assert cfg.num_classes == 1


def test_parameter_counts_match_reported_sizes():
    pre, fin = nm.count_parameters(
        nm.ModelConfig(num_classes=20))
    assert 2.2e6 * 0.85 <= pre <= 2.2e6 * 1.15
    assert 1.9e6 * 0.85 <= fin <= 1.9e6 * 1.15


def test_parameter_count_linear_in_depth():
    base = nm.ModelConfig(num_classes=20)
    doubled = nm.ModelConfig(num_classes=20, depth_enc=8)
    pre1, _ = nm.count_parameters(base)
    pre2, _ = nm.count_parameters(doubled)
    block = sum(t.size for _, t in
                nm.init_params(base, np.random.default_rng(0)).enc_blocks[0].named())
    assert pre2 - pre1 == 4 * block


def test_ablation_toggles_keep_shapes():
    rng = np.random.default_rng(13)
    cfg = nm.ModelConfig(**{**SMALL.to_dict(), "use_pos_embed": False})
    params = nm.init_params(cfg, rng, dtype=np.float64, with_head=True)
    strides = rng.integers(0, 256, (1, cfg.n_strides, cfg.stride_len), dtype=np.uint8)
    logits = nm.finetune_forward(strides, params)
    assert logits.shape == (1, cfg.num_classes)


def test_no_pos_embed_changes_embedding():
    rng = np.random.default_rng(14)
    cfg = nm.ModelConfig(**{**SMALL.to_dict(), "use_pos_embed": False})
    params = nm.init_params(cfg, rng, dtype=np.float64)
    x0 = nm.embed_batch(np.zeros((1, cfg.n_strides, cfg.stride_len)), params)
    np.testing.assert_array_equal(x0.data[0, :-1], 0.0)


def test_patch_tokens_layout():
    flat = (np.arange(1600) % 256).astype(np.uint8).reshape(1, 1600)
    tokens = nm.patch_tokens(flat, stride_len=4)
    assert tokens.shape == (1, 400, 4)
    matrix = flat[0].reshape(40, 40)
    np.testing.assert_array_equal(
        tokens[0, 0], [matrix[0, 0], matrix[0, 1], matrix[1, 0], matrix[1, 1]])
    np.testing.assert_array_equal(
        tokens[0, 1], [matrix[0, 2], matrix[0, 3], matrix[1, 2], matrix[1, 3]])
    # second grid row starts at matrix rows 2-3
    np.testing.assert_array_equal(
        tokens[0, 20], [matrix[2, 0], matrix[2, 1], matrix[3, 0], matrix[3, 1]])


def test_patch_tokens_requires_square():
    # the model config refuses each geometry that patch_tokens cannot cut;
    # an odd stride_len, here 1, is refused before the side test, which
    # would divide by zero
    for seq_len, stride_len, message in [
            (13, 4, "patch splitting needs a square byte count, got 48"),
            (65, 1, "patch splitting needs an even stride_len"),
            (3, 18, "matrix side 6 is not divisible by the 2x9 patch shape")]:
        geometry = {"seq_len": seq_len, "stride_len": stride_len}
        nm.ModelConfig(**geometry)
        with pytest.raises(ConfigError, match=message):
            nm.ModelConfig(**geometry, patch_split=True)


def test_patch_split_forwards_read_patch_tokens():
    # the same tensors under patch_split read a byte batch exactly as the
    # stride model reads its 2-D patches; 16 strides of 4 bytes make an 8x8
    # matrix of 2x2 patches
    rng = np.random.default_rng(15)
    cfg = nm.ModelConfig(**{**SMALL.to_dict(), "seq_len": 17})
    strides = rng.integers(0, 256, (2, cfg.n_strides, cfg.stride_len), dtype=np.uint8)
    patches = nm.patch_tokens(strides.reshape(2, -1), cfg.stride_len)
    assert not np.array_equal(patches, strides)
    plans = [nm.make_mask(cfg.seq_len, cfg.mask_ratio, rng) for _ in range(2)]
    for kw in ({"with_decoder": True}, {"with_decoder": False, "with_head": True}):
        params = nm.init_params(cfg, np.random.default_rng(16), np.float64, **kw)
        patched = replace(params, cfg=replace(cfg, patch_split=True))
        if params.recon_w is not None:
            pred, loss = nm.pretrain_forward(strides, plans, patched)
            want, want_loss = nm.pretrain_forward(patches, plans, params)
            assert loss.item() == want_loss.item()
        else:
            pred = nm.finetune_forward(strides, patched)
            want = nm.finetune_forward(patches, params)
        np.testing.assert_array_equal(pred.data, want.data)


def test_init_is_deterministic():
    a = small_params(seed=21)
    b = small_params(seed=21)
    for (na, ta), (nb, tb) in zip(a.named(), b.named()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)
