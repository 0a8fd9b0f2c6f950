"""Checkpoint container round trips and mismatch detection."""

import os
import tracemalloc

import numpy as np
import pytest

from netmamba import autodiff as ad
from netmamba import checkpoint as ckpt
from netmamba import model as nm
from netmamba.errors import CheckpointMismatchError, ContractError, ParseError

CFG = nm.ModelConfig(stride_len=4, d_enc=16, e_enc=32, depth_enc=2, d_dec=8,
                     e_dec=16, depth_dec=1, state_dim=4, seq_len=9,
                     num_classes=3, dt_rank=4)


def test_container_round_trip(tmp_path):
    tensors = {
        "a": np.arange(6, dtype=np.float32).reshape(2, 3),
        "b.c": np.float32(np.pi).reshape(()) * np.ones((), dtype=np.float32),
    }
    path = tmp_path / "x.nmckpt"
    ckpt.save_checkpoint(path, tensors, {"step": 7, "note": "hi"})
    meta, loaded = ckpt.load_checkpoint(path)
    assert meta == {"step": 7, "note": "hi"}
    assert set(loaded) == {"a", "b.c"}
    np.testing.assert_array_equal(loaded["a"], tensors["a"])
    assert loaded["a"].dtype == np.float32


def test_save_writes_each_tensor_without_copying_it(tmp_path):
    # 8 MB of float32 tensors and one float64 tensor, which is converted:
    # the save's traced peak stays far below the checkpoint's size, and the
    # data section is every tensor's little-endian float32 bytes in order
    tensors = {f"w{i}": np.full((512, 512), i, dtype=np.float32)
               for i in range(8)}
    tensors["f64"] = np.arange(10, dtype=np.float64)
    data = b"".join(a.astype("<f4").tobytes() for a in tensors.values())
    path = tmp_path / "x.nmckpt"
    tracemalloc.start()
    try:
        ckpt.save_checkpoint(path, tensors, {"step": 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(data) / 20, (peak, len(data))
    assert path.read_bytes().endswith(data)


def test_save_leaves_old_file_when_replace_fails(tmp_path, monkeypatch):
    path = tmp_path / "last.nmckpt"
    ckpt.save_checkpoint(path, {"w": np.ones((4, 4), dtype=np.float32)}, {"step": 1})
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("simulated crash")

    with monkeypatch.context() as m:
        m.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="simulated crash"):
            ckpt.save_checkpoint(path, {"w": np.zeros((8, 8), dtype=np.float32)},
                                 {"step": 2})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["last.nmckpt"]
    ckpt.save_checkpoint(path, {"w": np.zeros((8, 8), dtype=np.float32)}, {"step": 2})
    assert ckpt.load_checkpoint(path)[0] == {"step": 2}
    assert [p.name for p in tmp_path.iterdir()] == ["last.nmckpt"]


def test_container_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE0000" + bytes(20))
    with pytest.raises(ParseError, match="magic"):
        ckpt.load_checkpoint(path)


@pytest.mark.parametrize("cut", (8, 10, 13))
def test_container_rejects_truncated_metadata(tmp_path, cut):
    # a file cut inside its 4-byte header length used to fail in struct
    # with a traceback; one cut inside the JSON block was already refused
    path = tmp_path / "t.nmckpt"
    ckpt.save_checkpoint(path, {"w": np.ones(3, dtype=np.float32)}, {})
    path.write_bytes(path.read_bytes()[:cut])
    for load in (ckpt.load_checkpoint, ckpt.load_model):
        with pytest.raises(ParseError, match="truncated checkpoint metadata"):
            load(path)


def test_container_rejects_truncated_data(tmp_path):
    path = tmp_path / "t.nmckpt"
    ckpt.save_checkpoint(path, {"w": np.ones((4, 4), dtype=np.float32)}, {})
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CheckpointMismatchError, match="w"):
        ckpt.load_checkpoint(path)


def test_container_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "t.nmckpt"
    ckpt.save_checkpoint(path, {"w": np.ones(3, dtype=np.float32)}, {})
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(ParseError, match="trailing"):
        ckpt.load_checkpoint(path)


def test_model_round_trip_is_exact(tmp_path):
    params = nm.init_params(CFG, np.random.default_rng(3), with_decoder=True)
    path = tmp_path / "m.nmckpt"
    ckpt.save_model(path, params, step=42)
    loaded, meta, extra = ckpt.load_model(path)
    assert meta["step"] == 42
    assert extra == {}
    assert loaded.cfg == CFG
    for (na, ta), (nb, tb) in zip(params.named(), loaded.named()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)


def test_retired_config_keys_at_paper_values_load_unchanged(tmp_path):
    path = tmp_path / "m.nmckpt"
    ckpt.save_model(path, nm.init_params(CFG, np.random.default_rng(3),
                                         with_decoder=False, with_head=True))
    strides = np.random.default_rng(4).integers(
        0, 256, (3, CFG.n_strides, CFG.stride_len), dtype=np.uint8)

    def logits():
        params, _, _ = ckpt.load_model(path)
        with ad.no_grad():
            return params.cfg, nm.finetune_forward(strides, params).data

    cfg_before, before = logits()
    meta, tensors = ckpt.load_checkpoint(path)
    meta["config"].update(norm="rms", recon_target="bytes", use_state_skip=False)
    ckpt.save_checkpoint(path, tensors, meta)
    cfg_after, after = logits()
    assert cfg_after == cfg_before == CFG
    np.testing.assert_array_equal(after, before)


def test_model_load_names_missing_tensor(tmp_path):
    params = nm.init_params(CFG, np.random.default_rng(3))
    tensors = ckpt.model_tensors(params)
    tensors.pop("enc.1.w_out")
    path = tmp_path / "m.nmckpt"
    ckpt.save_checkpoint(path, tensors,
                         {"config": CFG.to_dict(), "step": 0, "kind": "pretrain"})
    with pytest.raises(CheckpointMismatchError, match="enc.1.w_out"):
        ckpt.load_model(path)


def test_model_load_names_shape_mismatch(tmp_path):
    params = nm.init_params(CFG, np.random.default_rng(3))
    tensors = ckpt.model_tensors(params)
    tensors["embed.w"] = np.zeros((5, 5), dtype=np.float32)
    path = tmp_path / "m.nmckpt"
    ckpt.save_checkpoint(path, tensors,
                         {"config": CFG.to_dict(), "step": 0, "kind": "pretrain"})
    with pytest.raises(CheckpointMismatchError, match="embed.w"):
        ckpt.load_model(path)


def test_encoder_weights_transfer(tmp_path):
    pre = nm.init_params(CFG, np.random.default_rng(5), with_decoder=True)
    path = tmp_path / "pre.nmckpt"
    ckpt.save_model(path, pre)
    fin = nm.init_params(CFG, np.random.default_rng(6), with_decoder=False,
                         with_head=True)
    head_before = fin.head_w1.data.copy()
    ckpt.load_encoder_weights(fin, path)
    np.testing.assert_array_equal(fin.embed_w.data, pre.embed_w.data)
    np.testing.assert_array_equal(fin.enc_blocks[0].w_in_x.data,
                                  pre.enc_blocks[0].w_in_x.data)
    np.testing.assert_array_equal(fin.head_w1.data, head_before)


def test_encoder_transfer_rejects_wrong_width(tmp_path):
    pre = nm.init_params(CFG, np.random.default_rng(5), with_decoder=True)
    path = tmp_path / "pre.nmckpt"
    ckpt.save_model(path, pre)
    wide = nm.ModelConfig(**{**CFG.to_dict(), "d_enc": 32, "e_enc": 64})
    fin = nm.init_params(wide, np.random.default_rng(6), with_decoder=False,
                         with_head=True)
    with pytest.raises(CheckpointMismatchError, match="d_enc = 16, not 32"):
        ckpt.load_encoder_weights(fin, path)


def test_encoder_transfer_refuses_a_deeper_encoder(tmp_path):
    # a depth-3 encoder has a block that a depth-2 model has no place for
    deep = nm.ModelConfig(**{**CFG.to_dict(), "depth_enc": 3})
    path = tmp_path / "pre.nmckpt"
    ckpt.save_model(path, nm.init_params(deep, np.random.default_rng(5)))
    fin = nm.init_params(CFG, np.random.default_rng(6), with_decoder=False,
                         with_head=True)
    with pytest.raises(CheckpointMismatchError, match="depth_enc = 3, not 2"):
        ckpt.load_encoder_weights(fin, path)


def test_encoder_transfer_checks_the_checkpoint_config(tmp_path):
    # a retired key at a value the model no longer implements, with the
    # tensor it would have brought
    pre = nm.init_params(CFG, np.random.default_rng(5))
    path = tmp_path / "pre.nmckpt"
    ckpt.save_model(path, pre)
    meta, tensors = ckpt.load_checkpoint(path)
    meta["config"]["use_state_skip"] = True
    tensors["enc.0.state_skip"] = np.ones(CFG.e_enc, dtype=np.float32)
    ckpt.save_checkpoint(path, tensors, meta)
    fin = nm.init_params(CFG, np.random.default_rng(6), with_decoder=False,
                         with_head=True)
    with pytest.raises(CheckpointMismatchError, match="'use_state_skip' = True"):
        ckpt.load_encoder_weights(fin, path)
    meta["config"]["use_state_skip"] = False
    ckpt.save_checkpoint(path, tensors, meta)
    with pytest.raises(CheckpointMismatchError, match=r"enc\.0\.state_skip"):
        ckpt.load_encoder_weights(fin, path)


@pytest.mark.parametrize("name", ["junk", "enc.9.w_out", "opt.m.junk",
                                  "opt.v.enc.9.w_out", "opt.x.embed.w"])
def test_model_load_refuses_a_tensor_with_no_place(tmp_path, name):
    # neither a model tensor nor an optimizer moment of one: it used to come
    # back among the optimizer tensors
    params = nm.init_params(CFG, np.random.default_rng(3))
    tensors = {**ckpt.model_tensors(params), name: np.zeros(3, np.float32)}
    path = tmp_path / "m.nmckpt"
    ckpt.save_checkpoint(path, tensors,
                         {"config": CFG.to_dict(), "step": 0, "kind": "pretrain"})
    with pytest.raises(CheckpointMismatchError,
                       match=f"tensor {name} has no place in this model"):
        ckpt.load_model(path)
    fin = nm.init_params(CFG, np.random.default_rng(6), with_decoder=False,
                         with_head=True)
    with pytest.raises(CheckpointMismatchError, match=f"tensor {name} has no place"):
        ckpt.load_encoder_weights(fin, path)


def test_model_load_refuses_an_optimizer_moment_of_another_shape(tmp_path):
    params = nm.init_params(CFG, np.random.default_rng(3))
    opt = {"opt.v.embed.w": np.zeros((4, 8), dtype=np.float32)}
    path = tmp_path / "m.nmckpt"
    ckpt.save_model(path, params, opt_tensors=opt)
    with pytest.raises(CheckpointMismatchError,
                       match=r"opt\.v\.embed\.w has shape \(4, 8\), expected \(4, 16\)"):
        ckpt.load_model(path)


def test_checkpoint_without_patch_split_loads_stride_tokenizer(tmp_path):
    params = nm.init_params(CFG, np.random.default_rng(3))
    path = tmp_path / "m.nmckpt"
    ckpt.save_model(path, params)
    meta, tensors = ckpt.load_checkpoint(path)
    del meta["config"]["patch_split"]
    ckpt.save_checkpoint(path, tensors, meta)
    loaded, _, _ = ckpt.load_model(path)
    assert loaded.cfg.patch_split is False and loaded.cfg == CFG


def test_optimizer_tensors_round_trip(tmp_path):
    params = nm.init_params(CFG, np.random.default_rng(7))
    opt = {"opt.m.embed.w": np.full((4, 16), 0.25, dtype=np.float32),
           "opt.v.embed.w": np.full((4, 16), 0.5, dtype=np.float32)}
    path = tmp_path / "m.nmckpt"
    ckpt.save_model(path, params, step=9, opt_tensors=opt)
    _, meta, extra = ckpt.load_model(path)
    assert meta["step"] == 9
    np.testing.assert_array_equal(extra["opt.m.embed.w"], opt["opt.m.embed.w"])


def test_load_reads_each_tensor_into_place(tmp_path):
    # a paper-width fine-tuning model with both optimizer moments of every
    # tensor. Its parameters are read straight into their arrays and each
    # moment into an array of its own: the load holds what it returns plus
    # init_params' float64 draw of one tensor at a time. It used to hold the
    # file's bytes too, which the moments were views of
    params = nm.init_params(nm.ModelConfig(), np.random.default_rng(8),
                            with_decoder=False, with_head=True)
    opt = {f"opt.{k}.{name}": np.full(t.shape, i, dtype=np.float32)
           for k in "mv" for i, (name, t) in enumerate(params.named())}
    sizes = [t.data.nbytes for _, t in params.named()]
    for path, moments in ((tmp_path / "best.nmckpt", {}),
                          (tmp_path / "last.nmckpt", opt)):
        ckpt.save_model(path, params, opt_tensors=moments)
        ckpt.load_model(path)                   # first-call allocations
        tracemalloc.start()
        try:
            loaded, _, extra = ckpt.load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(sizes) * (1 + len(moments) // len(sizes))
        assert peak < held + 2 * max(sizes), (peak, held)
        for (_, got), (_, ref) in zip(loaded.named(), params.named()):
            assert got.data.tobytes() == ref.data.tobytes()
        assert extra.keys() == moments.keys()
        for name, m in extra.items():
            assert m.flags.owndata and m.tobytes() == moments[name].tobytes()


@pytest.mark.parametrize("decoder, head, kind", [
    (True, False, "pretrain"), (False, True, "finetune"),
    (False, False, None), (True, True, None),
], ids=["pretrain", "finetune", "encoder-only", "both"])
def test_save_model_writes_one_kind_per_model(tmp_path, decoder, head, kind):
    # load_model rebuilds a decoder or a head from the kind, so a model with
    # neither or both has no kind it could load back
    params = nm.init_params(CFG, np.random.default_rng(6), with_decoder=decoder,
                            with_head=head)
    path = tmp_path / "m.nmckpt"
    if kind is None:
        with pytest.raises(ContractError, match="both" if decoder else "neither"):
            ckpt.save_model(path, params)
        assert not path.exists()
        return
    ckpt.save_model(path, params)
    loaded, meta, extra = ckpt.load_model(path)
    assert meta["kind"] == kind and extra == {}
    assert [n for n, _ in loaded.named()] == [n for n, _ in params.named()]


@pytest.mark.parametrize("saved, other", [("pretrain", "finetune"),
                                          ("finetune", "pretrain")])
def test_load_model_refuses_a_checkpoint_of_another_kind(tmp_path, saved, other):
    params = nm.init_params(CFG, np.random.default_rng(8),
                            with_decoder=saved == "pretrain",
                            with_head=saved == "finetune")
    path = tmp_path / "m.nmckpt"
    ckpt.save_model(path, params)
    missing = "a decoder" if other == "pretrain" else "a classification head"
    with pytest.raises(CheckpointMismatchError,
                       match=f"{saved} checkpoint without {missing}"):
        ckpt.load_model(path, other)
    for kind in (None, saved):
        loaded, meta, _ = ckpt.load_model(path, kind)
        assert meta["kind"] == saved
        assert [n for n, _ in loaded.named()] == [n for n, _ in params.named()]
