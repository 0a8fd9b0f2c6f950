"""Checkpoint container round trips and mismatch detection."""

import numpy as np
import pytest

from netmamba import checkpoint as ckpt
from netmamba import model as nm
from netmamba.errors import CheckpointMismatchError, ParseError

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


def test_save_leaves_old_file_when_replace_fails(tmp_path, monkeypatch):
    path = tmp_path / "last.nmckpt"
    ckpt.save_checkpoint(path, {"w": np.ones((4, 4), dtype=np.float32)}, {"step": 1})
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("simulated crash")

    with monkeypatch.context() as m:
        m.setattr(ckpt.os, "replace", fail)
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
    with pytest.raises(CheckpointMismatchError, match="shape"):
        ckpt.load_encoder_weights(fin, path)


def test_optimizer_tensors_round_trip(tmp_path):
    params = nm.init_params(CFG, np.random.default_rng(7))
    opt = {"opt.m.embed.w": np.full((4, 16), 0.25, dtype=np.float32),
           "opt.v.embed.w": np.full((4, 16), 0.5, dtype=np.float32)}
    path = tmp_path / "m.nmckpt"
    ckpt.save_model(path, params, step=9, opt_tensors=opt)
    _, meta, extra = ckpt.load_model(path)
    assert meta["step"] == 9
    np.testing.assert_array_equal(extra["opt.m.embed.w"], opt["opt.m.embed.w"])
