"""Training-loop behavior at miniature scale: learning, determinism, the
best-checkpoint rule, and exact resume."""

from dataclasses import replace

import numpy as np
import pytest

from netmamba import checkpoint as ckpt
from netmamba import model as nm
from netmamba import train
from netmamba.data import samples_to_arrays, split_dataset, synthetic_samples
from netmamba.errors import ConfigError, DataError
from netmamba.traffic import ReprConfig

TINY_REPR = ReprConfig(packets_per_flow=2, header_bytes=24, payload_bytes=8,
                       stride_len=4)
TINY_MODEL = nm.ModelConfig(
    stride_len=4, d_enc=16, e_enc=32, depth_enc=1, d_dec=8, e_dec=16,
    depth_dec=1, state_dim=4, dt_rank=4,
    seq_len=TINY_REPR.n_strides + 1, mask_ratio=0.5, num_classes=2,
)


def tiny_dataset(n_classes=2, per_class=20, seed=0):
    samples = synthetic_samples(n_classes, per_class, TINY_REPR, seed=seed)
    return samples_to_arrays(samples)


def test_builtin_default_hyperparameters():
    pre = train.pretrain_defaults()
    assert (pre.batch_size, pre.lr, pre.steps) == (128, 1e-3, 150_000)
    fin = train.finetune_defaults()
    assert (fin.batch_size, fin.lr, fin.epochs) == (64, 2e-3, 120)


def test_pretrain_rejects_empty_dataset():
    tcfg = train.pretrain_defaults(steps=1, batch_size=2)
    with pytest.raises(ConfigError):
        train.pretrain(np.empty((0, 8, 4), dtype=np.uint8), TINY_MODEL, tcfg)


def test_pretrain_loss_decreases_and_logs(tmp_path):
    data, _ = tiny_dataset()
    strides = data.reshape(-1, TINY_REPR.n_strides, TINY_REPR.stride_len)
    tcfg = train.pretrain_defaults(steps=60, batch_size=8, lr=3e-3, seed=1,
                                   log_every=1)
    result = train.pretrain(strides, TINY_MODEL, tcfg, out_dir=tmp_path)
    losses = [row[1] for row in result.log]
    assert np.mean(losses[-10:]) < np.mean(losses[:10])
    log = (tmp_path / "loss_log.csv").read_text().splitlines()
    assert log[0] == "step,loss,lr"
    assert len(log) == 61
    assert (tmp_path / "best.nmckpt").exists()
    assert (tmp_path / "last.nmckpt").exists()


def test_pretrain_deterministic_logs():
    data, _ = tiny_dataset()
    strides = data.reshape(-1, TINY_REPR.n_strides, TINY_REPR.stride_len)
    tcfg = train.pretrain_defaults(steps=10, batch_size=4, seed=7, log_every=1)
    a = train.pretrain(strides, TINY_MODEL, tcfg)
    b = train.pretrain(strides, TINY_MODEL, tcfg)
    assert a.log == b.log


def test_pretrain_best_is_lowest_loss_of_any_step(tmp_path):
    data, _ = tiny_dataset()
    strides = data.reshape(-1, TINY_REPR.n_strides, TINY_REPR.stride_len)
    tcfg = train.pretrain_defaults(steps=12, batch_size=4, seed=5, log_every=1)
    every = train.pretrain(strides, TINY_MODEL, tcfg)
    losses = [row[1] for row in every.log]
    assert every.best_step == every.log[int(np.argmin(losses))][0]
    assert every.best_loss == min(losses)
    # sparse logging does not change which step is best, and best.nmckpt
    # is taken after that step
    sparse = train.pretrain(strides, TINY_MODEL, replace(tcfg, log_every=5),
                            out_dir=tmp_path)
    assert (sparse.best_step, sparse.best_loss) == (every.best_step, every.best_loss)
    meta, _ = ckpt.load_checkpoint(tmp_path / "best.nmckpt")
    assert meta["step"] == every.best_step


def test_pretrain_resume_matches_uninterrupted(tmp_path):
    data, _ = tiny_dataset()
    strides = data.reshape(-1, TINY_REPR.n_strides, TINY_REPR.stride_len)
    full_cfg = train.pretrain_defaults(steps=12, batch_size=4, seed=3, log_every=1)
    full = train.pretrain(strides, TINY_MODEL, full_cfg)

    train.pretrain(strides, TINY_MODEL, full_cfg, out_dir=tmp_path, stop_at=6)
    resumed = train.pretrain(strides, TINY_MODEL, full_cfg,
                             resume=tmp_path / "last.nmckpt")
    for (na, ta), (nb, tb) in zip(full.params.named(), resumed.params.named()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)
    # the resumed log continues the full run's step stream exactly
    assert resumed.log == full.log[6:]


def splits_for(data, labels, seed=0):
    class S:
        def __init__(self, flat, label):
            self.flat = flat
            self.label = label
    samples = [S(d, int(l)) for d, l in zip(data, labels)]
    tr, va, te = split_dataset(samples, (0.6, 0.2, 0.2), seed=seed)
    def pack(part):
        x = np.stack([s.flat for s in part]).reshape(
            -1, TINY_REPR.n_strides, TINY_REPR.stride_len)
        y = np.array([s.label for s in part], dtype=np.int64)
        return x, y
    return {"train": pack(tr), "val": pack(va), "test": pack(te)}


def test_finetune_learns_separable_classes(tmp_path):
    data, labels = tiny_dataset(per_class=30, seed=2)
    splits = splits_for(data, labels)
    tcfg = train.finetune_defaults(epochs=25, batch_size=8, seed=4,
                                   early_stop_val_acc=1.0)
    result = train.finetune(splits, TINY_MODEL, tcfg, out_dir=tmp_path)
    assert result.report.accuracy == 1.0
    assert result.best_val_acc == max(h[2] for h in result.history)
    first_best = next(e for e, _, acc in result.history
                      if acc == result.best_val_acc)
    assert result.best_epoch == first_best
    assert (tmp_path / "metrics.json").exists()
    assert (tmp_path / "history.csv").read_text().startswith(
        "epoch,train_loss,val_accuracy\n")


def test_finetune_from_pretrained_checkpoint(tmp_path):
    data, labels = tiny_dataset(per_class=12, seed=5)
    strides = data.reshape(-1, TINY_REPR.n_strides, TINY_REPR.stride_len)
    pre_cfg = train.pretrain_defaults(steps=20, batch_size=8, seed=6)
    train.pretrain(strides, TINY_MODEL, pre_cfg, out_dir=tmp_path)
    splits = splits_for(data, labels, seed=1)
    tcfg = train.finetune_defaults(epochs=4, batch_size=8, seed=7)
    result = train.finetune(splits, TINY_MODEL, tcfg,
                            init=tmp_path / "last.nmckpt")
    assert 0.0 <= result.report.accuracy <= 1.0
    assert len(result.history) == 4


def test_finetune_rejects_bad_labels():
    data, labels = tiny_dataset(per_class=6)
    splits = splits_for(data, labels)
    bad_x, bad_y = splits["train"]
    bad_y = bad_y.copy()
    bad_y[1] = 9
    splits["train"] = (bad_x, bad_y)
    tcfg = train.finetune_defaults(epochs=1, batch_size=4)
    with pytest.raises(DataError, match="sample 1"):
        train.finetune(splits, TINY_MODEL, tcfg)


def test_finetune_rejects_empty_val_split(tmp_path):
    data, labels = tiny_dataset(per_class=6)
    splits = splits_for(data, labels)
    val_x, val_y = splits["val"]
    splits["val"] = (val_x[:0], val_y[:0])
    tcfg = train.finetune_defaults(epochs=1, batch_size=4)
    with pytest.raises(ConfigError, match="validation split is empty"):
        train.finetune(splits, TINY_MODEL, tcfg, out_dir=tmp_path)
    assert not (tmp_path / "best.nmckpt").exists()


def test_evaluate_checkpoint_round_trip(tmp_path):
    data, labels = tiny_dataset(per_class=10, seed=8)
    splits = splits_for(data, labels, seed=2)
    tcfg = train.finetune_defaults(epochs=2, batch_size=8, seed=9)
    result = train.finetune(splits, TINY_MODEL, tcfg, out_dir=tmp_path)
    loaded, _, _ = ckpt.load_model(tmp_path / "best.nmckpt")
    x, y = splits["test"]
    direct = train.evaluate(result.params, x, y)
    reloaded = train.evaluate(loaded, x, y)
    assert direct.to_json() == reloaded.to_json()
    np.testing.assert_array_equal(train.predict(result.params, x),
                                  train.predict(loaded, x))


def test_evaluate_rejects_empty_split():
    params = nm.init_params(TINY_MODEL, np.random.default_rng(0), with_head=True,
                            with_decoder=False)
    with pytest.raises(ConfigError):
        train.evaluate(params, np.empty((0, 8, 4), dtype=np.uint8), np.empty(0))
