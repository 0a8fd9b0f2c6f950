"""Training-loop behavior at miniature scale: learning, determinism, the
best-checkpoint rule, and exact resume."""

import weakref
from dataclasses import replace

import numpy as np
import pytest

from netmamba import checkpoint as ckpt
from netmamba import model as nm
from netmamba import train
from netmamba.data import (
    StrideSample, samples_to_arrays, split_dataset, synthetic_samples,
)
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
    strides, _ = tiny_dataset()
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
    strides, _ = tiny_dataset()
    tcfg = train.pretrain_defaults(steps=10, batch_size=4, seed=7, log_every=1)
    a = train.pretrain(strides, TINY_MODEL, tcfg)
    b = train.pretrain(strides, TINY_MODEL, tcfg)
    assert a.log == b.log


def test_pretrain_best_is_lowest_loss_of_any_step(tmp_path):
    strides, _ = tiny_dataset()
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
    strides, _ = tiny_dataset()
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


def test_pretrain_refuses_a_stop_at_that_runs_no_step(tmp_path):
    # a run of no steps would write a last.nmckpt without optimizer moments,
    # which --resume refuses
    strides, _ = tiny_dataset(per_class=4)
    tcfg = train.pretrain_defaults(steps=6, batch_size=4, seed=3)
    with pytest.raises(ConfigError, match="starts at step 0 and ends at step 0"):
        train.pretrain(strides, TINY_MODEL, tcfg, out_dir=tmp_path, stop_at=0)
    assert not (tmp_path / "last.nmckpt").exists()
    train.pretrain(strides, TINY_MODEL, tcfg, out_dir=tmp_path, stop_at=3)
    with pytest.raises(ConfigError, match="starts at step 3 and ends at step 3"):
        train.pretrain(strides, TINY_MODEL, tcfg, stop_at=3,
                       resume=tmp_path / "last.nmckpt")
    resumed = train.pretrain(strides, TINY_MODEL, tcfg, stop_at=4,
                             resume=tmp_path / "last.nmckpt")
    assert [row[0] for row in resumed.log] == [3]


def test_pretrain_resume_keeps_the_checkpoint_tokenizer(tmp_path):
    # a resumed run that names no model key takes the checkpoint's config,
    # patch_split included, and replays the uninterrupted patch run
    strides, _ = tiny_dataset()
    patch_model = replace(TINY_MODEL, patch_split=True)
    full_cfg = train.pretrain_defaults(steps=8, batch_size=4, seed=3, log_every=1)
    full = train.pretrain(strides, patch_model, full_cfg)
    train.pretrain(strides, patch_model, full_cfg, out_dir=tmp_path, stop_at=4)
    resumed = train.pretrain(strides, TINY_MODEL, full_cfg,
                             resume=tmp_path / "last.nmckpt")
    assert resumed.params.cfg.patch_split is True
    assert resumed.log == full.log[4:]


def splits_for(strides, labels, seed=0):
    samples = [StrideSample(strides=x, label=int(y))
               for x, y in zip(strides, labels)]
    tr, va, te = split_dataset(samples, (0.6, 0.2, 0.2), seed=seed)
    return {"train": samples_to_arrays(tr), "val": samples_to_arrays(va),
            "test": samples_to_arrays(te)}


def test_finetune_learns_separable_classes(tmp_path):
    strides, labels = tiny_dataset(per_class=30, seed=2)
    splits = splits_for(strides, labels)
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
    strides, labels = tiny_dataset(per_class=12, seed=5)
    pre_cfg = train.pretrain_defaults(steps=20, batch_size=8, seed=6)
    train.pretrain(strides, TINY_MODEL, pre_cfg, out_dir=tmp_path)
    splits = splits_for(strides, labels, seed=1)
    tcfg = train.finetune_defaults(epochs=4, batch_size=8, seed=7)
    result = train.finetune(splits, TINY_MODEL, tcfg,
                            init=tmp_path / "last.nmckpt")
    assert 0.0 <= result.report.accuracy <= 1.0
    assert len(result.history) == 4


def test_finetune_rejects_bad_labels():
    strides, labels = tiny_dataset(per_class=6)
    splits = splits_for(strides, labels)
    bad_x, bad_y = splits["train"]
    bad_y = bad_y.copy()
    bad_y[1] = 9
    splits["train"] = (bad_x, bad_y)
    tcfg = train.finetune_defaults(epochs=1, batch_size=4)
    with pytest.raises(DataError, match="sample 1"):
        train.finetune(splits, TINY_MODEL, tcfg)


def test_finetune_rejects_empty_val_split(tmp_path):
    strides, labels = tiny_dataset(per_class=6)
    splits = splits_for(strides, labels)
    val_x, val_y = splits["val"]
    splits["val"] = (val_x[:0], val_y[:0])
    tcfg = train.finetune_defaults(epochs=1, batch_size=4)
    with pytest.raises(ConfigError, match="validation split is empty"):
        train.finetune(splits, TINY_MODEL, tcfg, out_dir=tmp_path)
    assert not (tmp_path / "best.nmckpt").exists()


@pytest.mark.parametrize("split, spoil, error, text", [
    ("test", lambda x, y: (x[:0], y[:0]), ConfigError, "test split is empty"),
    ("val", lambda x, y: (x, np.full_like(y, -1)), DataError,
     "validation split: sample 0 has label -1"),
    ("test", lambda x, y: (x, np.full_like(y, 2)), DataError,
     "test split: sample 0 has label 2"),
], ids=["test-empty", "val-unlabeled", "test-out-of-range"])
def test_finetune_checks_every_split_before_its_first_step(
        monkeypatch, tmp_path, split, spoil, error, text):
    # an empty or out-of-range test split used to fail after the last epoch,
    # an unlabeled validation split after the first
    strides, labels = tiny_dataset(per_class=6)
    splits = splits_for(strides, labels)
    splits[split] = spoil(*splits[split])
    steps = []
    monkeypatch.setattr(train, "_step", lambda *a: steps.append(a) or 0.0)
    with pytest.raises(error, match=text):
        train.finetune(splits, TINY_MODEL,
                       train.finetune_defaults(epochs=3, batch_size=4),
                       out_dir=tmp_path / "ft")
    assert steps == [] and not (tmp_path / "ft").exists()


def test_training_config_refuses_a_negative_seed():
    # numpy's SeedSequence raises a bare ValueError for one
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        train.TrainConfig(seed=-1)
    assert train.finetune_defaults(seed=0).seed == 0


@pytest.mark.parametrize("key, value, low", [
    ("steps", 0, 1), ("epochs", 0, 1), ("lr", -1e-3, 0)])
def test_training_config_refuses_no_steps_or_a_negative_rate(key, value, low):
    # Schedule refused these once the data was read, with a message naming
    # no key
    with pytest.raises(ConfigError, match=f"{key} must be >= {low}, got {value}"):
        train.TrainConfig(**{key: value})
    assert getattr(train.TrainConfig(**{key: low}), key) == low


def test_training_config_accepts_the_ends_of_its_ranges():
    # grad_clip = 0 means no clipping, as clip_global_norm reads it
    for key in ("weight_decay", "grad_clip", "warmup_frac", "early_stop_val_acc"):
        for value in (0.0, 1.0):
            assert getattr(train.TrainConfig(**{key: value}), key) == value


def track_embeddings(monkeypatch) -> list[bool]:
    """Patch ``nm.embed_batch`` to note, at each call, whether the array the
    previous call returned is still alive. Every training graph starts from
    that array, so it lives as long as the graph of its step."""
    real, refs, alive = nm.embed_batch, [], []

    def embed_batch(strides, params, rows=None):
        if refs:
            alive.append(refs[-1]() is not None)
        x0 = real(strides, params, rows)
        refs.append(weakref.ref(x0.data))
        return x0

    monkeypatch.setattr(nm, "embed_batch", embed_batch)
    return alive


def test_pretrain_frees_each_step_graph_before_the_next(monkeypatch):
    strides, _ = tiny_dataset(per_class=4)
    alive = track_embeddings(monkeypatch)
    train.pretrain(strides, TINY_MODEL,
                   train.pretrain_defaults(steps=2, batch_size=4, seed=1))
    assert alive == [False]


def test_finetune_frees_each_step_graph_before_the_next(monkeypatch):
    strides, labels = tiny_dataset(per_class=6)
    splits = splits_for(strides, labels)
    assert len(splits["train"][0]) == 8                  # two steps of 4
    alive = track_embeddings(monkeypatch)
    train.finetune(splits, TINY_MODEL,
                   train.finetune_defaults(epochs=1, batch_size=4, seed=2))
    # the second training step, then one validation and one test batch
    assert alive == [False] * 3


def test_evaluate_checkpoint_round_trip(tmp_path):
    strides, labels = tiny_dataset(per_class=10, seed=8)
    splits = splits_for(strides, labels, seed=2)
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
