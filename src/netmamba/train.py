"""Pre-training and fine-tuning loops with deterministic, resumable RNG.

Every stochastic choice (batch sampling, mask plans, epoch shuffles) draws
from a generator derived from (seed, purpose, step), so a run resumed from a
checkpoint replays the exact step stream of an uninterrupted run. The loops
hand the model raw byte batches, which its forwards normalize and embed;
prediction calls the forward that fine-tuning trains.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from . import model as nm
from .errors import (CheckpointMismatchError, ConfigError, DataError, check_min,
                     check_unit)
from .fileio import atomic_write
from .metrics import MetricsReport, compute_metrics
from .optim import OptimState, Schedule, adamw_step, clip_global_norm, zero_grads

_DOMAINS = {"pretrain": 0, "epoch": 1, "init": 2}


def rng_for(seed: int, purpose: str, index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(_DOMAINS[purpose], index)))


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    lr: float = 1e-3
    steps: int = 150_000
    epochs: int = 120
    weight_decay: float = 0.05
    warmup_frac: float = 0.05
    grad_clip: float = 1.0
    seed: int = 0
    log_every: int = 10
    early_stop_val_acc: float | None = None

    def __post_init__(self):
        for key in ("batch_size", "log_every", "steps", "epochs"):
            check_min(key, getattr(self, key))
        check_min("seed", self.seed, 0)  # numpy seeds from non-negative ints
        for key in ("lr", "weight_decay", "grad_clip"):  # grad_clip 0: no clipping
            check_min(key, getattr(self, key), 0)
        for key in ("lr", "weight_decay"):
            if np.isinf(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        check_unit("warmup_frac", self.warmup_frac)
        if self.early_stop_val_acc is not None:
            check_unit("early_stop_val_acc", self.early_stop_val_acc)


def pretrain_defaults(**overrides) -> TrainConfig:
    """TrainConfig's own defaults are pre-training's."""
    return TrainConfig(**overrides)


def finetune_defaults(**overrides) -> TrainConfig:
    return replace(TrainConfig(batch_size=64, lr=2e-3), **overrides)


@dataclass
class PretrainResult:
    params: nm.ModelParams
    log: list            # (step, loss, lr) rows
    best_step: int
    best_loss: float


@dataclass
class FinetuneResult:
    params: nm.ModelParams
    report: MetricsReport
    history: list        # (epoch, mean train loss, val accuracy) rows
    best_epoch: int
    best_val_acc: float


def _check_split(name: str, strides, labels, num_classes: int) -> None:
    if len(strides) == 0:
        raise ConfigError(f"{name} split is empty")
    labels = np.asarray(labels)
    bad = np.where((labels < 0) | (labels >= num_classes))[0]
    if bad.size:
        raise DataError(
            f"{name} split: sample {int(bad[0])} has label "
            f"{int(labels[bad[0]])} outside [0, {num_classes})")


def _snapshot(params: nm.ModelParams) -> dict[str, np.ndarray]:
    return {name: t.data.copy() for name, t in params.named()}


def _restore(params: nm.ModelParams, snap: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Install the snapshot's own arrays; returns the arrays they replace."""
    replaced = {}
    for name, t in params.named():
        replaced[name], t.data = t.data, snap[name]
    return replaced


def _step(forward, tensors, state: OptimState, lr: float, grad_clip: float) -> float:
    """One optimizer update on the loss that ``forward()`` builds; returns
    the loss value. The autodiff graph is a local of this call, so it is
    freed when the call returns, before the next step builds its own."""
    loss = forward()
    zero_grads(tensors)
    ad.backward(loss)
    clip_global_norm(tensors, grad_clip)
    adamw_step(tensors, state, lr)
    return loss.item()


def write_log(path, header: str, rows) -> None:
    """A CSV log: ``header``, then (int, float, float) rows."""
    with atomic_write(path, "w") as fh:
        fh.write(header + "\n")
        for i, a, b in rows:
            fh.write(f"{i},{a:.8g},{b:.8g}\n")


def pretrain(strides: np.ndarray, cfg: nm.ModelConfig, tcfg: TrainConfig,
             out_dir=None, resume=None, stop_at: int | None = None,
             given=()) -> PretrainResult:
    """Masked-reconstruction training over (n, n_strides, stride_len) bytes.

    Draws a fresh batch and fresh per-sample mask plans every step. Saves
    ``best.nmckpt`` (after the step with the lowest single-batch loss, logged
    or not; the earliest on ties) and ``last.nmckpt`` (with optimizer state,
    for exact resume) when ``out_dir`` is given. ``stop_at`` ends the run
    early while keeping the schedule of the full ``tcfg.steps``, so a later
    resume replays the uninterrupted run exactly. A run that would take no
    step (``stop_at`` or ``tcfg.steps`` at or before the start step) is
    refused: it has no loss to log, and a fresh one has no optimizer moments
    to save. A resumed run takes its model config from the checkpoint and
    refuses one whose step is not a step count, one without the optimizer
    moments of every tensor (a ``best.nmckpt``); ``checkpoint`` refuses one
    without a decoder, one of other stride geometry, and one that disagrees
    with a field of ``cfg`` named in ``given`` (the fields the caller set
    explicitly).
    """
    n = len(strides)
    if n == 0:
        raise ConfigError("pre-training dataset is empty")
    state = OptimState(weight_decay=tcfg.weight_decay)
    start_step = 0
    if resume is not None:
        params, meta, extra = ckpt.load_model(resume, "pretrain")
        ckpt.check_geometry(resume, params.cfg, strides, "the data")
        ckpt.check_config(resume, params.cfg, cfg, given)
        cfg = params.cfg
        start_step = meta.get("step")
        if type(start_step) is not int or start_step < 0:
            raise CheckpointMismatchError(
                f"{resume}: metadata step {start_step!r} is not a step count")
        try:
            state.load_tensors(extra, params.tensors(), start_step)
        except KeyError as exc:
            raise CheckpointMismatchError(
                f"{resume} holds no optimizer tensor {exc.args[0]}; resume "
                "from the last.nmckpt of a run") from None
    else:
        params = nm.init_params(cfg, rng_for(tcfg.seed, "init", 0),
                                with_decoder=True)
    end_step = tcfg.steps if stop_at is None else min(stop_at, tcfg.steps)
    if end_step <= start_step:
        raise ConfigError(f"the run would take no step: it starts at step "
                          f"{start_step} and ends at step {end_step}")
    tensors = params.tensors()
    sched = Schedule(base_lr=tcfg.lr, total_steps=tcfg.steps,
                     warmup_steps=max(int(tcfg.warmup_frac * tcfg.steps), 1))
    log: list = []
    best_loss, best_step, best_snap = np.inf, -1, None
    for step in range(start_step, end_step):
        rng = rng_for(tcfg.seed, "pretrain", step)
        idx = rng.choice(n, size=tcfg.batch_size, replace=n < tcfg.batch_size)
        plans = [nm.make_mask(cfg.seq_len, cfg.mask_ratio, rng)
                 for _ in range(tcfg.batch_size)]
        batch = strides[idx]
        lr_t = sched.lr_at(step)
        value = _step(lambda: nm.pretrain_forward(batch, plans, params)[1],
                      tensors, state, lr_t, tcfg.grad_clip)
        if step % tcfg.log_every == 0 or step == end_step - 1:
            log.append((step, value, lr_t))
        if value < best_loss:
            best_loss, best_step = value, step
            best_snap = _snapshot(params)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        ckpt.save_model(out_dir / "last.nmckpt", params, step=end_step,
                        opt_tensors=state.tensors())
        current = _restore(params, best_snap)
        ckpt.save_model(out_dir / "best.nmckpt", params, step=best_step)
        _restore(params, current)
        write_log(out_dir / "loss_log.csv", "step,loss,lr", log)
    return PretrainResult(params=params, log=log, best_step=best_step,
                          best_loss=best_loss)


def predict(params: nm.ModelParams, strides: np.ndarray,
            batch_size: int = 64) -> np.ndarray:
    """Class predictions, ``batch_size`` flows per no-grad pass of
    ``nm.finetune_forward``, the forward that fine-tuning trains; without
    grad it streams each batch along the sequence in row chunks."""
    preds = []
    with ad.no_grad():
        for lo in range(0, len(strides), batch_size):
            logits = nm.finetune_forward(strides[lo:lo + batch_size], params)
            preds.append(np.argmax(logits.data, axis=1))
    return np.concatenate(preds) if preds else np.empty(0, dtype=np.int64)


def evaluate(params: nm.ModelParams, strides: np.ndarray, labels: np.ndarray,
             batch_size: int = 64) -> MetricsReport:
    _check_split("evaluation", strides, labels, params.cfg.num_classes)
    preds = predict(params, strides, batch_size)
    return compute_metrics(labels, preds, params.cfg.num_classes)


def finetune(splits: dict[str, tuple[np.ndarray, np.ndarray]],
             cfg: nm.ModelConfig, tcfg: TrainConfig,
             init: str | Path | None = None,
             out_dir=None) -> FinetuneResult:
    """Supervised training on ``splits['train']`` with per-epoch validation;
    the reported test metrics always come from the checkpoint of the epoch
    with the best validation accuracy (ties resolved to the earliest epoch).

    ``init`` points at a pre-training checkpoint for the encoder; None means
    the from-scratch ablation. Every split is checked before the first step.
    """
    for key, name in (("train", "training"), ("val", "validation"),
                      ("test", "test")):
        _check_split(name, *splits[key], cfg.num_classes)
    train_x, train_y = splits["train"]
    train_y = np.asarray(train_y, dtype=np.int64)

    params = nm.init_params(rng=rng_for(tcfg.seed, "init", 1), cfg=cfg,
                            with_decoder=False, with_head=True)
    if init is not None:
        ckpt.load_encoder_weights(params, init)
    tensors = params.tensors()
    n = len(train_x)
    steps_per_epoch = (n + tcfg.batch_size - 1) // tcfg.batch_size
    sched = Schedule(base_lr=tcfg.lr, total_steps=tcfg.epochs * steps_per_epoch,
                     warmup_steps=max(int(tcfg.warmup_frac * tcfg.epochs
                                          * steps_per_epoch), 1))
    state = OptimState(weight_decay=tcfg.weight_decay)
    history: list = []
    best_acc, best_epoch, best_snap = -1.0, -1, None
    step = 0
    for epoch in range(tcfg.epochs):
        order = rng_for(tcfg.seed, "epoch", epoch).permutation(n)
        losses = []
        for lo in range(0, n, tcfg.batch_size):
            sel = order[lo:lo + tcfg.batch_size]
            losses.append(_step(
                lambda: ad.softmax_cross_entropy(
                    nm.finetune_forward(train_x[sel], params), train_y[sel]),
                tensors, state, sched.lr_at(step), tcfg.grad_clip))
            step += 1
        val_acc = evaluate(params, *splits["val"], tcfg.batch_size).accuracy
        history.append((epoch, float(np.mean(losses)), val_acc))
        if val_acc > best_acc:
            best_acc, best_epoch = val_acc, epoch
            best_snap = _snapshot(params)
        if tcfg.early_stop_val_acc is not None and val_acc >= tcfg.early_stop_val_acc:
            break
    _restore(params, best_snap)
    report = evaluate(params, *splits["test"], tcfg.batch_size)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        ckpt.save_model(out_dir / "best.nmckpt", params, step=best_epoch)
        with atomic_write(out_dir / "metrics.json", "w") as fh:
            fh.write(report.to_json(indent=2) + "\n")
        write_log(out_dir / "history.csv", "epoch,train_loss,val_accuracy", history)
    return FinetuneResult(params=params, report=report, history=history,
                          best_epoch=best_epoch, best_val_acc=best_acc)
