"""Pre-training and fine-tuning loops with deterministic, resumable RNG.

Every stochastic choice (batch sampling, mask plans, epoch shuffles) draws
from a generator derived from (seed, purpose, step), so a run resumed from a
checkpoint replays the exact step stream of an uninterrupted run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from . import model as nm
from .errors import ConfigError, DataError
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
    schedule: str = "cosine"
    grad_clip: float = 1.0
    seed: int = 0
    log_every: int = 10
    early_stop_val_acc: float | None = None


def pretrain_defaults(**overrides) -> TrainConfig:
    return replace(TrainConfig(batch_size=128, lr=1e-3, steps=150_000), **overrides)


def finetune_defaults(**overrides) -> TrainConfig:
    return replace(TrainConfig(batch_size=64, lr=2e-3, epochs=120), **overrides)


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


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    bad = np.where((labels < 0) | (labels >= num_classes))[0]
    if bad.size:
        raise DataError(
            f"sample {int(bad[0])} has label {int(labels[bad[0]])} "
            f"outside [0, {num_classes})")


def _snapshot(params: nm.ModelParams) -> dict[str, np.ndarray]:
    return {name: t.data.copy() for name, t in params.named()}


def _restore(params: nm.ModelParams, snap: dict[str, np.ndarray]) -> None:
    for name, t in params.named():
        t.data = snap[name].copy()


def write_loss_log(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write("step,loss,lr\n")
        for step, loss, lr in rows:
            fh.write(f"{step},{loss:.8g},{lr:.8g}\n")


def pretrain(strides: np.ndarray, cfg: nm.ModelConfig, tcfg: TrainConfig,
             out_dir=None, resume=None, stop_at: int | None = None) -> PretrainResult:
    """Masked-reconstruction training over (n, n_strides, stride_len) bytes.

    Draws a fresh batch and fresh per-sample mask plans every step. Saves
    ``best.nmckpt`` (after the step with the lowest single-batch loss, logged
    or not; the earliest on ties) and ``last.nmckpt`` (with optimizer state,
    for exact resume) when ``out_dir`` is given. ``stop_at`` ends the run
    early while keeping the schedule of the full ``tcfg.steps``, so a later
    resume replays the uninterrupted run exactly.
    """
    n = len(strides)
    if n == 0:
        raise ConfigError("pre-training dataset is empty")
    state = OptimState(lr=tcfg.lr, weight_decay=tcfg.weight_decay)
    start_step = 0
    if resume is not None:
        params, meta, extra = ckpt.load_model(resume)
        cfg = params.cfg
        state.load_tensors(extra, meta["step"])
        start_step = meta["step"]
    else:
        params = nm.init_params(cfg, rng_for(tcfg.seed, "init", 0),
                                with_decoder=True)
    tensors = params.tensors()
    sched = Schedule(base_lr=tcfg.lr, total_steps=tcfg.steps,
                     warmup_steps=max(int(tcfg.warmup_frac * tcfg.steps), 1),
                     policy=tcfg.schedule)
    log: list = []
    best_loss, best_step, best_snap = np.inf, -1, None
    end_step = tcfg.steps if stop_at is None else min(stop_at, tcfg.steps)
    for step in range(start_step, end_step):
        rng = rng_for(tcfg.seed, "pretrain", step)
        idx = rng.choice(n, size=tcfg.batch_size, replace=n < tcfg.batch_size)
        plans = [nm.make_mask(cfg.seq_len, cfg.mask_ratio, rng)
                 for _ in range(tcfg.batch_size)]
        batch = nm.normalize_strides(strides[idx])
        x0 = nm.embed_batch(batch, params)
        _, loss = nm.pretrain_forward(x0, batch, plans, params)
        zero_grads(tensors)
        ad.backward(loss)
        clip_global_norm(tensors, tcfg.grad_clip)
        lr_t = sched.lr_at(step)
        adamw_step(tensors, state, lr_t)
        value = loss.item()
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
        if best_snap is not None:
            current = _snapshot(params)
            _restore(params, best_snap)
            ckpt.save_model(out_dir / "best.nmckpt", params, step=best_step)
            _restore(params, current)
        write_loss_log(out_dir / "loss_log.csv", log)
    return PretrainResult(params=params, log=log, best_step=best_step,
                          best_loss=best_loss)


def predict(params: nm.ModelParams, strides: np.ndarray,
            batch_size: int = 64) -> np.ndarray:
    preds = []
    with ad.no_grad():
        for lo in range(0, len(strides), batch_size):
            batch = nm.normalize_strides(strides[lo:lo + batch_size])
            logits = nm.finetune_forward(nm.embed_batch(batch, params), params)
            preds.append(np.argmax(logits.data, axis=1))
    return np.concatenate(preds) if preds else np.empty(0, dtype=np.int64)


def evaluate(params: nm.ModelParams, strides: np.ndarray, labels: np.ndarray,
             batch_size: int = 64) -> MetricsReport:
    if len(strides) == 0:
        raise ConfigError("evaluation split is empty")
    _check_labels(np.asarray(labels), params.cfg.num_classes)
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
    the from-scratch ablation.
    """
    for name in ("train", "val", "test"):
        if name not in splits:
            raise ConfigError(f"missing split {name!r}")
    train_x, train_y = splits["train"]
    val_x, val_y = splits["val"]
    for name, xs in (("training", train_x), ("validation", val_x)):
        if len(xs) == 0:
            raise ConfigError(f"{name} split is empty")
    train_y = np.asarray(train_y, dtype=np.int64)
    _check_labels(train_y, cfg.num_classes)

    params = nm.init_params(rng=rng_for(tcfg.seed, "init", 1), cfg=cfg,
                            with_decoder=False, with_head=True)
    if init is not None:
        ckpt.load_encoder_weights(params, init)
    tensors = params.tensors()
    n = len(train_x)
    steps_per_epoch = max((n + tcfg.batch_size - 1) // tcfg.batch_size, 1)
    sched = Schedule(base_lr=tcfg.lr, total_steps=tcfg.epochs * steps_per_epoch,
                     warmup_steps=max(int(tcfg.warmup_frac * tcfg.epochs
                                          * steps_per_epoch), 1),
                     policy=tcfg.schedule)
    state = OptimState(lr=tcfg.lr, weight_decay=tcfg.weight_decay)
    history: list = []
    best_acc, best_epoch, best_snap = -1.0, -1, None
    step = 0
    for epoch in range(tcfg.epochs):
        order = rng_for(tcfg.seed, "epoch", epoch).permutation(n)
        losses = []
        for lo in range(0, n, tcfg.batch_size):
            sel = order[lo:lo + tcfg.batch_size]
            batch = nm.normalize_strides(train_x[sel])
            logits = nm.finetune_forward(nm.embed_batch(batch, params), params)
            loss = nm.loss_cls(logits, train_y[sel])
            zero_grads(tensors)
            ad.backward(loss)
            clip_global_norm(tensors, tcfg.grad_clip)
            adamw_step(tensors, state, sched.lr_at(step))
            losses.append(loss.item())
            step += 1
        val_acc = evaluate(params, val_x, val_y, tcfg.batch_size).accuracy
        history.append((epoch, float(np.mean(losses)), val_acc))
        if val_acc > best_acc:
            best_acc, best_epoch = val_acc, epoch
            best_snap = _snapshot(params)
        if tcfg.early_stop_val_acc is not None and val_acc >= tcfg.early_stop_val_acc:
            break
    if best_snap is not None:
        _restore(params, best_snap)
    test_x, test_y = splits["test"]
    report = evaluate(params, test_x, test_y, tcfg.batch_size)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        ckpt.save_model(out_dir / "best.nmckpt", params, step=best_epoch)
        Path(out_dir / "metrics.json").write_text(report.to_json(indent=2) + "\n")
        with open(out_dir / "history.csv", "w") as fh:
            fh.write("epoch,train_loss,val_accuracy\n")
            for epoch, loss, acc in history:
                fh.write(f"{epoch},{loss:.8g},{acc:.8g}\n")
    return FinetuneResult(params=params, report=report, history=history,
                          best_epoch=best_epoch, best_val_acc=best_acc)
