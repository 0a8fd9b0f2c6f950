"""AdamW with decoupled weight decay, global-norm clipping, and the
warmup+cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import NumericFaultError

_NO_DECAY_SUFFIXES = ("a_log",)

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def decayable(name: str, tensor: Tensor) -> bool:
    """Weight decay applies to matrices only; gains, biases, tokens, and the
    state-transition log-parameters are exempt."""
    return tensor.ndim >= 2 and not name.endswith(_NO_DECAY_SUFFIXES)


@dataclass
class OptimState:
    """Per-parameter first/second moments, the step count and the weight
    decay; the learning rate comes with each step."""

    weight_decay: float = 0.05
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def tensors(self) -> dict[str, np.ndarray]:
        return {f"opt.{kind}.{name}": arr
                for kind, moments in (("m", self.m), ("v", self.v))
                for name, arr in moments.items()}

    def load_tensors(self, tensors: dict[str, np.ndarray], names, step: int) -> None:
        """The moments of every parameter in ``names``, from ``tensors`` named
        as ``tensors()`` names them; a KeyError names a missing one. The
        state keeps the given arrays, and updates them in place."""
        self.step = step
        self.m = {name: tensors[f"opt.m.{name}"] for name in names}
        self.v = {name: tensors[f"opt.v.{name}"] for name in names}


def adamw_step(params: dict[str, Tensor], state: OptimState, lr_t: float) -> None:
    """One decoupled-weight-decay update. Any non-finite gradient aborts the
    whole step before parameters change."""
    for name, p in params.items():
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            raise NumericFaultError(f"non-finite gradient for parameter {name}")
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m += (1.0 - BETA1) * (g - m)
        v += (1.0 - BETA2) * (g * g - v)
        update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
        if state.weight_decay and decayable(name, p):
            update = update + state.weight_decay * p.data
        p.data -= lr_t * update


def clip_global_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint 2-norm is at most max_norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


@dataclass(frozen=True)
class Schedule:
    """Linear warmup to base_lr, then cosine decay to zero."""

    base_lr: float
    total_steps: int
    warmup_steps: int = 0

    def lr_at(self, step: int) -> float:
        if step < self.warmup_steps:
            return self.base_lr * (step + 1) / self.warmup_steps
        span = max(self.total_steps - self.warmup_steps, 1)
        progress = min((step - self.warmup_steps) / span, 1.0)
        return self.base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))
