"""Dense-tensor engine with reverse-mode differentiation.

Arrays are numpy, row-major. float32 is the working precision for training;
gradient and oracle tests build everything in float64, where central finite
differences are trustworthy. Every operation records an exact analytic
vector-Jacobian rule; ``backward`` replays the recorded graph in reverse
execution order and deposits gradients on leaf tensors.
"""

from __future__ import annotations

import contextlib
import itertools
from collections.abc import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

DEFAULT_DTYPE = np.float32

_order_counter = itertools.count()
_grad_mode = [True]


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / oracle evals)."""
    _grad_mode.append(False)
    try:
        yield
    finally:
        _grad_mode.pop()


def grad_enabled() -> bool:
    return _grad_mode[-1]


class Tensor:
    """A dense array plus an optional record of how it was produced.

    ``grad`` accumulates across ``backward`` calls until reset to None.
    Only leaf tensors (no recorded parents) receive gradients.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_order")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None
        self._order = next(_order_counter)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{flag})"

    # operator sugar; full op set lives at module level
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(as_tensor(other)))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return index(self, key)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def custom_op(data: np.ndarray, parents: Sequence[Tensor], vjp) -> Tensor:
    """Create a graph node with a hand-written backward rule.

    ``vjp(out_grad)`` must return one gradient array (or None) per parent.
    Used by composite kernels (the selective scan) that live outside this
    module but still participate in differentiation.
    """
    out = Tensor(data)
    if grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over axes that were broadcast in the forward pass."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires-grad leaf reachable from ``loss``.

    Repeated calls on a live graph accumulate. Propagation uses a per-call
    scratch map so earlier deposits never re-enter the traversal.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    nodes: list[Tensor] = []
    seen: set[int] = {id(loss)}
    stack = [loss]
    while stack:
        t = stack.pop()
        nodes.append(t)
        for p in t._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    nodes.sort(key=lambda t: t._order, reverse=True)

    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for t in nodes:
        g = flowing.pop(id(t), None)
        if g is None:
            continue
        if t._vjp is None:
            if t.requires_grad:
                t.grad = g.copy() if t.grad is None else t.grad + g
            continue
        for p, pg in zip(t._parents, t._vjp(g)):
            if pg is None or not p.requires_grad:
                continue
            acc = flowing.get(id(p))
            flowing[id(p)] = pg if acc is None else acc + pg


# ---------------------------------------------------------------------------
# elementwise / broadcasting primitives


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}") from None
    return custom_op(
        out, (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}") from None
    return custom_op(
        out, (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def neg(a) -> Tensor:
    a = as_tensor(a)
    return custom_op(-a.data, (a,), lambda g: (-g,))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return custom_op(out, (a,), lambda g: (g * out,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def silu(a) -> Tensor:
    """x * sigmoid(x); the backward recomputes the sigmoid instead of
    keeping it."""
    a = as_tensor(a)

    def vjp(g):
        s = _sigmoid(a.data)
        return (g * (s * (1.0 + a.data * (1.0 - s))),)

    return custom_op(a.data * _sigmoid(a.data), (a,), vjp)


def softplus(a) -> Tensor:
    """log(1 + exp(u)), with the identity branch for u > 20 to avoid overflow."""
    a = as_tensor(a)
    x = a.data
    out = np.minimum(x, 20.0, out=np.empty_like(x))
    np.log1p(np.exp(out, out=out), out=out)
    np.copyto(out, x, where=x > 20.0)
    return custom_op(out, (a,), lambda g: (g * _sigmoid(x),))


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs 2-D+ operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return custom_op(out, (a, b), vjp)


# ---------------------------------------------------------------------------
# shape manipulation


def index(a, key) -> Tensor:
    """Basic (int/slice/ellipsis) indexing; selections are disjoint views."""
    a = as_tensor(a)
    out = a.data[key]

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[key] = g
        return (ga,)

    return custom_op(np.ascontiguousarray(out), (a,), vjp)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return custom_op(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def permute(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return custom_op(
        np.ascontiguousarray(a.data.transpose(axes)), (a,),
        lambda g: (g.transpose(inv),),
    )


def broadcast_to(a, shape) -> Tensor:
    a = as_tensor(a)
    out = np.broadcast_to(a.data, shape)
    return custom_op(np.ascontiguousarray(out), (a,), lambda g: (_unbroadcast(g, a.shape),))


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return custom_op(out, ts, vjp)


def gather_rows(a, idx) -> Tensor:
    """Per-batch row gather: a[b, idx[b, k], :] for a (B, L, D), idx (B, K)."""
    a = as_tensor(a)
    if a.ndim != 3:
        raise ShapeError(f"gather_rows expects (B, L, D), got {a.shape}")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[0] != a.shape[0]:
        raise ShapeError(f"gather_rows: index {idx.shape} incompatible with {a.shape}")
    out = np.take_along_axis(a.data, idx[:, :, None], axis=1)
    batch = np.arange(a.shape[0])[:, None]

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (batch, idx), g)
        return (ga,)

    return custom_op(out, (a,), vjp)


# ---------------------------------------------------------------------------
# reductions


def sum(a, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001 - numpy-style name
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return custom_op(np.asarray(out), (a,), vjp)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        n = a.size
    else:
        n = int(np.prod([a.shape[ax] for ax in np.atleast_1d(axis)]))
    return mul(sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


# ---------------------------------------------------------------------------
# normalization


def _axis_view(vec: np.ndarray, ndim: int, axis: int) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = vec.shape[0]
    return vec.reshape(shape)


def rmsnorm(x, gain, axis: int = -1, eps: float = 1e-6) -> Tensor:
    """x / sqrt(mean(x^2) + eps) * gain, normalizing over one axis."""
    x, gain = as_tensor(x), as_tensor(gain)
    if eps <= 0:
        raise ContractError("rmsnorm: eps must be positive")
    ax = axis % x.ndim
    n = x.shape[ax]
    if gain.shape != (n,):
        raise ShapeError(f"rmsnorm: gain {gain.shape} does not match axis extent {n}")
    r = 1.0 / np.sqrt((x.data * x.data).mean(axis=ax, keepdims=True) + eps)
    gb = _axis_view(gain.data, x.ndim, ax)
    out = x.data * r * gb

    def vjp(g):
        other = tuple(i for i in range(x.ndim) if i != ax)
        ggain = (g * x.data * r).sum(axis=other)
        inner = (g * gb * x.data).sum(axis=ax, keepdims=True)
        gx = g * gb * r - x.data * (r ** 3) * inner / n
        return gx, ggain

    return custom_op(out, (x, gain), vjp)


def layernorm(x, gain, axis: int = -1, eps: float = 1e-6) -> Tensor:
    """Mean-centering variant of rmsnorm (gain, no bias); no model uses it."""
    x, gain = as_tensor(x), as_tensor(gain)
    ax = axis % x.ndim
    n = x.shape[ax]
    if gain.shape != (n,):
        raise ShapeError(f"layernorm: gain {gain.shape} does not match axis extent {n}")
    mu = x.data.mean(axis=ax, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=ax, keepdims=True)
    s = 1.0 / np.sqrt(var + eps)
    xn = (x.data - mu) * s
    gb = _axis_view(gain.data, x.ndim, ax)
    out = xn * gb

    def vjp(g):
        other = tuple(i for i in range(x.ndim) if i != ax)
        ggain = (g * xn).sum(axis=other)
        d = g * gb
        gx = s * (d - d.mean(axis=ax, keepdims=True)
                  - xn * (d * xn).mean(axis=ax, keepdims=True))
        return gx, ggain

    return custom_op(out, (x, gain), vjp)


# ---------------------------------------------------------------------------
# causal depthwise convolution


def causal_conv1d(x, weight, bias=None) -> Tensor:
    """Per-channel causal convolution on (B, L, E).

    ``weight[e, j]`` multiplies the input j steps in the past, so a kernel of
    (1, 0, ..., 0) is the identity; positions before the sequence start read
    zeros.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if x.ndim != 3:
        raise ShapeError(f"causal_conv1d expects (B, L, E), got {x.shape}")
    B, L, E = x.shape
    if weight.ndim != 2 or weight.shape[0] != E:
        raise ShapeError(f"causal_conv1d: weight {weight.shape} does not match E={E}")
    k = weight.shape[1]
    out = np.zeros_like(x.data)
    for j in range(k):
        if j == 0:
            out += x.data * weight.data[:, 0]
        elif j < L:
            out[:, j:, :] += x.data[:, : L - j, :] * weight.data[:, j]
    parents = [x, weight]
    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape != (E,):
            raise ShapeError(f"causal_conv1d: bias {bias.shape} does not match E={E}")
        out = out + bias.data
        parents.append(bias)

    def vjp(g):
        gx = np.zeros_like(x.data)
        gw = np.zeros_like(weight.data)
        for j in range(k):
            if j == 0:
                gx += g * weight.data[:, 0]
                gw[:, 0] = np.einsum("ble,ble->e", g, x.data)
            elif j < L:
                gx[:, : L - j, :] += g[:, j:, :] * weight.data[:, j]
                gw[:, j] = np.einsum("ble,ble->e", g[:, j:, :], x.data[:, : L - j, :])
        grads = [gx, gw]
        if bias is not None:
            grads.append(g.sum(axis=(0, 1)))
        return grads

    return custom_op(out, parents, vjp)


# ---------------------------------------------------------------------------
# losses


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean cross-entropy of integer labels, stabilized by max subtraction."""
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects (B, C) logits, got {logits.shape}")
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    B, C = logits.shape
    if labels.shape != (B,):
        raise ShapeError(f"softmax_cross_entropy: {labels.shape} labels for batch {B}")
    if labels.min() < 0 or labels.max() >= C:
        bad = labels[(labels < 0) | (labels >= C)][0]
        raise ContractError(f"label {bad} outside [0, {C})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    losses = lse[:, 0] - z[np.arange(B), labels]
    out = np.asarray(losses.mean(), dtype=logits.dtype)

    def vjp(g):
        p = np.exp(z - lse)
        p[np.arange(B), labels] -= 1.0
        return (g * p / B,)

    return custom_op(out, (logits,), vjp)


def mse(pred, target, mask=None) -> Tensor:
    """Mean squared error; with ``mask`` (…, K) over (…, K, P) predictions the
    per-token means are averaged over mask-selected tokens only. An all-zero
    mask yields a loss of exactly 0."""
    pred = as_tensor(pred)
    t = target.data if isinstance(target, Tensor) else np.asarray(target)
    if t.shape != pred.shape:
        raise ShapeError(f"mse: target {t.shape} does not match prediction {pred.shape}")
    d = pred.data - t
    if mask is None:
        if pred.size == 0:
            return custom_op(np.zeros((), dtype=pred.dtype), (pred,),
                             lambda g: (np.zeros_like(pred.data),))
        out = np.asarray((d * d).mean(), dtype=pred.dtype)
        return custom_op(out, (pred,), lambda g: (g * 2.0 * d / pred.size,))
    m = np.asarray(mask, dtype=pred.dtype)
    if m.shape != pred.shape[:-1]:
        raise ShapeError(f"mse: mask {m.shape} does not match tokens {pred.shape[:-1]}")
    total = m.sum()
    P = pred.shape[-1]
    if total == 0:
        return custom_op(np.zeros((), dtype=pred.dtype), (pred,),
                         lambda g: (np.zeros_like(pred.data),))
    per_token = (d * d).mean(axis=-1)
    out = np.asarray((per_token * m).sum() / total, dtype=pred.dtype)
    return custom_op(out, (pred,), lambda g: (g * 2.0 * d * m[..., None] / (total * P),))
