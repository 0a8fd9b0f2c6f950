"""Dense-tensor engine with reverse-mode differentiation.

Arrays are numpy, row-major. float32 is the working precision for training;
gradient and oracle tests build everything in float64, where central finite
differences are trustworthy. Every operation records an exact analytic
vector-Jacobian rule; ``backward`` replays the recorded graph in reverse
execution order and deposits gradients on leaf tensors.

The graph is made of small records, not of the tensors themselves: an op
result points to a record of its operands' records, its vjp and its order,
and only a leaf (which receives a gradient) is referenced as a tensor. So
an intermediate array stays alive only while a caller holds its tensor or
a vjp has captured it, and each vjp captures only what it reads.
"""

from __future__ import annotations

import contextlib
import itertools
from collections.abc import Sequence

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


class _Node:
    """The graph record of one op result: per operand, the operand's own
    record, the operand itself if it is a leaf that requires grad, or None;
    the op's vjp; and its creation order."""

    __slots__ = ("parents", "vjp", "order")

    def __init__(self, parents, vjp, order):
        self.parents = parents
        self.vjp = vjp
        self.order = order


class Tensor:
    """A dense array plus an optional record of how it was produced.

    ``grad`` accumulates across ``backward`` calls until reset to None.
    Only leaf tensors (no graph record) receive gradients.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None

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

    # ops live at module level; indexing is the one operator
    def __getitem__(self, key):
        return index(self, key)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def records_graph(*operands: Tensor) -> bool:
    """Whether an op on these operands records a graph node (custom_op's
    rule): grad mode is on and some operand requires grad."""
    return grad_enabled() and any(t.requires_grad for t in operands)


def custom_op(data: np.ndarray, parents: Sequence[Tensor], vjp) -> Tensor:
    """Create a graph node with a hand-written backward rule.

    ``vjp(out_grad)`` must return one gradient array (or None) per parent.
    It should capture the arrays it reads, not the parent tensors. Used by
    composite kernels (the selective scan) that live outside this module
    but still participate in differentiation.
    """
    out = Tensor(data)
    if records_graph(*parents):
        links = tuple(p._node or (p if p.requires_grad else None) for p in parents)
        out.requires_grad = True
        out._node = _Node(links, vjp, next(_order_counter))
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
    seed = np.ones_like(loss.data)
    if loss._node is None:
        if loss.requires_grad:
            loss.grad = seed if loss.grad is None else loss.grad + seed
        return
    nodes: list[_Node] = []
    seen: set[int] = {id(loss._node)}
    stack = [loss._node]
    while stack:
        node = stack.pop()
        nodes.append(node)
        for p in node.parents:
            if type(p) is _Node and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    nodes.sort(key=lambda node: node.order, reverse=True)

    flowing: dict[int, np.ndarray] = {id(loss._node): seed}
    leaves: dict[int, Tensor] = {}
    for node in nodes:
        g = flowing.pop(id(node), None)
        if g is None:
            continue
        for p, pg in zip(node.parents, node.vjp(g)):
            if pg is None or p is None:
                continue
            acc = flowing.get(id(p))
            flowing[id(p)] = pg if acc is None else acc + pg
            if type(p) is Tensor:
                leaves[id(p)] = p
    for key, t in leaves.items():
        g = flowing[key]
        t.grad = g.copy() if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# elementwise / broadcasting primitives


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}") from None
    sa, sb = a.shape, b.shape
    return custom_op(out, (a, b),
                     lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}") from None
    x, y = a.data, b.data
    return custom_op(
        out, (a, b),
        lambda g: (_unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)),
    )


def neg(a) -> Tensor:
    a = as_tensor(a)
    return custom_op(-a.data, (a,), lambda g: (-g,))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return custom_op(out, (a,), lambda g: (g * out,))


def _sigmoid_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """0.5 * (1 + tanh(0.5 * x)), computed in ``out``."""
    np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return _sigmoid_into(x, np.empty_like(x))


def _silu_into(p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """p * sigmoid(p) in ``out``, which must not be p."""
    o = _sigmoid_into(p, out)
    o *= p
    return o


def _silu_slope_into(p: np.ndarray, s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The SiLU's derivative s * (1 + p * (1 - s)) in ``out``, each product
    in place, with s = sigmoid(p) left in ``s``."""
    _sigmoid_into(p, s)
    np.subtract(1.0, s, out=out)
    out *= p
    out += 1.0
    out *= s
    return out


def silu(a) -> Tensor:
    """x * sigmoid(x); the backward recomputes the sigmoid instead of
    keeping it."""
    a = as_tensor(a)
    x = a.data

    def vjp(g):
        return (g * _silu_slope_into(x, np.empty_like(x), np.empty_like(x)),)

    return custom_op(_silu_into(x, np.empty_like(x)), (a,), vjp)


def _softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) in a new array, with the identity branch for x > 20
    to avoid overflow; its derivative is _sigmoid(x)."""
    out = np.minimum(x, 20.0, out=np.empty_like(x))
    np.log1p(np.exp(out, out=out), out=out)
    np.copyto(out, x, where=x > 20.0)
    return out


def softplus(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    return custom_op(_softplus(x), (a,), lambda g: (g * _sigmoid(x),))


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs 2-D+ operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    x, w = a.data, b.data

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(w, -1, -2), x.shape)
        gb = _unbroadcast(np.swapaxes(x, -1, -2) @ g, w.shape)
        return ga, gb

    return custom_op(x @ w, (a, b), vjp)


# ---------------------------------------------------------------------------
# shape manipulation


def index(a, key) -> Tensor:
    """Basic (int/slice/ellipsis) indexing. The result is always a copy, so
    neither it nor a vjp that captures it keeps the whole operand alive."""
    a = as_tensor(a)
    shape, dtype = a.shape, a.dtype

    def vjp(g):
        ga = np.zeros(shape, dtype=dtype)
        ga[key] = g
        return (ga,)

    # a scalar selection becomes a (1,) array
    return custom_op(np.array(a.data[key], order="C", ndmin=1), (a,), vjp)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.shape
    return custom_op(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


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
    old = a.shape
    out = np.broadcast_to(a.data, shape)
    return custom_op(np.ascontiguousarray(out), (a,), lambda g: (_unbroadcast(g, old),))


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return custom_op(out, ts, vjp)


def gather_rows(a, idx) -> Tensor:
    """Per-batch row gather: a[b, idx[b, k], :] for a (B, L, D), idx (B, K).

    The backward scatters the gradient into zeros: with ``np.add.at`` when
    a row of ``idx`` repeats an index, else by writing each gradient row
    once, plus 0.0 so that a -0.0 lands as +0.0, the bytes ``np.add.at``
    gives. The write took about half the time of ``np.add.at`` at the
    pre-training shapes.
    """
    a = as_tensor(a)
    if a.ndim != 3:
        raise ShapeError(f"gather_rows expects (B, L, D), got {a.shape}")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[0] != a.shape[0]:
        raise ShapeError(f"gather_rows: index {idx.shape} incompatible with {a.shape}")
    out = np.take_along_axis(a.data, idx[:, :, None], axis=1)
    shape, dtype = a.shape, a.dtype
    ordered = np.sort(idx, axis=1)
    distinct = not np.any(ordered[:, 1:] == ordered[:, :-1])

    def vjp(g):
        ga = np.zeros(shape, dtype=dtype)
        if distinct:
            np.put_along_axis(ga, idx[:, :, None], g, axis=1)
            ga += 0.0
        else:
            np.add.at(ga, (np.arange(shape[0])[:, None], idx), g)
        return (ga,)

    return custom_op(out, (a,), vjp)


# ---------------------------------------------------------------------------
# reductions


def sum(a, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001 - numpy-style name
    a = as_tensor(a)
    shape = a.shape
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

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


def rmsnorm(x, gain) -> Tensor:
    """x / sqrt(mean(x^2) + 1e-6) * gain over the last axis."""
    x, gain = as_tensor(x), as_tensor(gain)
    n = x.shape[-1]
    if gain.shape != (n,):
        raise ShapeError(f"rmsnorm: gain {gain.shape} does not match last axis {n}")
    xd, gd = x.data, gain.data
    r = 1.0 / np.sqrt((xd * xd).mean(axis=-1, keepdims=True) + 1e-6)
    out = xd * r * gd

    def vjp(g):
        ggain = (g * xd * r).sum(axis=tuple(range(xd.ndim - 1)))
        inner = (g * gd * xd).sum(axis=-1, keepdims=True)
        gx = g * gd * r - xd * (r ** 3) * inner / n
        return gx, ggain

    return custom_op(out, (x, gain), vjp)


def layernorm(x, gain) -> Tensor:
    """Mean-centering variant of rmsnorm (gain, no bias); no model uses it."""
    x, gain = as_tensor(x), as_tensor(gain)
    n = x.shape[-1]
    if gain.shape != (n,):
        raise ShapeError(f"layernorm: gain {gain.shape} does not match last axis {n}")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    s = 1.0 / np.sqrt(var + 1e-6)
    xn = (x.data - mu) * s
    gd = gain.data
    out = xn * gd

    def vjp(g):
        ggain = (g * xn).sum(axis=tuple(range(xn.ndim - 1)))
        d = g * gd
        gx = s * (d - d.mean(axis=-1, keepdims=True)
                  - xn * (d * xn).mean(axis=-1, keepdims=True))
        return gx, ggain

    return custom_op(out, (x, gain), vjp)


# ---------------------------------------------------------------------------
# causal depthwise convolution

# elements per row block of the convolution: 512 KB of float32, so that a
# block's taps, sums and activation stay in a 2 MB L2 cache. On a 2-vCPU
# Xeon with one BLAS thread the conv + SiLU forward at (16, 401, 512) took
# 23 ms in such blocks against 42 ms over whole arrays
_CONV_BLOCK = 1 << 17


def _conv_rows(shape) -> int:
    """Rows per block of the convolution of a (B, L, E) array."""
    B, L, E = shape
    return min(L, max(1, _CONV_BLOCK // (B * E)))


def _conv_pre_into(xd, taps, bias, r0, r1, pre, tmp) -> np.ndarray:
    """Rows r0..r1-1 of the causal convolution of xd (B, L, E) plus bias,
    in pre[:, :r1 - r0]; ``taps`` is the (k, E) kernel, tap j multiplying
    the input j steps back, and tmp a buffer of as many rows. Each sum
    starts from zero and adds the taps in order, so any split into rows
    gives the same bits."""
    p = pre[:, :r1 - r0]
    p[...] = 0
    for j in range(min(len(taps), r1)):
        lo = max(r0, j)
        np.multiply(xd[:, lo - j:r1 - j], taps[j], out=tmp[:, :r1 - lo])
        p[:, lo - r0:] += tmp[:, :r1 - lo]
    p += bias
    return p


def _conv_silu_into(xd, taps, bias, out) -> np.ndarray:
    """silu(causal convolution of xd + bias) in ``out``, row block by row
    block from the last: ``out`` may be xd itself, since each block reads
    only rows that no block after it has overwritten."""
    rows = _conv_rows(xd.shape)
    pre, tmp = (np.empty((xd.shape[0], rows, xd.shape[2]), dtype=out.dtype)
                for _ in range(2))
    for r0 in reversed(range(0, xd.shape[1], rows)):
        r1 = min(xd.shape[1], r0 + rows)
        _silu_into(_conv_pre_into(xd, taps, bias, r0, r1, pre, tmp), out[:, r0:r1])
    return out


def _conv_grads_into(gp, xd, taps, gx) -> tuple[np.ndarray, np.ndarray]:
    """The gradients of the convolution + bias from gp = dloss/d(its
    output): the input's in ``gx``, and the (E, k) weight's and (E,) bias's
    returned."""
    B, L, E = xd.shape
    k, rows = len(taps), _conv_rows(xd.shape)
    tmp = np.empty((B, rows, E), dtype=gx.dtype)
    gx[...] = 0
    for r0 in range(0, L, rows):
        r1 = min(L, r0 + rows)
        for j in range(min(k, L - r0)):
            hi = min(r1, L - j)
            np.multiply(gp[:, r0 + j:hi + j], taps[j], out=tmp[:, :hi - r0])
            gx[:, r0:hi] += tmp[:, :hi - r0]
    gw = np.zeros((E, k), dtype=taps.dtype)
    for j in range(min(k, L)):
        gw[:, j] = np.einsum("ble,ble->e", gp[:, j:], xd[:, :L - j])
    return gw, gp.sum(axis=(0, 1))


def _silu_backward_into(pre: np.ndarray, g: np.ndarray) -> None:
    """The SiLU's backward in place, in blocks of _conv_rows rows: g, dloss/d
    silu(pre), becomes dloss/d pre, and pre becomes silu(pre)."""
    rows = _conv_rows(pre.shape)
    s, d = (np.empty_like(pre[:, :rows]) for _ in range(2))
    for r0 in range(0, pre.shape[1], rows):
        p, n = pre[:, r0:r0 + rows], min(rows, pre.shape[1] - r0)
        g[:, r0:r0 + n] *= _silu_slope_into(p, s[:, :n], d[:, :n])
        p *= s[:, :n]


def causal_conv1d(x, weight, bias) -> Tensor:
    """silu(per-channel causal convolution + bias) on (B, L, E), Mamba's
    causal_conv1d_fn with activation="silu". The (E,) bias is required.

    ``weight[e, j]`` multiplies the input j steps in the past, so a kernel of
    (1, 0, ..., 0) is the identity before the SiLU; positions before the
    sequence start have no tap term at all (the sum skips it). The graph
    keeps the input alone: the backward recomputes the convolution + bias
    whole, then the SiLU's backward in blocks of rows, as the forward works.
    Every product and sum is the one a separate convolution and ``silu``
    would form, in the same order. ``ssm.selective_scan`` runs the same
    kernels on its own input.
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if x.ndim != 3:
        raise ShapeError(f"causal_conv1d expects (B, L, E), got {x.shape}")
    B, L, E = x.shape
    if weight.ndim != 2 or weight.shape[0] != E:
        raise ShapeError(f"causal_conv1d: weight {weight.shape} does not match E={E}")
    if bias.shape != (E,):
        raise ShapeError(f"causal_conv1d: bias {bias.shape} does not match E={E}")
    xd, bd = x.data, bias.data
    # tap j as a contiguous row, which numpy multiplies with SIMD; the
    # strided column weight[:, j] took three times as long
    taps = np.ascontiguousarray(weight.data.T)
    out = _conv_silu_into(xd, taps, bd, np.empty_like(xd))

    def vjp(g):
        pre = _conv_pre_into(xd, taps, bd, 0, L, np.empty_like(xd), np.empty_like(xd))
        gp = g.astype(xd.dtype)                # dloss/d(pre-activation)
        _silu_backward_into(pre, gp)
        return [pre, *_conv_grads_into(gp, xd, taps, pre)]   # pre: dloss/dx

    return custom_op(out, (x, weight, bias), vjp)


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


def mse(pred, target) -> Tensor:
    """Mean squared error; an empty prediction yields a loss of exactly 0."""
    pred = as_tensor(pred)
    t = target.data if isinstance(target, Tensor) else np.asarray(target)
    if t.shape != pred.shape:
        raise ShapeError(f"mse: target {t.shape} does not match prediction {pred.shape}")
    d = pred.data - t
    shape, dtype, size = pred.shape, pred.dtype, pred.size
    if size == 0:
        return custom_op(np.zeros((), dtype=dtype), (pred,),
                         lambda g: (np.zeros(shape, dtype=dtype),))
    out = np.asarray((d * d).mean(), dtype=dtype)
    return custom_op(out, (pred,), lambda g: (g * 2.0 * d / size,))
