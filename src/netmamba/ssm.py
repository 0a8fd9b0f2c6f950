"""Discretized selective state space machinery and the unidirectional block.

The block follows the standard gated layout: normalize, project to an
expanded width, causal depthwise conv + SiLU, input-dependent (B, C, dt),
a sequential scan that applies the zero-order-hold discretization step by
step to a (batch, state, channel) state, SiLU self-gating, output
projection with a residual connection.

What one block keeps for its backward pass, as Mamba's mamba_inner_fn does
with checkpoint_lvl=1 (arXiv:2312.00752): of its (B, L, E) arrays only the
in-projection x and the gate input z; of its (B, L, D) arrays only its
input and the normalized input; plus the (B, L, R) step down-projection, B
and C, and the scan's chunk-entry states. Everything else is recomputed in
the backward pass: ``selective_scan`` takes in the causal conv + SiLU, the
B, C and step down-projections, the step's up-projection, softplus, gate
and the output projection, and recomputes the conv output xc chunk by
chunk from x (keeping the convolution + bias for the conv's own backward),
the raw step, the step, y, silu(z) and the gated output. Each
recomputation repeats the forward's arithmetic on the same layout, so the
gradients are bit for bit those of the separate ops.

Without grad nothing is kept for a backward pass, and ``stack_forward``
streams along the sequence: it runs every block over one row chunk at a
time, as Mamba's own inference steps along a sequence with a conv_state and
an ssm_state (arXiv:2312.00752). Each block carries a ``BlockCarry`` from
one chunk to the next: the last k-1 rows of its in-projection x, which
``selective_scan`` puts in front of the next chunk's before the conv, and
its (B, N, E) scan state, which the scan starts from and steps in place.
The stack's input can be ``Rows`` that form each chunk on demand, so a
no-grad pass holds a block's arrays for one chunk only, and its memory
beyond its output does not grow with L. The carry is no-grad only:
``stack_forward`` makes carries only without grad, and with grad on the
one chunk is the whole sequence.

The block and the stack are told how many final rows the caller reads
(``tail``; all of them by default), and the scan reads it from the rows of
z. A classifier that reads the last row alone gets it without the
rows before: below the top block every row is needed, but the top block
forms z, C, y, the gate, the out-projection and the residual only for the
rows read, and elsewhere only steps its conv tail and scan state; the
scan's backward skips the per-step work of the rows not read.

``selective_scan`` takes exactly the block's inputs. The block is its only
caller, and ``stack_forward`` the block's: it checks the stack's input
(rank and tail; ``ad.rmsnorm`` refuses a wrong width), and neither the
block nor the scan re-checks a shape. The scan is ``_recurrence``, which
works on arrays; the tests keep the plain recurrence as their oracle and
reach ``_recurrence`` with identity projections.

For training the scan keeps only the state entering each chunk of _CHUNK
steps; its backward pass recomputes each chunk from the arrays it saved.
That backward pass also sets the subnormal entries of its state adjoint to
zero once per chunk. A gradient that reaches the scan at only a few steps
(fine-tuning's head reads the last row alone) decays by exp(dt*A) per step
going back and would otherwise sit in float32's subnormal range, which x86
handles in slow microcode; numpy has no flush-to-zero switch. The forward
pass is untouched. Each flushed entry is below 1.2e-38 in float32, and in
the tests no gradient moves by more than 1e-30.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, NumericFaultError, ShapeError


@dataclass(frozen=True)
class SSMDims:
    """Static widths of one block, from a ModelConfig, which checks them;
    batch and length come from the input."""

    d: int          # residual stream width
    e: int          # expanded inner width (2*d by default upstream)
    n: int          # state size per inner channel
    r: int = 16     # rank of the factored step-size projection
    k: int = 4      # depthwise conv taps


@dataclass
class MambaBlockParams:
    """Learnable tensors of one block. A = -exp(a_log) keeps every discrete
    transition exp(dt*A) inside (0, 1) for positive dt."""

    dims: SSMDims
    norm_gain: Tensor
    w_in_x: Tensor      # (d, e)
    w_in_z: Tensor      # (d, e)
    conv_w: Tensor      # (e, k)
    conv_b: Tensor      # (e,)
    w_b: Tensor         # (e, n)
    w_c: Tensor         # (e, n)
    w_dt_down: Tensor   # (e, r)
    w_dt_up: Tensor     # (r, e)
    dt_bias: Tensor     # (e,)
    a_log: Tensor       # (e, n)
    w_out: Tensor       # (e, d)
    index: int = 0

    def named(self, prefix: str = ""):
        for name in ("norm_gain", "w_in_x", "w_in_z", "conv_w", "conv_b", "w_b",
                     "w_c", "w_dt_down", "w_dt_up", "dt_bias", "a_log", "w_out"):
            yield prefix + name, getattr(self, name)


def _linear_init(rng: np.random.Generator, fan_in: int, shape, dtype) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return ad.parameter(rng.uniform(-bound, bound, size=shape).astype(dtype))


def init_mamba_block(dims: SSMDims, rng: np.random.Generator, dtype=np.float32,
                     index: int = 0) -> MambaBlockParams:
    """S4-style stable initialization: A[e, n] = -(n+1), and a dt bias chosen
    so softplus(dt_bias) is log-uniform in [1e-3, 1e-1]."""
    d, e, n, r, k = dims.d, dims.e, dims.n, dims.r, dims.k
    a_init = np.tile(np.arange(1, n + 1, dtype=np.float64), (e, 1))
    dt = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=e))
    dt_bias = dt + np.log(-np.expm1(-dt))  # inverse of softplus
    return MambaBlockParams(
        dims=dims,
        norm_gain=ad.parameter(np.ones(d, dtype=dtype)),
        w_in_x=_linear_init(rng, d, (d, e), dtype),
        w_in_z=_linear_init(rng, d, (d, e), dtype),
        conv_w=_linear_init(rng, k, (e, k), dtype),
        conv_b=ad.parameter(np.zeros(e, dtype=dtype)),
        w_b=_linear_init(rng, e, (e, n), dtype),
        w_c=_linear_init(rng, e, (e, n), dtype),
        w_dt_down=_linear_init(rng, e, (e, r), dtype),
        w_dt_up=ad.parameter(
            rng.uniform(-(r ** -0.5), r ** -0.5, size=(r, e)).astype(dtype)),
        dt_bias=ad.parameter(dt_bias.astype(dtype)),
        a_log=ad.parameter(np.log(a_init).astype(dtype)),
        w_out=_linear_init(rng, e, (e, d), dtype),
        index=index,
    )


_CHUNK = 16  # scan steps per stored state in grad mode


def _recurrence(low, a, b, c, x, bias, z, wu, wo, *, keep=False, state=None,
                y_buf=None):
    """The zero-order-hold selective scan on arrays, with the step's
    up-projection, softplus, gate and out-projection taken in:

        dt_t = softplus(low_t @ wu + bias)
        h_t = exp(dt_t*A) * h_{t-1} + dt_t*B_t*x_t;  y_t = <C_t, h_t>
        out_t = (y_t * silu(z_t)) @ wo

    low (B, L, R) is the step's down-projection and wu (R, E) its
    up-projection; bias (E,); a (E, N); b (B, L, N); x (B, L, E); c
    (B, T, N) and z (B, T, E) with T <= L; wo (E, D). Returns the (B, T, D)
    output and, when ``keep``, ``backward(g, x_rows)``, which returns the
    gradients of the nine inputs in this order for the upstream gradient g
    and reads the rows t0..t1-1 of x as ``x_rows(t0, t1)`` gives them: the
    backward keeps no reference to x. Strictly causal; the recurrence is
    sequential per (batch, channel) lane. The state is (B, N, E), channels
    innermost, and each step writes into buffers allocated once per call.

    The forward pass walks the steps in chunks of _CHUNK, forming each
    chunk's raw step, step and dt*x only for that chunk, and keeps, with
    ``keep``, only the state entering each chunk. The backward pass walks
    the chunks last to first and recomputes each chunk's raw step, step,
    dt*x, states, exp(dt_t*A), y, silu(z) and gated output with the
    forward's own arithmetic and layout, so output and gradients are bit
    for bit those of the same ops applied one by one. A chunk's rows of
    low @ wu round as the whole product's do: numpy multiplies both with
    gemm, and a lone step is taken with the one before it, as a one-row
    product would go to gemv. At the start of each chunk the backward
    zeroes the entries of the adjoint dloss/dh_t below np.finfo(dtype).tiny
    (see the module docstring). It reads the arrays it kept, never writing
    into them, so repeated backward calls accumulate. Once a chunk is done
    its rows of dloss/dy are not read again, and with T = L it writes
    dloss/dx over them, so x's gradient takes no buffer of its own.

    c and z hold the T final rows the caller reads. With T < L every step
    still moves the state, but y, C_t, the gate and the out-projection
    exist for rows L-T..L-1 alone, and the backward pass skips, at each
    earlier step, the C_t (x) dloss/dy_t outer product, the recomputed y_t
    and its gate. T = 0 steps the state only.

    ``state`` (B, N, E), no-grad only: the state before the first step,
    stepped in place, so on return it holds the state after the last step;
    without it the scan starts from zeros. ``y_buf`` (B, T, E), optional:
    the buffer y and the gated output are formed in. It may be x itself,
    whose rows are read for a chunk before any of them is written.
    """
    B, L, E = x.shape
    T, N = c.shape[1], a.shape[1]
    dtype = np.result_type(low, a, b, c, x, bias, z, wu, wo)
    At = np.ascontiguousarray(a.T, dtype=dtype)                  # (N, E)
    # time-major views: X is (L, B, E), Bm (L, B, N) and C (T, B, N)
    X, Bm, C = (np.moveaxis(v, 1, 0) for v in (x, b, c))
    K, first = _CHUNK, L - T                      # first: the first row read
    entry = np.empty((-(-L // K), B, N, E), dtype=dtype) if keep else None
    h = np.zeros((B, N, E), dtype=dtype) if state is None else state
    abar, bx = np.empty_like(h), np.empty_like(h)

    def step_sizes(t0, n):
        # the steps of t0..t0+n-1, time-major (n, B, E), and their
        # pre-activation (B, n, E), whose raw step is up-projected from
        # these rows alone, as ad.matmul would. numpy sends a one-row
        # product to gemv, which rounds unlike gemm, so a lone step after
        # the first is projected along with the one before
        lo = t0 - 1 if n == 1 and t0 else t0
        pre = (low[:, lo:t0 + n] @ wu)[:, t0 - lo:]
        pre += bias
        return np.moveaxis(ad._softplus(pre), 1, 0), pre

    def read(t0, n):
        # of the chunk t0..t0+n-1: the first step read, and the output rows
        # of the steps from there on
        j0 = min(max(first - t0, 0), n)
        return j0, slice(t0 + j0 - first, t0 + n - first)

    def step(d, bm, u, h_prev, h_out, abar):
        # h_out = exp(d*A) * h_prev + bm u with u = d*x; abar keeps exp(d*A)
        np.exp(np.einsum("be,ne->bne", d, At, out=abar), out=abar)
        np.einsum("bn,be->bne", bm, u, out=bx)
        np.multiply(abar, h_prev, out=h_out)
        h_out += bx

    out = np.empty((B, T, E), dtype=dtype) if y_buf is None else y_buf
    ys = np.moveaxis(out, 1, 0)                                  # (T, B, E) view
    for t0 in range(0, L, K):
        n = min(K, L - t0)
        D = step_sizes(t0, n)[0]
        U = D * X[t0:t0 + n]                                     # dt*x
        if keep:
            entry[t0 // K] = h
        for j in range(n):
            t = t0 + j
            step(D[j], Bm[t], U[j], h, h, abar)
            if t >= first:
                np.matmul(C[t - first][:, None, :], h, out=ys[t - first][:, None, :])
        j0, rows = read(t0, n)
        if j0 < n:
            zc = np.ascontiguousarray(z[:, rows])
            out[:, rows] *= zc * ad._sigmoid(zc)
    del D, U, X, ys
    out = out @ wo
    if not keep:
        return out, None

    def backward(g, x_rows):
        # g_y: dloss/dy, written chunk by chunk over the op's own buffer of
        # dloss/d(gated output) = g @ woᵀ
        g_y = g @ np.swapaxes(wo, -1, -2)
        g_z, gated = (np.empty((B, T, E), dtype=dtype) for _ in range(2))
        gy = np.moveaxis(g_y, 1, 0)                              # (T, B, E)
        g_x = g_y if T == L else np.empty((B, L, E), dtype=dtype)
        gx = np.moveaxis(g_x, 1, 0)                              # (L, B, E)
        g_dt = np.empty((B, L, E), dtype=dtype)                  # wrt the raw step
        g_u, g_step = np.empty((K, B, E), dtype=dtype), np.empty((K, B, E), dtype=dtype)
        g_b, g_c = np.empty((L, B, N), dtype=dtype), np.empty((T, B, N), dtype=dtype)
        acc = np.zeros((B, N, E), dtype=dtype)                   # dloss/dh_t
        g_a, s = np.zeros_like(acc), np.empty_like(acc)
        hs = np.empty((K + 1, B, N, E), dtype=dtype)             # hs[j] = h_{t0+j-1}
        abars = np.empty((K, B, N, E), dtype=dtype)
        ys = np.empty((K, B, E), dtype=dtype)
        tiny, mask = np.finfo(dtype).tiny, np.empty(acc.shape, dtype=bool)
        for t0 in reversed(range(0, L, K)):
            # subnormal adjoint entries cost x86 microcode assists; see the
            # module docstring
            np.less(np.abs(acc, out=s), tiny, out=mask)
            np.putmask(acc, mask, 0)
            n = min(K, L - t0)
            rows = slice(t0, t0 + n)
            Dc, pre = step_sizes(t0, n)
            Xc = np.moveaxis(x_rows(t0, t0 + n), 1, 0)           # this chunk's x
            Uc = Dc * Xc                                         # and dt*x
            hs[0] = entry[t0 // K]
            for j in range(n):
                step(Dc[j], Bm[t0 + j], Uc[j], hs[j], hs[j + 1], abars[j])
            j0, out_rows = read(t0, n)
            if j0 < n:
                for j in range(j0, n):
                    np.matmul(C[t0 + j - first][:, None, :], hs[j + 1],
                              out=ys[j][:, None, :])
                y = np.moveaxis(ys[j0:n], 0, 1)                  # (B, n - j0, E)
                zc = np.ascontiguousarray(z[:, out_rows])
                sig = ad._sigmoid(zc)
                gate = zc * sig
                np.multiply(g_y[:, out_rows] * y, sig * (1.0 + zc * (1.0 - sig)),
                            out=g_z[:, out_rows])
                np.multiply(g_y[:, out_rows], gate, out=g_y[:, out_rows])
                np.multiply(y, gate, out=gated[:, out_rows])
                np.matmul(hs[j0 + 1:n + 1], gy[out_rows, :, :, None],
                          out=g_c[out_rows, :, :, None])
            for j in range(n - 1, -1, -1):
                t = t0 + j
                if t >= first:
                    acc += np.einsum("bn,be->bne", C[t - first], gy[t - first], out=s)
                np.matmul(Bm[t][:, None, :], acc, out=g_u[j][:, None, :])
                np.matmul(acc, Uc[j][:, :, None], out=g_b[t][:, :, None])
                acc *= abars[j]
                if t:
                    np.multiply(acc, hs[j], out=s)           # s: dloss/d(dt_t*A)
                    np.einsum("bne,ne->be", s, At, out=g_step[j])
                    g_a += np.multiply(s, Dc[j][:, None, :], out=s)
                else:
                    g_step[j] = 0
            np.multiply(g_u[:n], Dc, out=gx[rows])
            np.multiply(np.moveaxis(g_step[:n] + g_u[:n] * Xc, 0, 1),
                        ad._sigmoid(pre), out=g_dt[:, rows])
        del hs, abars
        g_a = np.ascontiguousarray(g_a.sum(0).T)                # (E, N)
        g_b, g_c = (np.moveaxis(v, 0, 1) for v in (g_b, g_c))
        g_bias = ad._unbroadcast(g_dt, bias.shape)
        # as ad.matmul's vjp: wu, the step's down-projection and wo; the
        # (B, L, E) g_dt goes before the last GEMM
        g_wu = ad._unbroadcast(np.swapaxes(low, -1, -2) @ g_dt, wu.shape)
        g_low = g_dt @ np.swapaxes(wu, -1, -2)
        del g_dt
        g_wo = ad._unbroadcast(np.swapaxes(gated, -1, -2) @ g, wo.shape)
        return [g_low, g_a, g_b, g_c, g_x, g_bias, g_z, g_wu, g_wo]

    return out, backward


def selective_scan(x: Tensor, z: Tensor, conv_w: Tensor, conv_b: Tensor, w_b: Tensor,
                   w_c: Tensor, w_dt_down: Tensor, w_dt_up: Tensor, dt_bias: Tensor,
                   a: Tensor, w_out: Tensor, *, carry: BlockCarry | None = None) -> Tensor:
    """A block from its in-projection to its out-projection, as Mamba's
    mamba_inner_fn (arXiv:2312.00752): the causal conv + SiLU of the
    in-projection x, the B, C and step down-projections of its output xc,
    then the scan of xc with the step's up-projection, softplus, gate and
    out-projection (see ``_recurrence``):

        xc = silu(causal_conv(x, conv_w) + conv_b)
        B = xc @ w_b;  C = xc @ w_c;  dt_low = xc @ w_dt_down
        out = scan(dt_low, a, B, C, xc, dt_bias, z, w_dt_up, w_out)

    x (B, L, E); z (B, T, E) with T <= L, the rows the caller reads; conv_w
    (E, k); conv_b (E,); w_b and w_c (E, N); w_dt_down (E, R); w_dt_up
    (R, E); dt_bias (E,); a (E, N); w_out (E, D); returns (B, T, D). C
    exists for the T rows read alone.

    For its backward pass the op keeps x, z, B, C, dt_low and the scan's
    chunk-entry states, never xc. The backward pass recomputes xc chunk by
    chunk with ``ad.causal_conv1d``'s kernels, keeping the convolution +
    bias of each row for the conv's own backward, so the conv is
    recomputed once. The gradient reaching xc sums the scan's, the step's,
    C's and B's contributions in the order the separate ops' backward
    passes would add them; the projections' products are whole-array
    GEMMs, as the separate ops form them; so every output and gradient is
    bit for bit that of the separate ops.

    ``carry`` (no-grad only): a ``BlockCarry`` from the previous row chunk
    of a longer sequence. Its in-projection rows go in front of x's, the
    conv runs over both and the rows it gives for the carried ones are
    dropped, so each row sees the taps of one pass over the whole; the last
    k-1 rows of that input are carried on. The scan starts from the carried
    state and steps it in place. ``stack_forward`` makes carries only
    without grad, of this block's widths and the pass's dtype.
    """
    parents = (x, z, conv_w, conv_b, w_b, w_c, w_dt_down, w_dt_up, dt_bias, a, w_out)
    keep = ad.records_graph(*parents)
    B, L, E = x.shape
    T, k = z.shape[1], conv_w.shape[1]
    xd, P = x.data, 0
    if carry is not None:
        P = carry.conv.shape[1]
        xd = np.concatenate([carry.conv, xd], axis=1)
        carry.conv = xd[:, max(0, P + L - (k - 1)):].copy()
    taps, bd = np.ascontiguousarray(conv_w.data.T), conv_b.data
    # the concatenation is the op's own, so xc overwrites it
    xc = ad._conv_silu_into(xd, taps, bd,
                            np.empty_like(xd) if carry is None else xd)[:, P:]
    first = L - T
    wb, wc, wd = w_b.data, w_c.data, w_dt_down.data
    out, back = _recurrence(xc @ wd, a.data, xc @ wb, xc[:, first:] @ wc, xc,
                            dt_bias.data, z.data, w_dt_up.data, w_out.data, keep=keep,
                            state=None if carry is None else carry.state,
                            y_buf=xc if T == L else None)
    del xc

    def vjp(g):
        # xc again, chunk by chunk: its convolution + bias into pre, which
        # the conv's own backward reads, and its SiLU for the scan
        pre = np.empty_like(xd)
        xs, tmp = (np.empty((B, _CHUNK, E), dtype=xd.dtype) for _ in range(2))

        def x_rows(t0, t1):
            p = ad._conv_pre_into(xd, taps, bd, t0, t1, pre[:, t0:], tmp)
            return ad._silu_into(p, xs[:, :t1 - t0])

        g_low, g_a, g_b, g_c, g_xc, g_bias, g_z, g_wu, g_wo = back(g, x_rows)
        del xs, tmp
        # xc's gradient, written over the scan's: the step's, C's and B's
        # down-projections add theirs, each as ad.matmul's vjp forms it; C's
        # row selection scatters into zeros, so the rows it does not read
        # add 0.0 (a -0.0 lands as +0.0)
        g_xc += g_low @ np.swapaxes(wd, -1, -2)
        g_xc[:, first:] += g_c @ np.swapaxes(wc, -1, -2)
        if first:
            g_xc[:, :first] += 0.0
        g_xc += g_b @ np.swapaxes(wb, -1, -2)
        # the SiLU's backward turns g_xc into the gradient of the
        # convolution + bias, and pre into xc for the projections' weights
        rows = ad._conv_rows(pre.shape)
        s, d = (np.empty((B, rows, E), dtype=pre.dtype) for _ in range(2))
        for r0 in range(0, L, rows):
            r1 = min(L, r0 + rows)
            p = pre[:, r0:r1]
            g_xc[:, r0:r1] *= ad._silu_slope_into(p, s[:, :r1 - r0], d[:, :r1 - r0])
            p *= s[:, :r1 - r0]
        del s, d
        xct = np.swapaxes(pre, -1, -2)          # xc, as ad.matmul's vjp takes it
        g_wb = ad._unbroadcast(xct @ g_b, wb.shape)
        g_wc = ad._unbroadcast(xct[..., first:] @ g_c, wc.shape)
        g_wd = ad._unbroadcast(xct @ g_low, wd.shape)
        del xct
        g_conv_w, g_conv_b = ad._conv_grads_into(g_xc, xd, taps, pre)   # pre: dloss/dx
        return [pre, g_z, g_conv_w, g_conv_b, g_wb, g_wc, g_wd, g_wu, g_bias, g_a,
                g_wo]

    return ad.custom_op(out, parents, vjp)


@dataclass
class BlockCarry:
    """What one block hands from a row chunk to the next in a streamed
    no-grad pass, Mamba's conv_state and ssm_state (arXiv:2312.00752)."""

    conv: np.ndarray    # (B, <= k-1, E): the last rows of the in-projection x
    state: np.ndarray   # (B, N, E): the scan state after the last row

    @classmethod
    def start(cls, dims: SSMDims, batch: int, dtype) -> BlockCarry:
        """The carry at the sequence start: no past rows, a zero state."""
        return cls(np.zeros((batch, 0, dims.e), dtype=dtype),
                   np.zeros((batch, dims.n, dims.e), dtype=dtype))


def _tail(t: Tensor, n: int) -> Tensor:
    """The last n rows of a (B, L, ...) tensor: t itself when n = L."""
    rows = t.shape[1]
    return t if n == rows else t[:, rows - n:]


def block_forward(x_prev: Tensor, params: MambaBlockParams,
                  carry: BlockCarry | None = None, tail: int | None = None) -> Tensor:
    """One block: (B, L, D) -> (B, L, D), causal along L.

    ``tail``: how many final rows the caller reads, all L by default. The
    block then returns (B, tail, D): the norm, the in-projection x, the conv
    and B and dt still run over every row, as the scan state needs them,
    but z, C, the scan's y, the gate, the out-projection and the residual
    are formed for the last ``tail`` rows alone (see ``selective_scan``).

    With a ``carry`` (no-grad only) x_prev is the next row chunk of a
    longer sequence, and ``selective_scan`` continues the conv and the scan
    from the carried rows and state. ``stack_forward``, the one caller,
    checks the input's rank and the tail, and makes carries only without
    grad; ``ad.rmsnorm`` refuses an input of another width than d.
    """
    p = params
    T = x_prev.shape[1] if tail is None else tail
    xn = ad.rmsnorm(x_prev, p.norm_gain)
    x = ad.matmul(xn, p.w_in_x)
    z = ad.matmul(_tail(xn, T), p.w_in_z)
    # without grad the normalized input is freed after its last use
    del xn
    a = ad.neg(ad.exp(p.a_log))
    out = ad.add(selective_scan(x, z, p.conv_w, p.conv_b, p.w_b, p.w_c, p.w_dt_down,
                                p.w_dt_up, p.dt_bias, a, p.w_out, carry=carry),
                 _tail(x_prev, T))
    if not np.all(np.isfinite(out.data)):
        raise NumericFaultError(f"non-finite activation in block {p.index}")
    return out


@dataclass(frozen=True)
class Rows:
    """A (B, L, D) stack input that is formed a row range at a time:
    ``take(r0, r1)`` returns rows r0..r1-1 as a Tensor. A streamed pass
    takes one row chunk at a time, a grad-mode pass all L rows at once."""

    shape: tuple[int, int, int]
    take: Callable[[int, int], Tensor]


# elements of one (B, rows, E) array in a row chunk of a streamed no-grad
# pass: 64 rows at batch 16 and E=512. With 1 BLAS thread on a 2-vCPU Xeon,
# a process predicting paper-width batches of 16 peaked at 68.5, 73.2 and
# 85.8 MB RSS in chunks of 32, 64 and 128 rows, against 126.3 MB over all
# 401 rows at once; per batch all four took 1.26-1.31 s (medians of three
# interleaved 10-batch runs), with 64 rows at 1.26 s
_STREAM_BLOCK = 1 << 19


def stack_forward(x: Tensor | Rows, blocks: list[MambaBlockParams],
                  final_gain: Tensor, tail: int | None = None) -> Tensor:
    """Blocks in sequence, then a final RMS normalization: (B, L, D) in,
    the normalized last ``tail`` rows out, (B, tail, D), all L by default.

    ``x`` is the (B, L, D) input, or ``Rows`` that form it on demand. The
    pass walks row chunks through all blocks: with grad on, one chunk of all
    L rows; without grad, chunks of about _STREAM_BLOCK elements per
    (B, rows, E) array, each block keeping a ``BlockCarry`` from one chunk
    to the next. The top block is told which rows of its chunk the caller
    reads (see ``block_forward``), and the final norm runs on those alone,
    so a chunk before the last ``tail`` rows only steps the top block's
    conv tail and scan state. Memory beyond the input and the (B, tail, D)
    output thus depends on the chunk, not on L, and with ``Rows`` no
    (B, L, D) array exists at all. Each row sees the same past as in one
    pass over the whole; a GEMM over fewer rows may round differently, by a
    few ulps. A sequence that fits in one chunk gives the bits of the
    grad-mode pass.
    """
    if not isinstance(x, Rows):
        if x.ndim != 3:
            raise ShapeError(f"stack_forward: input {x.shape} is not (B, L, D)")
        given = x
        x = Rows(x.shape, lambda r0, r1: given if r1 - r0 == given.shape[1]
                 else ad.Tensor(given.data[:, r0:r1]))
    B, L, _ = x.shape
    T = L if tail is None else tail
    if not 1 <= T <= L:
        raise ContractError(f"stack_forward: tail {tail} is not within 1..{L} rows")
    width = max((p.dims.e for p in blocks), default=1)
    rows = L if ad.grad_enabled() else max(1, _STREAM_BLOCK // (B * width))
    carries, out = [None] * len(blocks), None
    for r0 in range(0, L, rows):
        r1 = min(r0 + rows, L)
        read = max(0, r1 - max(r0, L - T))      # rows of this chunk read
        h = x.take(r0, r1)
        if r1 < L and r0 == 0:      # streamed: make the carries and result
            dtype = np.result_type(h.dtype, final_gain.dtype,
                                   *(t.dtype for p in blocks for _, t in p.named()))
            carries = [BlockCarry.start(p.dims, B, dtype) for p in blocks]
            out = np.empty((B, T, final_gain.shape[-1]), dtype=dtype)
        for i, (p, carry) in enumerate(zip(blocks, carries)):
            h = block_forward(h, p, carry, read if i == len(blocks) - 1 else None)
        if not read:
            continue
        h = ad.rmsnorm(_tail(h, read), final_gain)
        if out is None:
            return h
        out[:, r1 - read - (L - T):r1 - (L - T)] = h.data
    return ad.Tensor(out)
