"""Discretized selective state space machinery and the unidirectional block.

The block follows the standard gated layout: normalize, project to an
expanded width, causal depthwise conv + SiLU, input-dependent (B, C, dt),
a sequential scan that applies the zero-order-hold discretization step by
step to a (batch, state, channel) state, SiLU self-gating, output
projection with a residual connection.

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

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, NumericFaultError, ShapeError


@dataclass(frozen=True)
class SSMDims:
    """Static widths of one block; batch and length come from the input."""

    d: int          # residual stream width
    e: int          # expanded inner width (2*d by default upstream)
    n: int          # state size per inner channel
    r: int = 16     # rank of the factored step-size projection
    k: int = 4      # depthwise conv taps

    def __post_init__(self):
        if min(self.d, self.e, self.n, self.r, self.k) < 1:
            raise ContractError(f"all SSM dims must be >= 1, got {self}")


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
    state_skip: Tensor | None = None  # (e,), optional additive y += skip * x
    index: int = 0

    def named(self, prefix: str = ""):
        fields = [
            ("norm_gain", self.norm_gain), ("w_in_x", self.w_in_x),
            ("w_in_z", self.w_in_z), ("conv_w", self.conv_w),
            ("conv_b", self.conv_b), ("w_b", self.w_b), ("w_c", self.w_c),
            ("w_dt_down", self.w_dt_down), ("w_dt_up", self.w_dt_up),
            ("dt_bias", self.dt_bias), ("a_log", self.a_log),
            ("w_out", self.w_out),
        ]
        if self.state_skip is not None:
            fields.append(("state_skip", self.state_skip))
        for name, t in fields:
            yield prefix + name, t


def _linear_init(rng: np.random.Generator, fan_in: int, shape, dtype) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return ad.parameter(rng.uniform(-bound, bound, size=shape).astype(dtype))


def init_mamba_block(
    dims: SSMDims,
    rng: np.random.Generator,
    dtype=np.float32,
    index: int = 0,
    use_state_skip: bool = False,
) -> MambaBlockParams:
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
        state_skip=ad.parameter(np.ones(e, dtype=dtype)) if use_state_skip else None,
        index=index,
    )


_CHUNK = 16  # scan steps per stored state in grad mode


def selective_scan(dt: Tensor, a: Tensor, b: Tensor, c: Tensor, x: Tensor, *,
                   dt_bias: Tensor | None = None, z: Tensor | None = None,
                   skip: Tensor | None = None) -> Tensor:
    """Zero-order-hold selective scan, discretization included:
    h_t = exp(dt_t*A) * h_{t-1} + dt_t*B_t*x_t;  y_t = <C_t, h_t>.

    dt (B, L, E) must be positive; a (E, N); b, c (B, L, N); x (B, L, E);
    returns (B, L, E). Strictly causal; the recurrence is sequential per
    (batch, channel) lane. The state is (B, N, E), channels innermost, and
    each step writes into buffers allocated once per call. The forward pass
    walks the steps in chunks of _CHUNK and forms each chunk's dt*x (and
    step, see below) only for that chunk. Only when grad mode is on and an
    input requires grad are states kept: the one entering each chunk. The
    backward pass walks the chunks last to first and recomputes each chunk's
    dt*x, states and exp(dt_t*A) factors with the forward's own step. At the
    start of each chunk it zeroes the entries of the adjoint dloss/dh_t below
    np.finfo(dtype).tiny (see the module docstring). It reads the saved
    arrays, never writing into them, so repeated backward calls accumulate.

    The keyword inputs take in the block's elementwise ops around the scan,
    as Mamba's selective_scan_fn does (arXiv:2312.00752). With ``dt_bias``
    (E,), dt is the raw pre-activation and the step is softplus(dt +
    dt_bias). With ``skip`` (E,) the output is y + skip*x, and with ``z``
    (B, L, E) that is multiplied by silu(z). Output and gradients are bit
    for bit those of the same ops applied around the plain scan, but the
    graph keeps only raw dt and z: the backward recomputes the step, y and
    silu(z) chunk by chunk, each on the layout the forward computed it on.
    """
    B, L, E = dt.shape
    N = a.shape[-1]
    if (a.shape != (E, N) or b.shape != (B, L, N) or c.shape != (B, L, N)
            or x.shape != (B, L, E)
            or (dt_bias is not None and dt_bias.shape != (E,))
            or (z is not None and z.shape != (B, L, E))
            or (skip is not None and skip.shape != (E,))):
        extra = "".join(f", {name}={t.shape}" for name, t in
                        (("dt_bias", dt_bias), ("z", z), ("skip", skip))
                        if t is not None)
        raise ShapeError(
            f"selective_scan: expected (B,L,E), (E,N), (B,L,N), (B,L,N), (B,L,E) "
            f"and dt_bias (E,), z (B,L,E), skip (E,); "
            f"got {dt.shape}, {a.shape}, {b.shape}, {c.shape}, {x.shape}{extra}")
    parents = (dt, a, b, c, x) + tuple(
        t for t in (dt_bias, z, skip) if t is not None)
    dtype = np.result_type(*(p.data for p in parents))
    At = np.ascontiguousarray(a.data.T, dtype=dtype)             # (N, E)
    raw, xd = dt.data, x.data
    bias, zd, sk = (None if t is None else t.data for t in (dt_bias, z, skip))
    # time-major views: X is (L, B, E); Bm and C are (L, B, N)
    X, Bm, C = (np.moveaxis(v, 1, 0) for v in (xd, b.data, c.data))
    K = _CHUNK
    keep = ad.grad_enabled() and any(p.requires_grad for p in parents)
    entry = np.empty((-(-L // K), B, N, E), dtype=dtype) if keep else None
    h = np.zeros((B, N, E), dtype=dtype)
    abar, bx = np.empty_like(h), np.empty_like(h)

    def step_sizes(t0, n):
        # the steps of t0..t0+n-1, time-major (n, B, E), and their
        # pre-activation (B, n, E), or None without dt_bias
        if bias is None:
            return np.moveaxis(raw, 1, 0)[t0:t0 + n], None
        pre = raw[:, t0:t0 + n] + bias
        return np.moveaxis(ad._softplus(pre), 1, 0), pre

    def step(d, bm, u, h_prev, h_out, abar):
        # h_out = exp(d*A) * h_prev + bm u with u = d*x; abar keeps exp(d*A)
        np.exp(np.einsum("be,ne->bne", d, At, out=abar), out=abar)
        np.einsum("bn,be->bne", bm, u, out=bx)
        np.multiply(abar, h_prev, out=h_out)
        h_out += bx

    out = np.empty((B, L, E), dtype=dtype)
    y = np.moveaxis(out, 1, 0)                                   # (L, B, E) view
    for t0 in range(0, L, K):
        n = min(K, L - t0)
        D = step_sizes(t0, n)[0]
        U = D * X[t0:t0 + n]                                     # dt*x
        if keep:
            entry[t0 // K] = h
        for j in range(n):
            step(D[j], Bm[t0 + j], U[j], h, h, abar)
            np.matmul(C[t0 + j][:, None, :], h, out=y[t0 + j][:, None, :])
    del D, U
    if sk is not None:
        out += xd * sk
    if zd is not None:
        out *= zd * ad._sigmoid(zd)

    def vjp(g):
        # g_y: dloss/d(y + skip*x), which is g itself without z
        g_y = g if zd is None else np.empty((B, L, E), dtype=dtype)
        g_z = None if zd is None else np.empty((B, L, E), dtype=dtype)
        gy = np.moveaxis(g_y, 1, 0)                              # (L, B, E)
        g_x = np.empty((L, B, E), dtype=dtype)
        # dloss/d(dt): time-major, or wrt the raw dt (B, L, E) with dt_bias
        g_dt = (np.empty((L, B, E), dtype=dtype) if bias is None
                else np.empty((B, L, E), dtype=dtype))
        g_u, g_step = np.empty((K, B, E), dtype=dtype), np.empty((K, B, E), dtype=dtype)
        g_b, g_c = np.empty((L, B, N), dtype=dtype), np.empty((L, B, N), dtype=dtype)
        acc = np.zeros((B, N, E), dtype=dtype)                   # dloss/dh_t
        g_a, s = np.zeros_like(acc), np.empty_like(acc)
        hs = np.empty((K + 1, B, N, E), dtype=dtype)             # hs[j] = h_{t0+j-1}
        abars = np.empty((K, B, N, E), dtype=dtype)
        ys = None if zd is None else np.empty((K, B, E), dtype=dtype)
        tiny, mask = np.finfo(dtype).tiny, np.empty(acc.shape, dtype=bool)
        for t0 in reversed(range(0, L, K)):
            # subnormal adjoint entries cost x86 microcode assists; see the
            # module docstring
            np.less(np.abs(acc, out=s), tiny, out=mask)
            np.putmask(acc, mask, 0)
            n = min(K, L - t0)
            rows = slice(t0, t0 + n)
            Dc, pre = step_sizes(t0, n)
            Uc = Dc * X[rows]                                    # this chunk's dt*x
            hs[0] = entry[t0 // K]
            for j in range(n):
                step(Dc[j], Bm[t0 + j], Uc[j], hs[j], hs[j + 1], abars[j])
            if zd is not None:
                for j in range(n):
                    np.matmul(C[t0 + j][:, None, :], hs[j + 1], out=ys[j][:, None, :])
                y = np.moveaxis(ys[:n], 0, 1)                    # (B, n, E)
                if sk is not None:
                    y = y + xd[:, rows] * sk
                zc = np.ascontiguousarray(zd[:, rows])
                sig = ad._sigmoid(zc)
                np.multiply(g[:, rows], zc * sig, out=g_y[:, rows])
                np.multiply(g[:, rows] * y, sig * (1.0 + zc * (1.0 - sig)),
                            out=g_z[:, rows])
            np.matmul(hs[1:n + 1], gy[rows, :, :, None], out=g_c[rows, :, :, None])
            for j in range(n - 1, -1, -1):
                t = t0 + j
                acc += np.einsum("bn,be->bne", C[t], gy[t], out=s)
                np.matmul(Bm[t][:, None, :], acc, out=g_u[j][:, None, :])
                np.matmul(acc, Uc[j][:, :, None], out=g_b[t][:, :, None])
                acc *= abars[j]
                if t:
                    np.multiply(acc, hs[j], out=s)           # s: dloss/d(dt_t*A)
                    np.einsum("bne,ne->be", s, At, out=g_step[j])
                    g_a += np.multiply(s, Dc[j][:, None, :], out=s)
                else:
                    g_step[j] = 0
            np.multiply(g_u[:n], Dc, out=g_x[rows])
            if bias is None:
                np.add(g_step[:n], g_u[:n] * X[rows], out=g_dt[rows])
            else:
                np.multiply(np.moveaxis(g_step[:n] + g_u[:n] * X[rows], 0, 1),
                            ad._sigmoid(pre), out=g_dt[:, rows])
        g_a = np.ascontiguousarray(g_a.sum(0).T)                # (E, N)
        g_x = np.moveaxis(g_x, 0, 1)
        if sk is not None:
            g_x = g_y * sk + g_x      # in the order a separate skip op adds it
        grads = [g_dt if bias is not None else np.moveaxis(g_dt, 0, 1), g_a,
                 np.moveaxis(g_b, 0, 1), np.moveaxis(g_c, 0, 1), g_x]
        if bias is not None:
            grads.append(ad._unbroadcast(g_dt, bias.shape))
        if zd is not None:
            grads.append(g_z)
        if sk is not None:
            grads.append(ad._unbroadcast(g_y * xd, sk.shape))
        return grads

    return ad.custom_op(out, parents, vjp)


def block_forward(x_prev: Tensor, params: MambaBlockParams) -> Tensor:
    """One block: (B, L, D) -> (B, L, D), causal along L."""
    p = params
    if x_prev.ndim != 3 or x_prev.shape[-1] != p.dims.d:
        raise ShapeError(
            f"block_forward: input {x_prev.shape} does not match d={p.dims.d}")
    xn = ad.rmsnorm(x_prev, p.norm_gain)
    x = ad.matmul(xn, p.w_in_x)
    z = ad.matmul(xn, p.w_in_z)
    xc = ad.silu(ad.causal_conv1d(x, p.conv_w, p.conv_b))
    b_in = ad.matmul(xc, p.w_b)
    c = ad.matmul(xc, p.w_c)
    dt_raw = ad.matmul(ad.matmul(xc, p.w_dt_down), p.w_dt_up)
    a = ad.neg(ad.exp(p.a_log))
    gated = selective_scan(dt_raw, a, b_in, c, xc, dt_bias=p.dt_bias, z=z,
                           skip=p.state_skip)
    out = ad.add(ad.matmul(gated, p.w_out), x_prev)
    if not np.all(np.isfinite(out.data)):
        raise NumericFaultError(f"non-finite activation in block {p.index}")
    return out


def stack_forward(x: Tensor, blocks: list[MambaBlockParams],
                  final_gain: Tensor) -> Tensor:
    """Blocks in sequence, then a final RMS normalization."""
    for p in blocks:
        x = block_forward(x, p)
    return ad.rmsnorm(x, final_gain)
