"""Discretized selective state space machinery and the unidirectional block.

The block follows the standard gated layout: normalize, project to an
expanded width, causal depthwise conv + SiLU, input-dependent (B, C, dt),
a sequential scan that applies the zero-order-hold discretization step by
step, SiLU self-gating, output projection with a residual connection.
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
    norm: str = "rms"

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
    norm: str = "rms",
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
        norm=norm,
    )


def selective_scan(dt: Tensor, a: Tensor, b: Tensor, c: Tensor, x: Tensor) -> Tensor:
    """Zero-order-hold selective scan, discretization included:
    h_t = exp(dt_t*A) * h_{t-1} + dt_t*B_t*x_t;  y_t = <C_t, h_t>.

    dt (B, L, E) must be positive; a (E, N); b, c (B, L, N); x (B, L, E);
    returns (B, L, E). Strictly causal; the recurrence is sequential per
    (batch, channel) lane. exp(dt_t*A) is formed one step at a time and
    recomputed in the backward pass; the per-step states are kept only when
    the result will be differentiated.
    """
    B, L, E = dt.shape
    N = a.shape[-1]
    if (a.shape != (E, N) or b.shape != (B, L, N) or c.shape != (B, L, N)
            or x.shape != (B, L, E)):
        raise ShapeError(
            f"selective_scan: expected (B,L,E), (E,N), (B,L,N), (B,L,N), (B,L,E); "
            f"got {dt.shape}, {a.shape}, {b.shape}, {c.shape}, {x.shape}")
    parents = (dt, a, b, c, x)
    A = a.data
    # time-major views: D and U = dt*x are (L, B, E); Bm and C are (L, B, N)
    D, U, Bm, C = (np.moveaxis(v, 1, 0)
                   for v in (dt.data, dt.data * x.data, b.data, c.data))
    keep = ad.grad_enabled() and any(p.requires_grad for p in parents)
    h = np.zeros((B, E, N), dtype=np.result_type(*(p.data for p in parents)))
    H = np.empty((L, B, E, N), dtype=h.dtype) if keep else None
    y = np.empty((L, B, E), dtype=h.dtype)
    for t in range(L):
        h = np.exp(D[t][..., None] * A) * h + U[t][..., None] * Bm[t][:, None, :]
        if keep:
            H[t] = h
        y[t] = np.einsum("ben,bn->be", h, C[t])
    out = np.ascontiguousarray(np.moveaxis(y, 0, 1))

    def vjp(g):
        gy = np.moveaxis(g, 1, 0)                                # (L, B, E)
        g_u = np.empty((L, B, E), dtype=h.dtype)
        g_dt = np.empty_like(g_u)
        g_b = np.empty((L, B, N), dtype=h.dtype)
        g_a, acc = np.zeros_like(h), np.zeros_like(h)            # acc: dloss/dh_t
        for t in range(L - 1, -1, -1):
            acc = gy[t][..., None] * C[t][:, None, :] + acc
            g_u[t] = np.einsum("ben,bn->be", acc, Bm[t])
            g_b[t] = np.einsum("ben,be->bn", acc, U[t])
            abar = np.exp(D[t][..., None] * A)
            s = acc * abar * (H[t - 1] if t else 0.0)            # dloss/d(dt_t*A)
            g_dt[t] = np.einsum("ben,en->be", s, A)
            g_a += s * D[t][..., None]
            acc = acc * abar
        g_dt += g_u * np.moveaxis(x.data, 1, 0)
        g_c = np.einsum("lbe,lben->lbn", gy, H)
        return (np.moveaxis(g_dt, 0, 1), g_a.sum(0), np.moveaxis(g_b, 0, 1),
                np.moveaxis(g_c, 0, 1), np.moveaxis(g_u * D, 0, 1))

    return ad.custom_op(out, parents, vjp)


def block_forward(x_prev: Tensor, params: MambaBlockParams,
                  check_finite: bool = True) -> Tensor:
    """One block: (B, L, D) -> (B, L, D), causal along L."""
    p = params
    if x_prev.ndim != 3 or x_prev.shape[-1] != p.dims.d:
        raise ShapeError(
            f"block_forward: input {x_prev.shape} does not match d={p.dims.d}")
    norm = ad.layernorm if p.norm == "layer" else ad.rmsnorm
    xn = norm(x_prev, p.norm_gain)
    x = ad.matmul(xn, p.w_in_x)
    z = ad.matmul(xn, p.w_in_z)
    xc = ad.silu(ad.causal_conv1d(x, p.conv_w, p.conv_b))
    b_in = ad.matmul(xc, p.w_b)
    c = ad.matmul(xc, p.w_c)
    dt = ad.softplus(ad.add(ad.matmul(ad.matmul(xc, p.w_dt_down), p.w_dt_up),
                            p.dt_bias))
    a = ad.neg(ad.exp(p.a_log))
    y = selective_scan(dt, a, b_in, c, xc)
    if p.state_skip is not None:
        y = ad.add(y, ad.mul(xc, p.state_skip))
    gated = ad.mul(y, ad.silu(z))
    out = ad.add(ad.matmul(gated, p.w_out), x_prev)
    if check_finite and not np.all(np.isfinite(out.data)):
        raise NumericFaultError(f"non-finite activation in block {p.index}")
    return out


def stack_forward(x: Tensor, blocks: list[MambaBlockParams],
                  final_gain: Tensor | None = None, norm: str = "rms") -> Tensor:
    """Blocks in sequence, then an optional final normalization."""
    for p in blocks:
        x = block_forward(x, p)
    if final_gain is not None:
        normf = ad.layernorm if norm == "layer" else ad.rmsnorm
        x = normf(x, final_gain)
    return x
