"""Stride embedding, masked-reconstruction pre-training, and the
classification head on top of the unidirectional SSM encoder.

Both forwards take a flow batch as raw bytes, (B, n_strides, stride_len)
integers, and tokenize it as the config says: 1-D strides as stored or, with
``patch_split``, the 2-D patches of ``patch_tokens`` (the paper's tokenizer
ablation). Each maps the tokens to [0, 1] once, in the parameters' dtype, and
embeds them itself. The class token sits at the *end* of the sequence: the
encoder is causal, so only the trailing position sees every stride, and the
classifier reads that row alone. During pre-training the encoder sees only
the visible strides (in original temporal order) plus the class token; the
decoder fills masked slots with a shared trainable token, restores the
original order, and reconstructs the masked strides' normalized bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from . import ssm
from .autodiff import Tensor
from .errors import (ConfigError, ContractError, NumericFaultError, ShapeError,
                     check_min)


@dataclass(frozen=True)
class ModelConfig:
    stride_len: int = 4
    d_enc: int = 256
    e_enc: int = 512
    depth_enc: int = 4
    d_dec: int = 128
    e_dec: int = 256
    depth_dec: int = 2
    state_dim: int = 16
    seq_len: int = 401            # strides plus the trailing class token
    mask_ratio: float = 0.9
    num_classes: int = 2
    use_pos_embed: bool = True
    dt_rank: int = 16
    conv_kernel: int = 4
    patch_split: bool = False     # 2-D patch tokens instead of 1-D strides

    def __post_init__(self):
        for key in ("stride_len", "d_enc", "e_enc", "d_dec", "e_dec", "state_dim",
                    "dt_rank", "conv_kernel"):
            check_min(key, getattr(self, key))
        for key in ("depth_enc", "depth_dec"):
            check_min(key, getattr(self, key), 0)
        check_min("seq_len", self.seq_len, 2)
        if not 0.0 < self.mask_ratio < 1.0:
            raise ConfigError(f"mask_ratio must lie in (0, 1), got {self.mask_ratio}")
        if self.patch_split:  # the geometry that patch_tokens cuts
            total = self.n_strides * self.stride_len
            side = math.isqrt(total)
            if side * side != total:
                raise ConfigError(
                    f"patch splitting needs a square byte count, got {total}")
            if self.stride_len % 2:
                raise ConfigError("patch splitting needs an even stride_len")
            cols = self.stride_len // 2
            if side % 2 or side % cols:
                raise ConfigError(
                    f"matrix side {side} is not divisible by the 2x{cols} patch shape")

    @property
    def n_strides(self) -> int:
        return self.seq_len - 1

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class MaskPlan:
    """One sample's random masking: the sorted visible stride indices and
    their sorted complement, ceil((1 - ratio) * seq_len) positions visible
    counting the class token (index n_strides), which is in neither set."""

    visible: np.ndarray
    masked: np.ndarray


def make_mask(seq_len: int, ratio: float, rng: np.random.Generator) -> MaskPlan:
    n_strides = seq_len - 1
    n_visible = math.ceil((1.0 - ratio) * seq_len) - 1
    perm = rng.permutation(n_strides)
    visible = np.sort(perm[:n_visible])
    masked = np.sort(perm[n_visible:])
    return MaskPlan(visible=visible, masked=masked)


@dataclass
class ModelParams:
    """All learnable tensors. Decoder-side fields are None for a fine-tuning
    model, head fields are None for a pre-training model."""

    cfg: ModelConfig
    embed_w: Tensor
    cls_token: Tensor
    pos_enc: Tensor
    enc_blocks: list[ssm.MambaBlockParams]
    enc_norm: Tensor
    enc2dec_w: Tensor | None = None
    enc2dec_b: Tensor | None = None
    dec_pos: Tensor | None = None
    mask_token: Tensor | None = None
    dec_blocks: list[ssm.MambaBlockParams] = field(default_factory=list)
    dec_norm: Tensor | None = None
    recon_w: Tensor | None = None
    recon_b: Tensor | None = None
    head_w1: Tensor | None = None
    head_b1: Tensor | None = None
    head_w2: Tensor | None = None
    head_b2: Tensor | None = None

    def named(self):
        yield "embed.w", self.embed_w
        yield "embed.cls", self.cls_token
        yield "embed.pos", self.pos_enc
        for i, blk in enumerate(self.enc_blocks):
            yield from blk.named(f"enc.{i}.")
        yield "enc.norm_gain", self.enc_norm
        simple = [
            ("enc2dec.w", self.enc2dec_w), ("enc2dec.b", self.enc2dec_b),
            ("dec.pos", self.dec_pos), ("dec.mask_token", self.mask_token),
        ]
        for name, t in simple:
            if t is not None:
                yield name, t
        for i, blk in enumerate(self.dec_blocks):
            yield from blk.named(f"dec.{i}.")
        tail = [
            ("dec.norm_gain", self.dec_norm),
            ("recon.w", self.recon_w), ("recon.b", self.recon_b),
            ("head.w1", self.head_w1), ("head.b1", self.head_b1),
            ("head.w2", self.head_w2), ("head.b2", self.head_b2),
        ]
        for name, t in tail:
            if t is not None:
                yield name, t

    def tensors(self) -> dict[str, Tensor]:
        return dict(self.named())

    def num_params(self) -> int:
        total = 0
        for _, t in self.named():
            total += t.size
        return total


def _enc_dims(cfg: ModelConfig) -> ssm.SSMDims:
    return ssm.SSMDims(d=cfg.d_enc, e=cfg.e_enc, n=cfg.state_dim,
                       r=cfg.dt_rank, k=cfg.conv_kernel)


def _dec_dims(cfg: ModelConfig) -> ssm.SSMDims:
    return ssm.SSMDims(d=cfg.d_dec, e=cfg.e_dec, n=cfg.state_dim,
                       r=cfg.dt_rank, k=cfg.conv_kernel)


def init_params(cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32,
                with_decoder: bool = True, with_head: bool = False) -> ModelParams:
    """Positional tables and the class/mask tokens start from a 0.02-std
    normal; projections use fan-in uniform init."""

    def normal(*shape):
        return ad.parameter((rng.standard_normal(shape) * 0.02).astype(dtype))

    L, D = cfg.seq_len, cfg.d_enc
    params = ModelParams(
        cfg=cfg,
        embed_w=ad.parameter(
            (rng.uniform(-1, 1, size=(cfg.stride_len, D))
             / np.sqrt(cfg.stride_len)).astype(dtype)),
        cls_token=normal(D),
        pos_enc=normal(L, D),
        enc_blocks=[
            ssm.init_mamba_block(_enc_dims(cfg), rng, dtype, index=i)
            for i in range(cfg.depth_enc)
        ],
        enc_norm=ad.parameter(np.ones(D, dtype=dtype)),
    )
    if with_decoder:
        Dd = cfg.d_dec
        params.enc2dec_w = ad.parameter(
            (rng.uniform(-1, 1, size=(D, Dd)) / np.sqrt(D)).astype(dtype))
        params.enc2dec_b = ad.parameter(np.zeros(Dd, dtype=dtype))
        params.dec_pos = normal(L, Dd)
        params.mask_token = normal(Dd)
        params.dec_blocks = [
            ssm.init_mamba_block(_dec_dims(cfg), rng, dtype, index=i)
            for i in range(cfg.depth_dec)
        ]
        params.dec_norm = ad.parameter(np.ones(Dd, dtype=dtype))
        # near-zero head weights with the bias at the byte-range midpoint:
        # an untrained model then predicts the marginal mean and scores near
        # the marginal variance on uniform bytes
        params.recon_w = ad.parameter(
            (rng.standard_normal((Dd, cfg.stride_len)) * 0.02 / np.sqrt(Dd))
            .astype(dtype))
        params.recon_b = ad.parameter(np.full(cfg.stride_len, 0.5, dtype=dtype))
    if with_head:
        if cfg.num_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {cfg.num_classes}")
        C = cfg.num_classes
        params.head_w1 = ad.parameter(
            (rng.uniform(-1, 1, size=(D, D)) / np.sqrt(D)).astype(dtype))
        params.head_b1 = ad.parameter(np.zeros(D, dtype=dtype))
        params.head_w2 = ad.parameter(
            (rng.uniform(-1, 1, size=(D, C)) / np.sqrt(D)).astype(dtype))
        params.head_b2 = ad.parameter(np.zeros(C, dtype=dtype))
    return params


def normalize_strides(strides: np.ndarray, dtype=np.float32) -> np.ndarray:
    """Map raw bytes to [0, 1] in ``dtype``. Only integer bytes are taken: a
    float array may or may not be normalized already, so it is refused."""
    arr = np.asarray(strides)
    if arr.dtype.kind not in "ui":
        raise ContractError(f"strides must be integer bytes, got {arr.dtype}")
    return arr.astype(dtype) / 255.0


def _tokens(strides: np.ndarray, params: ModelParams) -> np.ndarray:
    """The normalized tokens of a (B, n_strides, stride_len) byte batch: its
    strides, or with ``patch_split`` the same bytes cut into 2-D patches. A
    batch of another shape is left for ``embed_batch`` to refuse."""
    cfg = params.cfg
    strides = np.asarray(strides)
    if cfg.patch_split and strides.shape[1:] == (cfg.n_strides, cfg.stride_len):
        strides = patch_tokens(strides.reshape(len(strides), -1), cfg.stride_len)
    return normalize_strides(strides, params.embed_w.dtype)


def embed_batch(strides: np.ndarray, params: ModelParams,
                rows: slice | None = None) -> Tensor:
    """(B, n_strides, stride_len) normalized floats -> (B, L, d_enc): each
    stride's embedding, then the class token, plus the positional table.

    ``rows``, a slice of the L positions, forms those rows alone, as a
    streamed pass reads them (``finetune_forward``); each row is computed by
    the same ops as in the whole."""
    cfg = params.cfg
    if strides.ndim != 3 or strides.shape[1:] != (cfg.n_strides, cfg.stride_len):
        raise ShapeError(
            f"expected a (batch, {cfg.n_strides}, {cfg.stride_len}) batch of "
            f"strides, got shape {strides.shape}")
    B, n, _ = strides.shape
    r0, r1, _ = (rows or slice(None)).indices(cfg.seq_len)
    parts = []
    if r0 < n:
        parts.append(ad.matmul(ad.Tensor(strides[:, r0:r1]), params.embed_w))
    if r1 > n:
        parts.append(ad.broadcast_to(ad.reshape(params.cls_token, (1, 1, cfg.d_enc)),
                                     (B, 1, cfg.d_enc)))
    x0 = ad.concat(parts, axis=1) if len(parts) > 1 else parts[0]
    if cfg.use_pos_embed:
        whole = (r0, r1) == (0, cfg.seq_len)
        x0 = ad.add(x0, params.pos_enc if whole else params.pos_enc[r0:r1])
    return x0


def _restore_indices(plans: list[MaskPlan], seq_len: int) -> np.ndarray:
    """Row j of the encoder+mask concat holds original position order[j];
    the decoder needs the inverse map."""
    out = np.empty((len(plans), seq_len), dtype=np.int64)
    for b, plan in enumerate(plans):
        order = np.concatenate([plan.visible, [seq_len - 1], plan.masked])
        out[b, order] = np.arange(seq_len)
    return out


def pretrain_forward(strides: np.ndarray, plans: list[MaskPlan],
                     params: ModelParams) -> tuple[Tensor, Tensor]:
    """Masked-reconstruction pass over a (B, n_strides, stride_len) byte
    batch, one of ``plans`` per flow. Returns the per-masked-position
    predictions (B, n_masked, stride_len) and the scalar MSE against those
    tokens' normalized bytes (exactly 0 when nothing is masked).
    """
    cfg = params.cfg
    norm = _tokens(strides, params)
    x0 = embed_batch(norm, params)
    B, L, _ = x0.shape
    vis_idx = np.stack([np.concatenate([p.visible, [L - 1]]) for p in plans])
    enc_out = ssm.stack_forward(ad.gather_rows(x0, vis_idx), params.enc_blocks,
                                params.enc_norm)
    enc_out = ad.add(ad.matmul(enc_out, params.enc2dec_w), params.enc2dec_b)

    n_masked = L - 1 - plans[0].visible.shape[0]
    mask_rows = ad.broadcast_to(
        ad.reshape(params.mask_token, (1, 1, cfg.d_dec)), (B, n_masked, cfg.d_dec))
    stacked = ad.concat([enc_out, mask_rows], axis=1)
    dec_in = ad.add(ad.gather_rows(stacked, _restore_indices(plans, L)),
                    params.dec_pos)
    dec_out = ssm.stack_forward(dec_in, params.dec_blocks, params.dec_norm)

    masked_idx = np.stack([p.masked for p in plans])
    dec_masked = ad.gather_rows(dec_out, masked_idx)
    pred = ad.add(ad.matmul(dec_masked, params.recon_w), params.recon_b)
    loss = ad.mse(pred, np.take_along_axis(norm, masked_idx[..., None], axis=1))
    if not np.isfinite(loss.data):
        raise NumericFaultError("non-finite reconstruction loss")
    return pred, loss


def finetune_forward(strides: np.ndarray, params: ModelParams) -> Tensor:
    """Unnormalized logits (B, C) of a (B, n_strides, stride_len) byte batch.

    The encoder reads the embedding as ``ssm.Rows`` that form each row
    chunk through ``embed_batch``: one chunk of all L rows with grad, row
    chunks streamed without it, so no (B, L, d_enc) array exists then. It
    computes only the normalized trailing class-token row past its top
    block's scan state (``ssm.stack_forward`` with tail 1), and that row
    alone feeds the MLP head."""
    cfg = params.cfg
    norm = _tokens(strides, params)
    x0 = ssm.Rows((len(norm), cfg.seq_len, cfg.d_enc),
                  lambda r0, r1: embed_batch(norm, params, slice(r0, r1)))
    cls = ssm.stack_forward(x0, params.enc_blocks, params.enc_norm, tail=1)[:, -1, :]
    hidden = ad.silu(ad.add(ad.matmul(cls, params.head_w1), params.head_b1))
    return ad.add(ad.matmul(hidden, params.head_w2), params.head_b2)


def patch_tokens(flat: np.ndarray, stride_len: int) -> np.ndarray:
    """Ablation tokenizer: reshape each flow's bytes to a square matrix and
    emit 2 x (stride_len/2) patches, flattened row-major, row-major over the
    patch grid. Token count and width match 1-D stride cutting, but each
    token now groups vertically adjacent (semantically unrelated) bytes.
    ``ModelConfig`` refuses a geometry that does not cut so.
    """
    flat = np.asarray(flat)
    n, total = flat.shape
    side = math.isqrt(total)
    cols = stride_len // 2
    grid = flat.reshape(n, side // 2, 2, side // cols, cols)
    return np.ascontiguousarray(
        grid.transpose(0, 1, 3, 2, 4).reshape(n, total // stride_len, stride_len))


def count_parameters(cfg: ModelConfig) -> tuple[int, int]:
    """Exact learnable-scalar counts for the pre-training model
    (encoder + decoder + reconstruction head) and the fine-tuning model
    (encoder + classification head)."""
    rng = np.random.default_rng(0)
    pre = init_params(cfg, rng, with_decoder=True, with_head=False)
    fin = init_params(cfg, rng, with_decoder=False, with_head=True)
    return pre.num_params(), fin.num_params()
