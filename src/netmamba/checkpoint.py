"""Checkpoint container and model/optimizer state round trips.

Layout: 8-byte magic "NMCKPT01", u32 little-endian length of a JSON metadata
block (config, step, named tensor index with shapes and byte offsets), then
raw little-endian float32 data per tensor in index order. Loading verifies
the magic, every indexed name/shape, and the total byte length.

A model checkpoint holds the whole model, its config (tokenizer included)
and every tensor, plus optimizer moments in a ``last.nmckpt``. This module
owns every check that a checkpoint fits the run that loads it: its kind
(``load_model``, the one reader), the data's geometry and the run's config.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import fields

import numpy as np

from .errors import (
    CheckpointMismatchError, ConfigError, ContractError, ParseError,
)
from .fileio import atomic_write
from .model import ModelConfig, ModelParams, init_params

MAGIC = b"NMCKPT01"

# deleted ModelConfig fields, each with the one value the model still runs
RETIRED_CONFIG = {"norm": "rms", "recon_target": "bytes", "use_state_skip": False}


def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict) -> None:
    """Written atomically: a crash mid-write leaves any previous checkpoint
    at ``path`` intact. Each tensor's buffer is written as it is, so a
    contiguous little-endian float32 tensor is not copied."""
    index = []
    arrays = []
    offset = 0
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype="<f4")
        index.append({"name": name, "shape": list(arr.shape), "offset": offset})
        arrays.append(arr)
        offset += arr.nbytes
    header = json.dumps({"meta": meta, "tensors": index}).encode()
    with atomic_write(path) as fh:
        fh.write(MAGIC + struct.pack("<I", len(header)) + header)
        fh.writelines(arrays)


def _read_index(fh, path) -> tuple[dict, list[tuple[str, tuple, int]]]:
    """The metadata of the open checkpoint ``fh`` and its tensor index as
    (name, shape, file offset), once the magic, the metadata and the extent
    of every tensor are checked."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(12)
    if head[:8] != MAGIC:
        raise ParseError(f"{path}: bad checkpoint magic {head[:8]!r}")
    hlen = struct.unpack("<I", head[8:])[0] if len(head) == 12 else None
    if hlen is None or 12 + hlen > size:
        raise ParseError(f"{path}: truncated checkpoint metadata")
    try:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        header = json.loads(fh.read(hlen).decode())
        meta = dict(header["meta"])
        entries = [(e["name"], tuple(e["shape"]), e["offset"])
                   for e in header["tensors"]]
    except (ValueError, TypeError, KeyError) as exc:
        raise ParseError(f"{path}: malformed checkpoint metadata: {exc!r}") from None
    index, expected_end = [], 12 + hlen
    for name, shape, offset in entries:
        start = 12 + hlen + offset
        end = start + 4 * (int(np.prod(shape)) if shape else 1)
        if end > size:
            raise CheckpointMismatchError(
                f"{path}: tensor {name} runs past end of file")
        index.append((name, shape, start))
        expected_end = max(expected_end, end)
    if expected_end != size:
        raise ParseError(
            f"{path}: {size - expected_end} trailing bytes after tensor data")
    return meta, index


def _read_into(fh, start: int, out: np.ndarray) -> np.ndarray:
    """The tensor at file offset ``start`` read into ``out``, a contiguous
    little-endian float32 array of its shape."""
    fh.seek(start)
    fh.readinto(out)
    return out


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        meta, index = _read_index(fh, path)
        return meta, {name: _read_into(fh, start, np.empty(shape, dtype="<f4"))
                      for name, shape, start in index}


def model_tensors(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: t.data for name, t in params.named()}


def save_model(path, params: ModelParams, step: int = 0,
               opt_tensors: dict[str, np.ndarray] | None = None) -> None:
    meta = {"config": params.cfg.to_dict(), "step": step,
            "kind": _model_kind(params)}
    tensors = model_tensors(params)
    if opt_tensors:
        tensors.update(opt_tensors)
    save_checkpoint(path, tensors, meta)


def _model_kind(params: ModelParams) -> str:
    """"pretrain" for a model with a decoder, "finetune" for one with a
    classification head; a model with both or neither is refused."""
    has_dec = params.recon_w is not None
    if has_dec == (params.head_w1 is not None):
        raise ContractError(
            "a checkpoint holds a pre-training model (a decoder) or a "
            f"fine-tuning one (a head), not one with {'both' if has_dec else 'neither'}")
    return "pretrain" if has_dec else "finetune"


def load_model(path, kind: str | None = None
               ) -> tuple[ModelParams, dict, dict[str, np.ndarray]]:
    """Rebuild a model exactly as saved; every expected tensor must be
    present with the right shape, and every other tensor must be an
    optimizer moment of one of them, of its shape; a ``kind`` refuses a
    checkpoint of the other kind. Returns (params, meta, the optimizer
    moments by their checkpoint names). Once every check has passed, each
    parameter's bytes are read straight into its array and each moment
    into an array of its own, so a load never holds the file's bytes."""
    with open(path, "rb") as fh:
        meta, index = _read_index(fh, path)
        cfg = _model_config(path, meta.get("config"))
        saved = meta.get("kind", "pretrain")
        if saved not in ("pretrain", "finetune"):
            raise CheckpointMismatchError(f"{path}: unknown model kind {saved!r}")
        if kind not in (None, saved):
            part = "a decoder" if kind == "pretrain" else "a classification head"
            raise CheckpointMismatchError(f"{path} is a {saved} checkpoint "
                                          f"without {part}; expected a {kind} one")
        try:    # a head needs two classes, which ModelConfig does not check
            params = init_params(cfg, np.random.default_rng(0), dtype=np.dtype("<f4"),
                                 with_decoder=saved == "pretrain",
                                 with_head=saved == "finetune")
        except ConfigError as exc:
            raise CheckpointMismatchError(f"{path}: {exc}") from None
        ours = params.tensors()
        for name, shape, _ in index:
            owner = ours.get(name[6:] if name.startswith(("opt.m.", "opt.v."))
                             else name)
            if owner is None:
                raise CheckpointMismatchError(
                    f"{path}: tensor {name} has no place in this model")
            if shape != owner.shape:
                raise CheckpointMismatchError(
                    f"{path}: tensor {name} has shape {shape}, expected {owner.shape}")
        names = {name for name, _, _ in index}
        for name in ours:
            if name not in names:
                raise CheckpointMismatchError(f"{path}: missing tensor {name}")
        # each parameter's bytes go straight into its array; each optimizer
        # moment gets an array of its own
        moments = {}
        for name, shape, start in index:
            if name in ours:
                _read_into(fh, start, ours[name].data)
            else:
                moments[name] = _read_into(fh, start, np.empty(shape, dtype="<f4"))
    return params, meta, moments


def check_geometry(path, cfg: ModelConfig, strides: np.ndarray, source) -> None:
    """Refuse a (n, n_strides, stride_len) byte array from ``source`` whose
    stride count or width is not that of the model saved at ``path``."""
    if strides.shape[1:] != (cfg.n_strides, cfg.stride_len):
        raise CheckpointMismatchError(
            f"{path} expects {cfg.n_strides} strides of {cfg.stride_len} "
            f"bytes, but {source} has {strides.shape[1]} of {strides.shape[2]}")


def check_config(path, saved: ModelConfig, cfg: ModelConfig, keys) -> None:
    """Refuse a run ``cfg`` that differs from the checkpoint's on a key."""
    for key in keys:
        if getattr(cfg, key) != getattr(saved, key):
            raise CheckpointMismatchError(
                f"{path} was trained with {key} = {getattr(saved, key)!r}, "
                f"not {getattr(cfg, key)!r}")


def _model_config(path, saved) -> ModelConfig:
    """The saved ModelConfig. Retired keys at the values the model still
    implements, and of those values' types (0 is not False), are dropped;
    any other key it does not have is refused, and so is a value of the
    wrong type: an int field takes an int (not a bool), a float field an int
    or a float, a bool field a bool. A value ModelConfig refuses, such as a
    width below 1, is a mismatch naming the file."""
    if not isinstance(saved, dict):
        raise CheckpointMismatchError(f"{path}: metadata holds no model config")
    kinds = {f.name: type(f.default) for f in fields(ModelConfig)}
    for key, value in saved.items():
        if key not in kinds:
            if ((key, value) not in RETIRED_CONFIG.items()
                    or type(value) is not type(RETIRED_CONFIG[key])):
                raise CheckpointMismatchError(
                    f"{path}: model config key {key!r} = {value!r} is not supported")
        elif not _has_kind(value, kinds[key]):
            raise CheckpointMismatchError(
                f"{path}: model config key {key!r} = {value!r} is not of type "
                f"{kinds[key].__name__}")
    try:
        return ModelConfig(**{k: v for k, v in saved.items() if k in kinds})
    except ConfigError as exc:
        raise CheckpointMismatchError(f"{path}: {exc}") from None


def _has_kind(value, kind: type) -> bool:
    if kind is bool:
        return isinstance(value, bool)
    accepted = (int, float) if kind is float else (kind,)
    return isinstance(value, accepted) and not isinstance(value, bool)


# ModelConfig keys that a pre-training checkpoint's encoder does not depend
# on, so fine-tuning may set them otherwise
NOT_ENCODER_KEYS = ("mask_ratio", "d_dec", "e_dec", "depth_dec", "num_classes")


def load_encoder_weights(params: ModelParams, path) -> None:
    """Initialize the embedding and encoder stack of ``params`` from the
    model checkpoint at ``path``, as ``load_model`` reads it, leaving
    decoder/head tensors untouched. The checkpoint's config must agree with
    ``params.cfg`` on every key but NOT_ENCODER_KEYS: that fixes the name
    and shape of every encoder tensor, and refuses the keys that change no
    shape (``use_pos_embed``, ``patch_split``). Nothing is loaded unless
    every check passes."""
    saved, _, _ = load_model(path)
    check_config(path, saved.cfg, params.cfg, [
        f.name for f in fields(ModelConfig) if f.name not in NOT_ENCODER_KEYS])
    ours = params.tensors()
    for name, t in saved.named():
        if name.startswith(("enc.", "embed.")):
            ours[name].data = t.data.astype(ours[name].dtype)
