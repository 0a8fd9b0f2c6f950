"""Checkpoint container and model/optimizer state round trips.

Layout: 8-byte magic "NMCKPT01", u32 little-endian length of a JSON metadata
block (config, step, named tensor index with shapes and byte offsets), then
raw little-endian float32 data per tensor in index order. Loading verifies
the magic, every indexed name/shape, and the total byte length.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointMismatchError, ParseError
from .fileio import atomic_write
from .model import ModelConfig, ModelParams, init_params

MAGIC = b"NMCKPT01"


def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict) -> None:
    """Written atomically: a crash mid-write leaves any previous checkpoint
    at ``path`` intact."""
    index = []
    blobs = []
    offset = 0
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype="<f4")
        index.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(arr.tobytes())
        offset += len(blobs[-1])
    header = json.dumps({"meta": meta, "tensors": index}).encode()
    with atomic_write(path) as fh:
        fh.write(MAGIC + struct.pack("<I", len(header)) + header)
        fh.writelines(blobs)


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    blob = Path(path).read_bytes()
    if blob[:8] != MAGIC:
        raise ParseError(f"{path}: bad checkpoint magic {blob[:8]!r}")
    (hlen,) = struct.unpack_from("<I", blob, 8)
    if 12 + hlen > len(blob):
        raise ParseError(f"{path}: truncated checkpoint metadata")
    header = json.loads(blob[12:12 + hlen].decode())
    data_start = 12 + hlen
    tensors: dict[str, np.ndarray] = {}
    expected_end = data_start
    for entry in header["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = data_start + entry["offset"]
        end = start + 4 * count
        if end > len(blob):
            raise CheckpointMismatchError(
                f"{path}: tensor {entry['name']} runs past end of file")
        tensors[entry["name"]] = np.frombuffer(
            blob, dtype="<f4", count=count, offset=start).reshape(shape)
        expected_end = max(expected_end, end)
    if expected_end != len(blob):
        raise ParseError(
            f"{path}: {len(blob) - expected_end} trailing bytes after tensor data")
    return header["meta"], tensors


def model_tensors(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: t.data for name, t in params.named()}


def save_model(path, params: ModelParams, step: int = 0,
               extra_meta: dict | None = None,
               opt_tensors: dict[str, np.ndarray] | None = None) -> None:
    meta = {"config": params.cfg.to_dict(), "step": step,
            "kind": _model_kind(params)}
    if extra_meta:
        meta.update(extra_meta)
    tensors = model_tensors(params)
    if opt_tensors:
        tensors.update(opt_tensors)
    save_checkpoint(path, tensors, meta)


def _model_kind(params: ModelParams) -> str:
    has_dec = params.recon_w is not None
    has_head = params.head_w1 is not None
    if has_dec and not has_head:
        return "pretrain"
    if has_head and not has_dec:
        return "finetune"
    return "full"


def load_model(path) -> tuple[ModelParams, dict, dict[str, np.ndarray]]:
    """Rebuild a model exactly as saved; every expected tensor must be
    present with the right shape. Returns (params, meta, non-model tensors
    such as optimizer state)."""
    meta, tensors = load_checkpoint(path)
    cfg = ModelConfig.from_dict(meta["config"])
    kind = meta.get("kind", "pretrain")
    params = init_params(
        cfg, np.random.default_rng(0),
        with_decoder=kind in ("pretrain", "full"),
        with_head=kind in ("finetune", "full"),
    )
    leftovers = dict(tensors)
    for name, t in params.named():
        if name not in leftovers:
            raise CheckpointMismatchError(f"{path}: missing tensor {name}")
        arr = leftovers.pop(name)
        if arr.shape != t.shape:
            raise CheckpointMismatchError(
                f"{path}: tensor {name} has shape {arr.shape}, expected {t.shape}")
        t.data = arr.astype(t.dtype, copy=True)
    return params, meta, leftovers


def load_encoder_weights(params: ModelParams, path) -> None:
    """Initialize the embedding and encoder stack of ``params`` from a
    pre-training checkpoint, leaving decoder/head tensors untouched."""
    meta, tensors = load_checkpoint(path)
    for name, t in params.named():
        if not (name.startswith("enc.") or name.startswith("embed.")):
            continue
        if name not in tensors:
            raise CheckpointMismatchError(f"{path}: missing tensor {name}")
        arr = tensors[name]
        if arr.shape != t.shape:
            raise CheckpointMismatchError(
                f"{path}: tensor {name} has shape {arr.shape}, expected {t.shape}")
        t.data = arr.astype(t.dtype, copy=True)
