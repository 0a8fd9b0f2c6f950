"""Dataset plumbing: class balancing, stratified splits, the NMSTRIDE sample
file format, and the seeded synthetic generator used for desk-scale runs.

NMSTRIDE layout (all integers little-endian):
    8-byte magic "NMSTRIDE", version u16,
    M, N_h, N_p, L_s, C, sample_count as u32 each,
    then per sample: u32 label (0xFFFFFFFF = unlabeled) + L_b raw bytes.
The header's M, N_h, N_p and L_s are a ``ReprConfig``: ``sample_writer``
takes one, and ``read_samples`` returns one as ``StrideFile.repr_cfg``.
"""

from __future__ import annotations

import json
import os
import struct
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .fileio import atomic_write
from .traffic import ReprConfig

MAGIC = b"NMSTRIDE"
VERSION = 1
UNLABELED = 0xFFFFFFFF
HEADER_BYTES = 34  # magic, u16 version, six u32 fields
_COUNT_OFFSET = HEADER_BYTES - 4  # sample_count is the header's last field


@dataclass
class StrideSample:
    """One flow cut into n_strides rows of stride_len bytes."""

    strides: np.ndarray           # (n_strides, stride_len) uint8
    label: int | None = None


class ClassBalance:
    """The class-size limits, applied one class at a time: a class below
    ``lower`` samples is dropped (None); one above ``upper`` is subsampled to
    exactly ``upper`` without replacement, input order kept. One rng serves
    every class, so the classes must come in one fixed order."""

    def __init__(self, lower: int, upper: int, seed: int):
        if lower > upper:
            raise ConfigError(f"lower limit {lower} exceeds upper limit {upper}")
        self.lower, self.upper = lower, upper
        self._rng = np.random.default_rng(seed)

    def __call__(self, samples) -> list | None:
        if len(samples) < self.lower:
            return None
        if len(samples) > self.upper:
            keep = np.sort(self._rng.choice(len(samples), size=self.upper,
                                            replace=False))
            return [samples[i] for i in keep]
        return list(samples)


class StratifiedSplit:
    """A per-class shuffle into (train, val, test), one class at a time.

    Val/test sizes are floored; the remainder goes to train. A class with
    fewer than 3 samples is warned about and assigned wholly to train. One
    rng serves every class, so the classes must come in one fixed order.
    """

    def __init__(self, ratios, seed: int):
        ratios = tuple(float(r) for r in ratios)
        if len(ratios) != 3 or any(not r >= 0 for r in ratios):
            raise ConfigError(f"need three non-negative ratios, got {ratios}")
        if abs(sum(ratios) - 1.0) > 1e-9:
            raise ConfigError(f"ratios must sum to 1, got {sum(ratios)}")
        self.ratios = ratios
        self._rng = np.random.default_rng(seed)

    def __call__(self, label, samples) -> tuple[list, list, list]:
        n = len(samples)
        if n < 3:
            warnings.warn(f"class {label!r} has only {n} samples; "
                          f"assigning all of them to train")
            return list(samples), [], []
        order = self._rng.permutation(n)
        n_val = int(n * self.ratios[1])
        n_test = int(n * self.ratios[2])
        n_train = n - n_val - n_test
        return ([samples[i] for i in order[:n_train]],
                [samples[i] for i in order[n_train:n_train + n_val]],
                [samples[i] for i in order[n_train + n_val:]])


def split_dataset(samples, ratios, seed: int):
    """``StratifiedSplit`` over samples grouped by label, classes in
    first-seen order, each part the concatenation of its classes' parts."""
    split = StratifiedSplit(ratios, seed)
    by_class: dict = {}
    for s in samples:
        by_class.setdefault(s.label, []).append(s)
    train, val, test = [], [], []
    for label, group in by_class.items():
        for part, taken in zip((train, val, test), split(label, group)):
            part.extend(taken)
    return train, val, test


@dataclass
class StrideFile:
    """In-memory view of one NMSTRIDE file. Its header geometry is
    ``repr_cfg``: M, N_h, N_p and L_s come from the file, and the extraction
    toggles, which the file does not record, keep their defaults."""

    repr_cfg: ReprConfig
    num_classes: int
    data: np.ndarray       # (n, L_b) uint8, a field view of the file's records
    labels: np.ndarray     # (n,) int64, -1 where unlabeled

    @property
    def n_strides(self) -> int:
        return self.repr_cfg.n_strides

    @property
    def stride_len(self) -> int:
        return self.repr_cfg.stride_len

    @property
    def strides(self) -> np.ndarray:
        return self.data.reshape(len(self.data), self.n_strides, self.stride_len)


class SampleWriter:
    """Appends the records of one NMSTRIDE file; see ``sample_writer``."""

    def __init__(self, fh, cfg: ReprConfig, num_classes: int):
        self._fh = fh
        self._flow_bytes = cfg.flow_bytes
        self._num_classes = num_classes
        self.count = 0

    def append(self, label: int | None, row) -> None:
        """One record: ``row`` is the sample's L_b bytes, as any C-contiguous
        buffer. A bad size or label raises ``DataError``."""
        i = self.count
        size = memoryview(row).nbytes
        if size != self._flow_bytes:
            raise DataError(f"sample {i} holds {size} bytes, "
                            f"expected {self._flow_bytes}")
        label = UNLABELED if label is None else int(label)
        if label != UNLABELED and not 0 <= label < self._num_classes:
            raise DataError(
                f"sample {i} label {label} outside [0, {self._num_classes})")
        self._fh.write(struct.pack("<I", label))
        self._fh.write(row)
        self.count = i + 1


@contextmanager
def sample_writer(path, cfg: ReprConfig, num_classes: int):
    """Yield a ``SampleWriter`` that appends records to a temporary file
    beside ``path``. When the block exits cleanly the header's sample count
    is filled in and the file renamed over ``path``; if it raises, no new
    file is left and any previous file at ``path`` is kept as it was."""
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", VERSION))
        fh.write(struct.pack(
            "<6I", cfg.packets_per_flow, cfg.header_bytes, cfg.payload_bytes,
            cfg.stride_len, num_classes, 0))
        writer = SampleWriter(fh, cfg, num_classes)
        yield writer
        fh.seek(_COUNT_OFFSET)
        fh.write(struct.pack("<I", writer.count))


def write_samples(path, samples, cfg: ReprConfig, num_classes: int) -> None:
    """Written atomically: a bad sample raises ``DataError`` and leaves any
    previous file at ``path`` as it was."""
    with sample_writer(path, cfg, num_classes) as writer:
        for s in samples:
            writer.append(s.label, np.ascontiguousarray(s.strides, dtype=np.uint8))


def read_samples(path) -> StrideFile:
    """The header, then the records read once into one array that ``data``
    views, so loading holds the file's bytes once."""
    with open(path, "rb") as fh:
        head = fh.read(HEADER_BYTES)
        if head[:8] != MAGIC:
            raise ParseError(f"{path}: bad sample-file magic {head[:8]!r}")
        if len(head) < HEADER_BYTES:
            raise ParseError(f"{path}: file is {len(head)} bytes, shorter than "
                             f"the {HEADER_BYTES}-byte header")
        (version,) = struct.unpack_from("<H", head, 8)
        if version != VERSION:
            raise ParseError(f"{path}: unsupported sample-file version {version}")
        m, n_h, n_p, l_s, c, count = struct.unpack_from("<6I", head, 10)
        try:  # the geometry every written file has
            repr_cfg = ReprConfig(packets_per_flow=m, header_bytes=n_h,
                                  payload_bytes=n_p, stride_len=l_s)
        except ConfigError as exc:
            raise ParseError(f"{path}: {exc}") from None
        flow_bytes = repr_cfg.flow_bytes
        size = os.fstat(fh.fileno()).st_size
        expected = HEADER_BYTES + count * (4 + flow_bytes)
        if size != expected:
            raise ParseError(
                f"{path}: file is {size} bytes, header implies {expected}")
        records = np.fromfile(
            fh, dtype=[("label", "<u4"), ("data", np.uint8, (flow_bytes,))],
            count=count)
    labels = records["label"].astype(np.int64)
    labels[records["label"] == UNLABELED] = -1
    return StrideFile(repr_cfg=repr_cfg, num_classes=c,
                      data=records["data"], labels=labels)


def write_manifest(path, class_names) -> None:
    """JSON object mapping class index -> class name."""
    mapping = {str(i): name for i, name in enumerate(class_names)}
    with atomic_write(path, "w") as fh:
        fh.write(json.dumps(mapping, indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> dict[int, str]:
    raw = json.loads(Path(path).read_text())
    return {int(k): v for k, v in raw.items()}


# ---------------------------------------------------------------------------
# synthetic flows for desk-scale training runs

_TEMPLATE_SEED = 0x5EED
_SIG_BYTES_PER_PACKET = 24


def synthetic_samples(n_classes: int, per_class: int, cfg: ReprConfig,
                      seed: int) -> list[StrideSample]:
    """Seeded synthetic flows: every packet's header region carries a shared
    deterministic template with class-specific signature bytes written at
    fixed offsets; payload regions are uniform random per sample.
    """
    if n_classes < 1 or per_class < 1:
        raise ConfigError("need at least one class and one sample per class")
    rng = np.random.default_rng(seed)
    template = np.random.default_rng(_TEMPLATE_SEED).integers(
        0, 256, size=(cfg.packets_per_flow, cfg.header_bytes), dtype=np.uint8)
    n_sig = min(_SIG_BYTES_PER_PACKET, cfg.header_bytes)
    sig_pos = np.linspace(0, max(cfg.header_bytes - 1, 0),
                          num=n_sig).astype(np.int64)
    samples = []
    for label in range(n_classes):
        flow = np.zeros((cfg.packets_per_flow, cfg.packet_bytes), dtype=np.uint8)
        flow[:, :cfg.header_bytes] = template
        for m in range(cfg.packets_per_flow):
            flow[m, sig_pos] = (17 * label + 11 * np.arange(n_sig) + 5 * m) % 256
        for _ in range(per_class):
            sample = flow.copy()
            sample[:, cfg.header_bytes:] = rng.integers(
                0, 256, size=(cfg.packets_per_flow, cfg.payload_bytes),
                dtype=np.uint8)
            samples.append(StrideSample(
                sample.reshape(cfg.n_strides, cfg.stride_len), label))
    return samples


def samples_to_arrays(samples) -> tuple[np.ndarray, np.ndarray]:
    """(n, n_strides, stride_len) uint8 strides, the layout the model and
    the training loops take, plus int64 labels (-1 where unlabeled)."""
    if not samples:
        raise DataError("no samples to pack into arrays")
    strides = np.stack([s.strides for s in samples])
    labels = np.array([-1 if s.label is None else s.label for s in samples],
                      dtype=np.int64)
    return strides, labels
