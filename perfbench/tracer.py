"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: module attributes of the
program are swapped for timing wrappers for the length of one traced call
and restored afterwards, so ``src/`` is never edited and untraced calls run
the original functions. A span is ``[name, start, end, parent, unit]``; all
spans stay in memory and are written out when the run ends.

Attribution. Every span name is a per-layer metric prefix (``ssm.scan.fwd``,
``model.embed``, ``optim.adamw`` ...), and a layer's time is the self time
of its spans: duration minus the part covered by child spans. Spans come in
three modes:

* ``container`` - a call whose engine ops attribute themselves (a Mamba
  block, the pre-train/fine-tune forward passes, the training call).
* ``stage`` - every op inside belongs to the span's stage (discretize, the
  scan, the embedding, an op already attributed).
* ``sealed`` - nothing inside is traced (optimizer, checkpoint writes,
  evaluation, parsing).

Inside a container an engine op (``ad.matmul``, ``ad.silu`` ...) is charged
to: a fixed stage for a few ops; else the stage of a parameter operand (a
matmul by its weight); else, inside a block, the latest stage among operands
produced earlier in the same block; else the container's own stage.
Backward time per stage comes from wrapping the ``vjp`` handed to
``ad.custom_op`` with a span named after the stage the op was created in;
the rest of ``ad.backward`` is ``autodiff.unattributed``.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import Counter

CONTAINER, STAGE, SEALED = "container", "stage", "sealed"

SSM_STAGES = ("norm", "in_proj", "conv", "bcdt", "discretize", "scan",
              "gate", "out_proj")
_SSM_ORDER = {f"ssm.{s}": i for i, s in enumerate(SSM_STAGES)}

# parameters of one block -> (stage, stage given to the op's output)
_BLOCK_FIELDS = {
    "norm_gain": "ssm.norm",
    "w_in_x": "ssm.in_proj",
    "w_in_z": ("ssm.in_proj", "ssm.gate"),   # z exists only to gate y
    "conv_w": "ssm.conv", "conv_b": "ssm.conv",
    "w_b": "ssm.bcdt", "w_c": "ssm.bcdt", "w_dt_down": "ssm.bcdt",
    "w_dt_up": "ssm.bcdt", "dt_bias": "ssm.bcdt",
    "a_log": "ssm.discretize",
    "state_skip": "ssm.scan",
    "w_out": "ssm.out_proj",
}
_MODEL_FIELDS = {
    "embed.w": "model.embed", "embed.cls": "model.embed",
    "embed.pos": "model.embed",
    "enc.norm_gain": "ssm.norm", "dec.norm_gain": "ssm.norm",
    "enc2dec.w": "model.recon", "enc2dec.b": "model.recon",
    "recon.w": "model.recon", "recon.b": "model.recon",
    "dec.pos": "model.mask_gather", "dec.mask_token": "model.mask_gather",
    "head.w1": "model.head", "head.b1": "model.head",
    "head.w2": "model.head", "head.b2": "model.head",
}
_FIXED_OP_STAGE = {
    "gather_rows": "model.mask_gather",
    "mse": "model.recon",
    "softmax_cross_entropy": "model.head",
}
ENGINE_OPS = ("add", "mul", "neg", "exp", "silu", "softplus", "matmul",
              "index", "reshape", "permute", "broadcast_to", "concat",
              "gather_rows", "sum", "mean", "rmsnorm", "layernorm",
              "causal_conv1d", "softmax_cross_entropy", "mse")
# ssm functions called from a block, matched by name so a renamed or fused
# kernel is still charged to its stage
_SSM_FUNCTION_STAGE = (("scan", "ssm.scan"), ("discretize", "ssm.discretize"))


def forward_name(stage: str) -> str:
    return f"{stage}.fwd" if stage.startswith("ssm.") else stage


def backward_name(stage: str | None) -> str:
    if stage is None or stage == "ssm.block":
        return "autodiff.unattributed"
    return f"{stage}.bwd" if stage.startswith("ssm.") else stage


class Recorder:
    """In-memory spans and counters of one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.step_times: list[float] = []
        self.batch_times: list[float] = []
        self.unit = -1
        self._stack: list[tuple[int, str | None, str]] = []
        self._params: dict[int, tuple[str, str]] = {}
        self._tags: dict[int, str] | None = None
        self._tagged: list = []
        self._step_start = 0.0
        self._batch_start = 0.0

    # -- spans -----------------------------------------------------------

    def open(self, name: str, stage: str | None, mode: str) -> int:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.unit])
        idx = len(self.spans) - 1
        self._stack.append((idx, stage, mode))
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self._stack.pop()[0] != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    @contextlib.contextmanager
    def root(self, name: str):
        """One traced unit of work (a training call, an extract run).
        Parameters registered for an earlier unit are forgotten: their ids
        may now belong to other tensors."""
        self.unit += 1
        self._params = {}
        idx = self.open(name, None, CONTAINER)
        try:
            yield
        finally:
            self.close(idx)

    @property
    def _top(self):
        return self._stack[-1] if self._stack else None

    def _active(self) -> bool:
        top = self._top
        return top is not None and top[2] != SEALED

    # -- attribution -----------------------------------------------------

    def register_params(self, params) -> None:
        """Map each parameter tensor of a model to its stage."""
        for name, tensor in params.named():
            parts = name.split(".")
            if parts[0] in ("enc", "dec") and parts[1].isdigit():
                stage = _BLOCK_FIELDS.get(parts[2])
            else:
                stage = _MODEL_FIELDS.get(name)
            if stage is not None:
                self._params[id(tensor)] = (
                    stage if isinstance(stage, tuple) else (stage, stage))

    def _stage_of(self, opname: str, operands) -> tuple[str | None, str | None]:
        fixed = _FIXED_OP_STAGE.get(opname)
        if fixed:
            return fixed, fixed
        for t in operands:
            hit = self._params.get(id(t))
            if hit:
                return hit
        if self._tags is not None:
            found = [self._tags[id(t)] for t in operands if id(t) in self._tags]
            if found:
                stage = max(found, key=_SSM_ORDER.get)
                return stage, stage
        return None, None

    def _tag(self, out, stage: str | None) -> None:
        if self._tags is None or stage not in _SSM_ORDER:
            return
        for t in out if isinstance(out, tuple) else (out,):
            self._tags[id(t)] = stage
            self._tagged.append(t)      # keeps ids unique while tagged

    # -- wrappers ----------------------------------------------------------

    def spanned(self, fn, name: str, mode: str = SEALED,
                stage: str | None = None, after=None):
        """Time calls of ``fn`` as spans called ``name``; ``after(result,
        args, span)`` runs once the span is closed."""

        def wrapper(*args, **kwargs):
            if not self._active():
                return fn(*args, **kwargs)
            idx = self.open(name, stage, mode)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self._tag(out, stage)
            if after is not None:
                after(out, args, self.spans[idx])
            return out

        return wrapper

    def counted(self, fn, key: str):
        def wrapper(*args, **kwargs):
            if self._stack:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def block(self, fn):
        """A Mamba block: ops inside attribute themselves; operand stages
        are remembered for the length of the block only."""

        def wrapper(*args, **kwargs):
            if not self._active():
                return fn(*args, **kwargs)
            self._tags, self._tagged = {}, []
            idx = self.open("ssm.block.fwd", "ssm.block", CONTAINER)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                self._tags, self._tagged = None, []

        return wrapper

    def engine_op(self, fn, opname: str, tensor_type):
        def wrapper(*args, **kwargs):
            top = self._top
            if top is None or top[2] != CONTAINER:
                return fn(*args, **kwargs)
            operands = [a for a in args if isinstance(a, tensor_type)]
            for a in args:
                if isinstance(a, (list, tuple)):
                    operands.extend(t for t in a if isinstance(t, tensor_type))
            stage, out_stage = self._stage_of(opname, operands)
            if stage is None or stage == top[1]:
                out = fn(*args, **kwargs)
                self._tag(out, out_stage or top[1])
                return out
            idx = self.open(forward_name(stage), stage, STAGE)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self._tag(out, out_stage)
            return out

        return wrapper

    def custom_op(self, fn, array_nbytes):
        def wrapper(data, parents, vjp):
            if not self._active():
                return fn(data, parents, vjp)
            self.counts["autodiff.ops"] += 1
            self.counts["autodiff.op_bytes"] += array_nbytes(data)
            name = backward_name(self._top[1])

            def timed_vjp(g):
                idx = self.open(name, None, SEALED)
                try:
                    return vjp(g)
                finally:
                    self.close(idx)

            return fn(data, parents, timed_vjp)

        return wrapper

    # -- step and batch boundaries ----------------------------------------

    def rng_marker(self, fn):
        """``train.rng_for`` opens every pre-training step and every
        fine-tuning epoch; a step runs from there (or from the previous
        optimizer update) to the end of its optimizer update."""

        def wrapper(seed, purpose, index):
            out = fn(seed, purpose, index)
            if self._active() and purpose in ("pretrain", "epoch"):
                self._step_start = time.perf_counter()
            return out

        return wrapper

    def step_end(self, _out, _args, span) -> None:
        self.step_times.append(span[2] - self._step_start)
        self._step_start = span[2]
        self.counts["train.steps"] += 1

    def batch_start(self, _out, _args, span) -> None:
        self._batch_start = span[1]

    def batch_end(self, grad_enabled):
        """An inference batch runs from its embedding to the end of its
        forward pass; training forward passes are not batches."""

        def after(_out, _args, span) -> None:
            if not grad_enabled():
                self.batch_times.append(span[2] - self._batch_start)

        return after

    # -- results ---------------------------------------------------------

    def self_times(self, units) -> dict[str, list[float]]:
        """name -> [self seconds, inclusive seconds] over the spans of the
        given units."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, unit in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list[float]] = {}
        for i, (name, start, end, _parent, unit) in enumerate(self.spans):
            if unit in units:
                entry = out.setdefault(name, [0.0, 0.0])
                entry[0] += (end - start) - covered[i]
                entry[1] += end - start
        return out

    def write(self, path) -> None:
        """Spans as one JSON object per line: name, start, end, parent,
        unit, with times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(f'{{"name":"{name}","start":{start - t0:.9f},'
                         f'"end":{end - t0:.9f},"parent":{parent},'
                         f'"unit":{unit}}}\n')


def instrument(rec: Recorder):
    """The (module, attribute, wrapper factory) table of the traced run."""
    import numpy as np

    from netmamba import autodiff as ad
    from netmamba import cli, data, ssm, train, traffic
    from netmamba import checkpoint as ckpt
    from netmamba import model as nm

    def packets(out, _args, _span):
        rec.counts["pcap.packets"] += len(out)

    def kept(out, _args, _span):
        rec.counts["traffic.kept_packets"] += sum(len(f.packets) for f in out)

    def params_ready(out, _args, _span):
        rec.register_params(out)

    def saved(_out, args, _span):
        rec.counts["checkpoint.bytes"] += os.path.getsize(args[0])

    table = [
        (cli, "parse_capture", lambda f: rec.spanned(f, "pcap.parse", after=packets)),
        (traffic, "assemble_flows",
         lambda f: rec.spanned(f, "traffic.assemble", after=kept)),
        (traffic, "build_sample", lambda f: rec.spanned(f, "traffic.build")),
        (traffic, "classify_and_strip",
         lambda f: rec.counted(f, "traffic.strip_calls")),
        (traffic, "crop_pad", lambda f: rec.counted(f, "traffic.rows_written")),
        (data, "split_dataset", lambda f: rec.spanned(f, "data.split")),
        (data, "write_samples", lambda f: rec.spanned(f, "data.write")),
        (data, "read_samples", lambda f: rec.spanned(f, "data.read")),
        (train, "rng_for", rec.rng_marker),
        (train, "adamw_step",
         lambda f: rec.spanned(f, "optim.adamw", after=rec.step_end)),
        (train, "clip_global_norm", lambda f: rec.spanned(f, "optim.clip")),
        (train, "_snapshot", lambda f: rec.spanned(f, "train.snapshot")),
        (train, "_restore", lambda f: rec.spanned(f, "train.snapshot")),
        (train, "evaluate", lambda f: rec.spanned(f, "train.eval")),
        (ckpt, "save_model",
         lambda f: rec.spanned(f, "checkpoint.save", after=saved)),
        (nm, "init_params",
         lambda f: rec.spanned(f, "train.init", after=params_ready)),
        (nm, "embed_batch",
         lambda f: rec.spanned(f, "model.embed", STAGE, "model.embed",
                               after=rec.batch_start)),
        (nm, "make_mask",
         lambda f: rec.spanned(f, "model.mask_gather", STAGE, "model.mask_gather")),
        (nm, "pretrain_forward",
         lambda f: rec.spanned(f, "model.mask_gather", CONTAINER,
                               "model.mask_gather")),
        (nm, "finetune_forward",
         lambda f: rec.spanned(f, "model.head", CONTAINER, "model.head",
                               after=rec.batch_end(ad.grad_enabled))),
        (ssm, "block_forward", rec.block),
        (ad, "backward",
         lambda f: rec.spanned(f, "autodiff.backward", CONTAINER)),
        (ad, "custom_op",
         lambda f: rec.custom_op(f, lambda d: np.asarray(d).nbytes)),
    ]
    for attr in sorted(vars(ssm)):
        fn = getattr(ssm, attr)
        if not callable(fn) or getattr(fn, "__module__", None) != ssm.__name__:
            continue
        for key, stage in _SSM_FUNCTION_STAGE:
            if key in attr:
                table.append((ssm, attr, lambda f, s=stage: rec.spanned(
                    f, forward_name(s), STAGE, s)))
    for op in ENGINE_OPS:
        table.append((ad, op,
                      lambda f, name=op: rec.engine_op(f, name, ad.Tensor)))
    return table


@contextlib.contextmanager
def installed(table):
    """Swap every listed attribute for its wrapper; restore all on exit.

    Yields the list of (module, attribute, original) so the caller can
    confirm the restore."""
    saved = []
    try:
        for obj, attr, make in table:
            original = getattr(obj, attr)
            saved.append((obj, attr, original))
            setattr(obj, attr, make(original))
        yield saved
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)


def restored(saved) -> bool:
    return all(getattr(obj, attr) is original for obj, attr, original in saved)
