"""The benchmark workloads. Each one calls the program's real entry points.

A workload has an in-process ``setup`` (reading its inputs through the
program's readers and building what the program builds before work starts),
a ``unit`` (one timed call into the program, repeated for the run's window)
and checks on what each unit produced. Why each workload exists is in
README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

from netmamba import checkpoint as ckpt
from netmamba import cli, data, train
from netmamba import model as nm

PRETRAIN_BATCH = 16
PRETRAIN_STEPS_PER_CALL = 1
FINETUNE_BATCH = 4
FINETUNE_EPOCHS = 1
INFER_BATCH = 16
INFER_ONE_BY_ONE = 4          # flows re-predicted one at a time as a check


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


class ExtractPcap:
    """The ``extract`` command over a labelled pcap tree."""

    name = "extract_pcap"
    flows_metric = ("extract_flows_per_s", "flows/s")
    root_span = "cli.extract"
    params = None
    # sub-second pure-Python calls slow one for one with the host's speed,
    # which the pure-Python probe around each call reads
    calibrated = True

    def __init__(self, inputs: Path, work: Path, seed: int):
        self.pcaps = inputs / "pcaps"
        self.out = work / "extracted"
        self.seed = seed
        self.truth = json.loads((inputs / "truth.json").read_text())
        self.stdout = ""

    def setup(self) -> None:
        """Extraction reads its inputs inside the timed command."""

    def unit(self) -> int:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["extract", "--input", str(self.pcaps),
                             "--output", str(self.out),
                             "--seed", str(self.seed)])
        self.stdout = buf.getvalue()
        return code

    def check(self, code: int):
        """(flows written, operations attempted, failed, named checks)."""
        truth = self.truth
        summary = json.loads((self.out / "summary.json").read_text())
        flows = sum(summary[f"{s}_samples"] for s in ("train", "val", "test"))
        counts_ok = (
            code == 0
            and {k: v["flows_kept"] for k, v in summary["classes"].items()}
            == truth["flows"]
            and all(v["flows_dropped"] == 0 for v in summary["classes"].values())
            and summary["skipped_packets"] == truth["skipped"]
            and summary["malformed_packets"] == truth["malformed"]
            and f"extracted {sum(truth['flows'].values())} flows" in self.stdout)
        digests = defaultdict(list)
        for split in ("train", "val", "test"):
            sf = data.read_samples(self.out / f"{split}.nmstride")
            for row, label in zip(sf.data, sf.labels):
                digests[str(int(label))].append(hashlib.sha256(row.tobytes()).hexdigest())
        bytes_ok = {k: sorted(v) for k, v in digests.items()} == truth["digests"]
        checks = [("extract counts equal generator truth", counts_ok),
                  ("NMSTRIDE read-back equals expected flow bytes", bytes_ok)]
        return flows, truth["files"], len(summary["file_errors"]), checks

    def final_checks(self):
        return []

    def extras(self) -> dict:
        return {}


class _Training:
    """Shared set-up of the training workloads: NMSTRIDE files read through
    ``data.read_samples`` and the model config the CLI would build."""

    params = None
    calibrated = False

    def __init__(self, inputs: Path, work: Path, seed: int):
        self.data_dir = inputs / "data"
        self.out = work / self.name
        self.seed = seed
        self.first = None

    def _config(self, sf, num_classes: int) -> nm.ModelConfig:
        return nm.ModelConfig(seq_len=sf.n_strides + 1, stride_len=sf.stride_len,
                              num_classes=num_classes)


class PretrainPaper(_Training):
    """``train.pretrain`` at paper widths, a fixed number of steps per call."""

    name = "pretrain_paper"
    flows_metric = ("pretrain_samples_per_s", "samples/s")
    root_span = "train.loop"

    def setup(self) -> None:
        sf = data.read_samples(self.data_dir / "train.nmstride")
        self.strides = sf.strides
        self.cfg = self._config(sf, max(sf.num_classes, 2))
        self.tcfg = train.pretrain_defaults(batch_size=PRETRAIN_BATCH,
                                            seed=self.seed, log_every=1)
        nm.init_params(self.cfg, train.rng_for(self.seed, "init", 0),
                       with_decoder=True)

    def unit(self):
        return train.pretrain(self.strides, self.cfg, self.tcfg,
                              out_dir=self.out, stop_at=PRETRAIN_STEPS_PER_CALL)

    def check(self, result):
        losses = [loss for _, loss, _ in result.log]
        steps = PRETRAIN_STEPS_PER_CALL
        failed = steps - sum(math.isfinite(v) for v in losses)
        checks = [("one logged loss per step", len(losses) == steps)]
        if self.first is None:
            self.first = losses
        else:
            checks.append(("losses repeat the first call bit for bit",
                           losses == self.first))
        return steps * PRETRAIN_BATCH, steps, failed, checks

    def final_checks(self):
        """The saved last.nmckpt loads back into a pre-training model."""
        params, meta, extra = ckpt.load_model(self.out / "last.nmckpt")
        return [("last.nmckpt round-trips",
                 meta["step"] == PRETRAIN_STEPS_PER_CALL
                 and params.recon_w is not None and len(extra) > 0)]

    def extras(self) -> dict:
        return {"pretrain_loss": (self.first[-1], "-")} if self.first else {}


class FinetunePaper(_Training):
    """``train.finetune`` at paper widths: one epoch over a fixed split."""

    name = "finetune_paper"
    flows_metric = ("finetune_samples_per_s", "samples/s")
    root_span = "train.loop"

    def setup(self) -> None:
        self.splits = {}
        for split in ("train", "val", "test"):
            sf = data.read_samples(self.data_dir / f"{split}.nmstride")
            self.splits[split] = (sf.strides, sf.labels)
        self.cfg = self._config(sf, sf.num_classes)
        self.tcfg = train.finetune_defaults(batch_size=FINETUNE_BATCH,
                                            epochs=FINETUNE_EPOCHS, seed=self.seed)
        nm.init_params(self.cfg, train.rng_for(self.seed, "init", 1),
                       with_decoder=False, with_head=True)

    def unit(self):
        return train.finetune(self.splits, self.cfg, self.tcfg, out_dir=self.out)

    def check(self, result):
        n = len(self.splits["train"][0])
        steps = FINETUNE_EPOCHS * -(-n // FINETUNE_BATCH)
        losses = [loss for _, loss, _ in result.history]
        outcome = (losses, result.report.to_dict())
        checks = [("epoch train losses finite", _finite(losses)),
                  ("metrics.json written", (self.out / "metrics.json").is_file())]
        if self.first is None:
            self.first = outcome
        else:
            checks.append(("losses and test metrics repeat the first call",
                           outcome == self.first))
        return n * FINETUNE_EPOCHS, steps, 0 if _finite(losses) else steps, checks

    def final_checks(self):
        return []

    def extras(self) -> dict:
        return {"finetune_loss": (self.first[0][-1], "-")} if self.first else {}


class InferPaper:
    """No-grad ``train.predict`` over a held-out set with a fine-tuning
    checkpoint, as ``netmamba evaluate`` does."""

    name = "infer_paper"
    flows_metric = ("infer_flows_per_s", "flows/s")
    root_span = "train.loop"
    calibrated = False

    def __init__(self, inputs: Path, work: Path, seed: int):
        self.data_dir = inputs / "data"
        self.params = None
        self.first = None

    def setup(self) -> None:
        self.params, _, _ = ckpt.load_model(self.data_dir / "model.nmckpt")
        self.strides = data.read_samples(self.data_dir / "heldout.nmstride").strides

    def unit(self):
        return train.predict(self.params, self.strides, batch_size=INFER_BATCH)

    def check(self, preds):
        n = len(self.strides)
        batches = -(-n // INFER_BATCH)
        in_range = (preds.shape == (n,) and preds.min() >= 0
                    and preds.max() < self.params.cfg.num_classes)
        checks = [("one in-range prediction per flow", bool(in_range))]
        if self.first is None:
            self.first = preds
        else:
            checks.append(("predictions repeat the first call",
                           bool(np.array_equal(preds, self.first))))
        return n, batches, 0, checks

    def final_checks(self):
        """Batched predictions equal one-flow-at-a-time predictions."""
        subset = self.strides[:INFER_ONE_BY_ONE]
        single = train.predict(self.params, subset, batch_size=1)
        return [("batch predictions equal one-at-a-time predictions",
                 bool(np.array_equal(single, self.first[:INFER_ONE_BY_ONE])))]

    def extras(self) -> dict:
        return {}

    def traced_peak_mb(self) -> float:
        """Peak Python-traced allocation of one inference batch."""
        import tracemalloc

        tracemalloc.start()
        try:
            train.predict(self.params, self.strides[:INFER_BATCH],
                          batch_size=INFER_BATCH)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / 2**20


WORKLOADS = {w.name: w for w in (ExtractPcap, PretrainPaper, FinetunePaper,
                                 InferPaper)}
