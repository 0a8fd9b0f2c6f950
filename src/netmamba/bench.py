"""Throughput harness: encoder forward timing across batch sizes and
sequence lengths, peak-memory probes, and the log-log scaling fit that
demonstrates linear cost in sequence length."""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from . import autodiff as ad
from . import model as nm
from . import ssm
from .fileio import atomic_write

CSV_HEADER = "batch,seq_len,samples_per_sec,peak_bytes"


def bench_forward(cfg: nm.ModelConfig, batch_sizes, lengths,
                  repeats: int = 5, warmup: int = 2, seed: int = 0) -> list[dict]:
    """Median wall-clock of no-grad encoder passes per (batch, length) plus
    peak allocation bytes of one traced pass. Each pass reads the encoder
    as classification does: the normalized last row alone
    (``ssm.stack_forward`` with tail 1), streaming along the sequence in
    row chunks, so ``peak_bytes`` is one chunk's arrays and the (B, 1, D)
    output, not a (B, L, D) output or the (B, L, E) arrays of every row. The
    encoder blocks are length-agnostic, so one parameter set serves every
    length. The lengths of a batch take turns, one pass each per round, so
    a slowdown of the host spreads over all of them instead of bending one
    length's median."""
    params = nm.init_params(cfg, np.random.default_rng(seed), with_decoder=False)
    blocks, gain = params.enc_blocks, params.enc_norm
    rng = np.random.default_rng(seed + 1)
    rows = []
    for batch in batch_sizes:
        xs = [ad.Tensor(rng.standard_normal((batch, length, cfg.d_enc))
                        .astype(np.float32)) for length in lengths]
        times = [[] for _ in lengths]
        with ad.no_grad():
            for x in xs:
                for _ in range(warmup):
                    ssm.stack_forward(x, blocks, gain, tail=1)
            for _ in range(repeats):
                for x, ts in zip(xs, times):
                    t0 = time.perf_counter()
                    ssm.stack_forward(x, blocks, gain, tail=1)
                    ts.append(time.perf_counter() - t0)
            for length, x, ts in zip(lengths, xs, times):
                tracemalloc.start()
                ssm.stack_forward(x, blocks, gain, tail=1)
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                median = float(np.median(ts))
                rows.append({
                    "batch": batch,
                    "seq_len": length,
                    "samples_per_sec": batch / median,
                    "peak_bytes": int(peak),
                    "median_seconds": median,
                })
    return rows


def fit_scaling_exponent(lengths, seconds) -> float:
    """Least-squares slope of log(time) against log(length)."""
    x = np.log(np.asarray(lengths, dtype=np.float64))
    y = np.log(np.asarray(seconds, dtype=np.float64))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def scaling_exponent(cfg: nm.ModelConfig, lengths=(400, 800, 1600),
                     batch: int = 2, repeats: int = 5) -> float:
    rows = bench_forward(cfg, [batch], lengths, repeats=repeats)
    return fit_scaling_exponent([r["seq_len"] for r in rows],
                                [r["median_seconds"] for r in rows])


def csv_text(rows) -> str:
    """The CSV header and one line per row, each ending in a newline."""
    lines = [CSV_HEADER] + [f"{r['batch']},{r['seq_len']},{r['samples_per_sec']:.6g},"
                            f"{r['peak_bytes']}" for r in rows]
    return "\n".join(lines) + "\n"


def write_bench_csv(rows, path) -> None:
    with atomic_write(path, "w") as fh:
        fh.write(csv_text(rows))
