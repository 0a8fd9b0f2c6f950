#!/usr/bin/env python3
"""End-to-end desk-scale run on synthetic flows: pre-train, fine-tune from
both the checkpoint and from scratch, evaluate, and time the encoder at
growing sequence lengths. Finishes in a few minutes on a laptop CPU.
"""

import argparse
import time
from pathlib import Path

from netmamba import bench
from netmamba import model as nm
from netmamba import train
from netmamba.data import samples_to_arrays, split_dataset, synthetic_samples
from netmamba.traffic import ReprConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/desk_demo")
    parser.add_argument("--classes", type=int, default=10)
    parser.add_argument("--per-class", type=int, default=200)
    parser.add_argument("--pretrain-steps", type=int, default=500)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    out = Path(args.out)

    repr_cfg = ReprConfig(packets_per_flow=5, header_bytes=48,
                          payload_bytes=16, stride_len=4)
    model_cfg = nm.ModelConfig(
        stride_len=4, d_enc=64, e_enc=128, depth_enc=2, d_dec=32, e_dec=64,
        depth_dec=1, state_dim=8, dt_rank=8,
        seq_len=repr_cfg.n_strides + 1, mask_ratio=0.9,
        num_classes=args.classes)

    samples = synthetic_samples(args.classes, args.per_class, repr_cfg,
                                seed=args.seed)
    parts = split_dataset(samples, (0.8, 0.1, 0.1), seed=args.seed)
    for name, part in zip(("training", "validation", "test"), parts):
        if not part:
            parser.error(f"the {name} split of {args.per_class} flows per "
                         "class is empty; pass a larger --per-class (10 or more)")

    strides, _ = samples_to_arrays(samples)
    print(f"synthetic dataset: {len(strides)} flows, "
          f"{repr_cfg.n_strides} strides each")

    t0 = time.time()
    tcfg = train.pretrain_defaults(steps=args.pretrain_steps, batch_size=32,
                                   lr=2e-3, seed=args.seed, log_every=10)
    pre = train.pretrain(strides, model_cfg, tcfg, out_dir=out / "pretrain")
    print(f"pre-training: {args.pretrain_steps} steps in {time.time()-t0:.0f}s, "
          f"loss {pre.log[0][1]:.4f} -> {pre.log[-1][1]:.4f}")

    splits = dict(zip(("train", "val", "test"), map(samples_to_arrays, parts)))
    fcfg = train.finetune_defaults(epochs=args.epochs, batch_size=32,
                                   seed=args.seed, early_stop_val_acc=0.995)
    t0 = time.time()
    fine = train.finetune(splits, model_cfg, fcfg,
                          init=out / "pretrain" / "last.nmckpt",
                          out_dir=out / "finetune")
    print(f"fine-tune (pre-trained init): test acc {fine.report.accuracy:.4f} "
          f"after {len(fine.history)} epochs ({time.time()-t0:.0f}s)")
    t0 = time.time()
    scratch = train.finetune(splits, model_cfg, fcfg,
                             out_dir=out / "finetune_scratch")
    print(f"fine-tune (from scratch):     test acc "
          f"{scratch.report.accuracy:.4f} after {len(scratch.history)} epochs "
          f"({time.time()-t0:.0f}s)")

    rows = bench.bench_forward(model_cfg, batch_sizes=[2],
                               lengths=[400, 800, 1600], repeats=5)
    bench.write_bench_csv(rows, out / "bench.csv")
    exponent = bench.fit_scaling_exponent(
        [r["seq_len"] for r in rows], [r["median_seconds"] for r in rows])
    print(f"encoder scaling exponent over (400, 800, 1600): {exponent:.3f}")
    print(f"artifacts in {out}")


if __name__ == "__main__":
    main()
