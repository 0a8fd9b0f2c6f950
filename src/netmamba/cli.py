"""Command-line surface: extract, pretrain, finetune, evaluate, bench.

Exit codes: 0 success; a failure exits with the code its error type carries
(``errors.py``), and an OS error on a given path exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from contextlib import ExitStack
from pathlib import Path

from . import bench as bench_mod
from . import checkpoint as ckpt
from . import config as cfgmod
from . import data as datamod
from . import model as nm
from . import traffic
from . import train as trainmod
from .errors import (
    ConfigError, DataError, ParseError, Refusal, UnsupportedFormatError,
    check_min,
)
from .fileio import atomic_write
from .pcap import parse_capture


def _values(args) -> dict:
    """The config file merged under the flags whose ``dest`` is a config key."""
    flags = {k: v for k, v in vars(args).items() if k in cfgmod.SCHEMA}
    values = cfgmod.merge(cfgmod.load_config(args.config), flags)
    check_min("seed", values.get("seed", 0), 0)
    return values


# ---------------------------------------------------------------------------
# extract


def cmd_extract(args) -> None:
    """One class at a time: its capture files become sample rows (each file
    streamed through assembly, its flows freed before the next is read), the
    class is balanced and split, and its rows are appended to the three
    sample files before the next class is read. The balance and split rngs
    are consumed in label order. A capture that cannot be read or parsed,
    even part-way, adds no flow and no count (assembly adds to its stats
    only at its end); it is named in ``summary.json`` and warned about."""
    input_dir = Path(args.input)
    if not input_dir.is_dir():
        raise ConfigError(f"input directory {input_dir} does not exist")
    values = _values(args)
    repr_cfg = cfgmod.build(traffic.ReprConfig(), values)
    seed = values.get("seed", 0)
    min_packets = values.get("min_packets", 1)
    check_min("min_packets", min_packets)
    for key in ("limit_lower", "limit_upper"):
        check_min(key, values.get(key, 0), 0)
    split = datamod.StratifiedSplit(
        (values.get("train_ratio", 0.8), values.get("val_ratio", 0.1),
         values.get("test_ratio", 0.1)), seed)
    balance = None
    if "limit_lower" in values or "limit_upper" in values:
        balance = datamod.ClassBalance(values.get("limit_lower", 0),
                                       values.get("limit_upper", 2**31), seed)

    class_dirs = sorted(d for d in input_dir.iterdir() if d.is_dir())
    if not class_dirs:
        raise ConfigError(f"{input_dir} has no class subdirectories")

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_classes = len(class_dirs)
    stats = traffic.AssemblyStats()
    summary: dict = {"classes": {}, "file_errors": []}
    parts = ("train", "val", "test")
    with ExitStack() as stack:
        writers = [stack.enter_context(datamod.sample_writer(
            out_dir / f"{name}.nmstride", repr_cfg, n_classes)) for name in parts]
        for label, class_dir in enumerate(class_dirs):
            rows, dropped = [], 0
            for pcap_path in sorted(p for p in class_dir.glob("*.pcap")
                                    if p.is_file()):
                try:
                    flows = traffic.assemble_flows(parse_capture(pcap_path),
                                                   repr_cfg, stats)
                except (ParseError, UnsupportedFormatError, OSError) as exc:
                    summary["file_errors"].append({"file": str(pcap_path),
                                                   "error": str(exc)})
                    warnings.warn(f"skipped {pcap_path}: {exc}")
                    continue
                for flow in flows:
                    if flow.count >= min_packets:
                        rows.append(traffic.build_sample(flow, repr_cfg))
                    else:
                        dropped += 1
                del flows  # free this file before reading the next
            entry = summary["classes"][class_dir.name] = {
                "flows_kept": len(rows), "flows_dropped": dropped}
            if balance is not None:
                rows = balance(rows) or []
                entry["flows_after_balance"] = len(rows)
            if rows:  # an empty class is neither split nor warned about
                for writer, taken in zip(writers, split(label, rows)):
                    for row in taken:
                        writer.append(label, row)
        total = sum(writer.count for writer in writers)
        if not total:  # the writers then leave no file behind
            raise DataError("no usable flows were extracted")
    summary["malformed_packets"] = stats.malformed_packets
    summary["skipped_packets"] = stats.skipped_packets
    for name, writer in zip(parts, writers):
        summary[f"{name}_samples"] = writer.count
    datamod.write_manifest(out_dir / "manifest.json",
                           [d.name for d in class_dirs])
    with atomic_write(out_dir / "summary.json", "w") as fh:
        fh.write(json.dumps(summary, indent=2) + "\n")
    print(f"extracted {total} flows from {n_classes} classes -> {out_dir}")


# ---------------------------------------------------------------------------
# training commands


def _resolve_data(path, split: str) -> Path:
    p = Path(path)
    if p.is_dir():
        p = p / f"{split}.nmstride"
    if not p.exists():
        raise FileNotFoundError(f"sample file {p} does not exist")
    return p


def cmd_pretrain(args) -> None:
    values = _values(args)
    tcfg = cfgmod.build(trainmod.pretrain_defaults(), values)
    sf = datamod.read_samples(_resolve_data(args.data, "train"))
    cfg = cfgmod.build(nm.ModelConfig(), values, seq_len=sf.n_strides + 1,
                       stride_len=sf.stride_len,
                       num_classes=max(sf.num_classes, 2))
    out_dir = Path(args.output)
    result = trainmod.pretrain(sf.strides, cfg, tcfg, out_dir=out_dir,
                               resume=args.resume,
                               given=[k for k in values if k in cfg.to_dict()])
    print(f"pre-training done: best loss {result.best_loss:.6f} at step "
          f"{result.best_step}; artifacts in {out_dir}")


def _geometry(sf: datamod.StrideFile) -> str:
    r = sf.repr_cfg
    return (f"flows of M={r.packets_per_flow}, N_h={r.header_bytes}, N_p="
            f"{r.payload_bytes}, L_s={r.stride_len} in {sf.num_classes} classes")


def cmd_finetune(args) -> None:
    if args.init is None and not args.from_scratch:
        raise ConfigError("pass --init CHECKPOINT or --from-scratch")
    values = _values(args)
    tcfg = cfgmod.build(trainmod.finetune_defaults(), values)
    if not Path(args.data).is_dir():
        raise ConfigError(f"--data {args.data} is not an extract directory")
    splits = {}
    for name in ("train", "val", "test"):
        path = _resolve_data(args.data, name)
        sf = datamod.read_samples(path)
        if not splits:
            first, first_path = sf, path
        elif (sf.repr_cfg, sf.num_classes) != (first.repr_cfg, first.num_classes):
            raise DataError(f"{path} holds {_geometry(sf)}, but {first_path} "
                            f"holds {_geometry(first)}")
        splits[name] = (sf.strides, sf.labels)
    cfg = cfgmod.build(nm.ModelConfig(), values, seq_len=sf.n_strides + 1,
                       stride_len=sf.stride_len, num_classes=sf.num_classes)
    out_dir = Path(args.output)
    result = trainmod.finetune(splits, cfg, tcfg, init=args.init,
                               out_dir=out_dir)
    print(json.dumps(result.report.to_dict()))
    print(f"fine-tuning done: best val acc {result.best_val_acc:.4f} at epoch "
          f"{result.best_epoch}; test acc {result.report.accuracy:.4f}; "
          f"artifacts in {out_dir}")


def cmd_evaluate(args) -> None:
    batch_size = 64 if args.batch is None else args.batch
    check_min("batch_size", batch_size)
    params, _, _ = ckpt.load_model(args.checkpoint, "finetune")
    data_path = _resolve_data(args.data, "test")
    sf = datamod.read_samples(data_path)
    ckpt.check_geometry(args.checkpoint, params.cfg, sf.strides, data_path)
    report = trainmod.evaluate(params, sf.strides, sf.labels, batch_size)
    text = report.to_json(indent=2)
    print(text)
    if args.output:
        with atomic_write(args.output, "w") as fh:
            fh.write(text + "\n")


def _positive_ints(flag: str, text: str) -> list[int]:
    """A comma-separated list of positive ints, or a ConfigError naming the
    flag and the value."""
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        values = []
    if not values or min(values) < 1:
        raise ConfigError(f"{flag} must be a comma-separated list of positive "
                          f"integers, got {text!r}")
    return values


def cmd_bench(args) -> None:
    batch_sizes = _positive_ints("--batch-sizes", args.batch_sizes)
    lengths = _positive_ints("--lengths", args.lengths)
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be >= 1, got {args.repeats}")
    cfg = cfgmod.build(nm.ModelConfig(), _values(args), seq_len=401,
                       num_classes=2)
    rows = bench_mod.bench_forward(cfg, batch_sizes, lengths,
                                   repeats=args.repeats, seed=args.seed or 0)
    if args.output:
        bench_mod.write_bench_csv(rows, args.output)
    print(bench_mod.CSV_HEADER)
    for r in rows:
        print(f"{r['batch']},{r['seq_len']},{r['samples_per_sec']:.6g},"
              f"{r['peak_bytes']}")
    first_batch = rows[0]["batch"]
    series = [(r["seq_len"], r["median_seconds"]) for r in rows
              if r["batch"] == first_batch]
    if len(series) >= 2:
        exponent = bench_mod.fit_scaling_exponent(*zip(*series))
        print(f"scaling exponent over lengths {[s for s, _ in series]}: "
              f"{exponent:.3f}")


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netmamba",
        description="stride-based traffic representation and a selective "
                    "state space classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="pcap tree -> NMSTRIDE sample files")
    p.add_argument("--input", required=True,
                   help="directory laid out as <class_name>/*.pcap")
    p.add_argument("--output", required=True)
    p.add_argument("--config")
    p.add_argument("--min-packets", type=int, dest="min_packets")
    p.add_argument("--no-anonymize-ips", action="store_const", const=False,
                   dest="anonymize_ips")
    p.add_argument("--no-header", action="store_const", const=False,
                   dest="include_header")
    p.add_argument("--no-payload", action="store_const", const=False,
                   dest="include_payload")
    p.add_argument("--limit-lower", type=int, dest="limit_lower")
    p.add_argument("--limit-upper", type=int, dest="limit_upper")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("pretrain", help="masked-reconstruction pre-training")
    p.add_argument("--data", required=True, help="NMSTRIDE file or extract dir")
    p.add_argument("--output", required=True)
    p.add_argument("--config")
    p.add_argument("--steps", type=int)
    p.add_argument("--batch", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--mask-ratio", type=float, dest="mask_ratio")
    p.add_argument("--resume", help="resume from a last.nmckpt")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="supervised classification training")
    p.add_argument("--data", required=True, help="extract output dir")
    p.add_argument("--output", required=True)
    p.add_argument("--config")
    p.add_argument("--init", help="pre-training checkpoint for the encoder")
    p.add_argument("--from-scratch", action="store_true",
                   help="random init (the no-pre-training ablation)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--early-stop", type=float, dest="early_stop_val_acc",
                   help="stop when validation accuracy reaches this value")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="metrics of a checkpoint on a split")
    p.add_argument("--data", required=True, help="NMSTRIDE file or extract dir")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--output", help="also write the JSON report here")
    p.add_argument("--batch", type=int)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="forward-pass throughput and scaling")
    p.add_argument("--config")
    p.add_argument("--batch-sizes", default="1,8", dest="batch_sizes")
    p.add_argument("--lengths", default="400,800,1600")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int)
    p.add_argument("--output", help="CSV path")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (Refusal, OSError) as exc:
        # an OS error concerns a path given on the command line
        kind = exc if isinstance(exc, Refusal) else Refusal
        print(f"{kind.label}: {exc}", file=sys.stderr)
        return kind.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
