"""Per-layer metrics of a traced run, computed from the recorder's spans.

Times are self times per step: per optimizer step on the training
workloads, per inference batch on ``infer_paper``, per extract call on
``extract_pcap``. A layer that does no work on a workload reads 0.
``data.read_s`` is per set-up, since reading inputs is set-up work.
"""

from __future__ import annotations

import statistics

from tracer import SSM_STAGES

# self-time metric -> the span names it is made of. Together they cover
# every span of a traced call, so they add up to trace.step_s by
# construction: the self times of a tree of spans sum to the root's time.
PARTITION = {
    "pcap.parse_s": ("pcap.parse",),
    "traffic.assemble_s": ("traffic.assemble",),
    "traffic.build_s": ("traffic.build",),
    "data.split_s": ("data.split",),
    "data.write_s": ("data.write",),
    "cli.extract_s": ("cli.extract",),
    "model.embed_s": ("model.embed",),
    "model.mask_gather_s": ("model.mask_gather",),
    "model.recon_s": ("model.recon",),
    "model.head_s": ("model.head",),
    **{f"ssm.{s}.{d}_s": (f"ssm.{s}.{d}",)
       for s in SSM_STAGES for d in ("fwd", "bwd")},
    "ssm.block.fwd_s": ("ssm.block.fwd",),
    "autodiff.unattributed_s": ("autodiff.backward", "autodiff.unattributed"),
    "optim.clip_s": ("optim.clip",),
    "optim.adamw_s": ("optim.adamw",),
    "train.loop_s": ("train.loop",),
    "train.init_s": ("train.init",),
    "train.snapshot_s": ("train.snapshot",),
    "train.eval_s": ("train.eval",),
    "checkpoint.save_s": ("checkpoint.save",),
}


# Time inside a traced call that no wrapped function of the program covers:
# the root span's own time and block code outside every stage. On the model
# workloads (root ``train.loop``) it must stay under RESIDUAL_LIMIT of the
# step, so that the named layers, not the root, account for the step. On
# extraction the root's own time is the command's code, a layer of its own.
RESIDUAL = ("ssm.block.fwd",)
RESIDUAL_LIMIT = 0.05


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_layer_metrics(rec, root_span: str, units, setup_units, overhead: float,
                      infer_peak_mb: float):
    """(metrics, sample counts, named checks) of the traced calls ``units``."""
    spans = rec.self_times(set(units))
    counts = rec.counts
    if rec.step_times:
        steps = len(rec.step_times)
    elif rec.batch_times:
        steps = len(rec.batch_times)
    else:
        steps = len(units)
    steps = max(steps, 1)

    def self_s(*names) -> float:
        return sum(spans.get(n, (0.0, 0.0))[0] for n in names)

    metrics = {name: self_s(*names) / steps for name, names in PARTITION.items()}
    step_s = spans.get(root_span, (0.0, 0.0))[1] / steps
    residual = self_s(root_span, *RESIDUAL) / steps
    packets = counts["pcap.packets"]
    kept = counts["traffic.kept_packets"]
    reads = rec.self_times(set(setup_units)).get("data.read", (0.0, 0.0))[0]
    metrics.update({
        "pcap.packets": packets / max(len(units), 1),
        "traffic.strip_calls_per_packet":
            counts["traffic.strip_calls"] / packets if packets else 0.0,
        "traffic.packets_used_ratio":
            counts["traffic.rows_written"] / kept if kept else 0.0,
        "data.read_s": reads / max(len(setup_units), 1),
        "autodiff.backward_s": spans.get("autodiff.backward", (0.0, 0.0))[1] / steps,
        "autodiff.ops_per_step": counts["autodiff.ops"] / steps,
        "autodiff.op_bytes_per_step": counts["autodiff.op_bytes"] / steps,
        "train.step_s_p50": _median(rec.step_times),
        "train.step_s_max": max(rec.step_times, default=0.0),
        "checkpoint.bytes": counts["checkpoint.bytes"] / max(len(units), 1),
        "infer.batch_s_p50": _median(rec.batch_times),
        "mem.infer_traced_peak_mb": infer_peak_mb,
        "trace.step_s": step_s,
        "trace.residual_ratio": residual / step_s if step_s else 0.0,
        "trace.overhead_ratio": overhead,
    })
    samples = {"traced calls": len(units),
               "train.steps_traced": len(rec.step_times),
               "infer.batches_traced": len(rec.batch_times)}
    covered = {n for names in PARTITION.values() for n in names}
    stray = sorted(set(spans) - covered)
    checks = [(f"every traced span belongs to a layer metric (stray: {stray})",
               not stray)]
    if root_span == "train.loop":
        checks.append((f"time charged to no layer under {RESIDUAL_LIMIT:.0%} "
                       f"of the step ({metrics['trace.residual_ratio']:.2%})",
                       metrics["trace.residual_ratio"] < RESIDUAL_LIMIT))
    return metrics, samples, checks
