"""NetMamba benchmark: one workload per process, metrics as one JSON line.

    python3 perfbench/run.py --workload pretrain_paper --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json untraced;
``--trace 1`` alternates untraced and traced calls and reports the per-layer
metrics. ``--all`` runs every workload, each in its own process, and prints
a table. The last line of standard output is the run's JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checkout
from probe import REFERENCE_S, calibrated, host_probe

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NETMAMBA_THREADS")
SETUP_REPS = 9
MIN_CALLS = 3
GEN_TIMEOUT_S = 120
IMPORT_PROBE = "import netmamba.cli, netmamba.train"


# One BLAS thread. On a shared host two threads wait on each other whenever
# the host holds one CPU back: with a busy process beside it, a fine-tuning
# call slowed by 60% at two threads and not at all at one, which was 9%
# slower when the host was quiet (see README.md, Steadiness).
BLAS_THREADS = 1


def pin_threads() -> int:
    """Pin BLAS threads to BLAS_THREADS, at most the CPUs this process may
    run on; set before numpy loads."""
    n = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def load_spec() -> dict:
    return json.loads((checkout.ROOT / "BENCHMARK.json").read_text())


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def environment(seed: int, threads: int) -> dict:
    import hashlib

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rev = None
    if (checkout.ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(checkout.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        rev = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((checkout.SRC / "netmamba").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "threads": threads,
        "blas_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
    }


def import_seconds() -> float:
    """Fresh-interpreter start-up and import of the program."""
    env = dict(os.environ, PYTHONPATH=str(checkout.SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                   timeout=60)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# one workload


class Run:
    """Set-up, timed window and checks of one workload in this process."""

    def __init__(self, wl, trace: bool):
        from tracer import Recorder

        self.wl = wl
        self.trace = trace
        self.rec = Recorder() if trace else None
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool]] = []
        self.setup_times: list[tuple[float, float, float]] = []
        self.setup_units: list[int] = []
        # (seconds, flows) per call; untraced calls add the host probe
        # seconds taken just before and just after them
        self.samples = {False: [], True: []}
        self.traced_units: list[int] = []

    def _check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok
        self.checks.append((name, bool(ok)))

    def _traced(self, fn, root: str, units: list[int]):
        """Call ``fn`` with every wrapper installed; confirm the restore."""
        from tracer import installed, instrument, restored

        with installed(instrument(self.rec)) as saved:
            with self.rec.root(root):
                if self.wl.params is not None:
                    self.rec.register_params(self.wl.params)
                units.append(self.rec.unit)
                t0 = time.perf_counter()
                out = fn()
                seconds = time.perf_counter() - t0
        if not restored(saved):
            self._check("program functions restored after tracing", False)
        return out, seconds

    def setup(self) -> None:
        """One set-up: a fresh interpreter importing the program, then the
        workload's in-process set-up; bracketed by host-speed probes."""
        before = host_probe()
        seconds = import_seconds()
        if self.trace:
            _, spent = self._traced(self.wl.setup, "setup", self.setup_units)
        else:
            t0 = time.perf_counter()
            self.wl.setup()
            spent = time.perf_counter() - t0
        self.setup_times.append((seconds + spent, before, host_probe()))

    def window(self, seconds: float) -> None:
        """Repeat the workload's unit until ``seconds`` have passed, and at
        least MIN_CALLS times unless that would take twice the window; a
        traced run alternates untraced and traced calls."""
        start = time.perf_counter()
        floor = 2 if self.trace else 1       # one call of each kind at least
        minimum = MIN_CALLS * floor
        k = 0
        while True:
            traced = self.trace and k % 2 == 1
            k += 1
            try:
                if traced:
                    out, spent = self._traced(self.wl.unit, self.wl.root_span,
                                              self.traced_units)
                    probes = ()
                else:
                    before = host_probe()
                    t0 = time.perf_counter()
                    out = self.wl.unit()
                    spent = time.perf_counter() - t0
                    probes = (before, host_probe())
                flows, ops, failed, checks = self.wl.check(out)
            except Exception:  # a failing call is counted, the run goes on
                traceback.print_exc(file=sys.stderr)
                self.attempted += 1
                self.failed += 1
            else:
                self.attempted += ops
                self.failed += failed
                for name, ok in checks:
                    self._check(name, ok)
                self.samples[traced].append((spent, flows, *probes))
            if len(self.setup_times) < SETUP_REPS:
                # spread the set-ups over the run: the machine's speed drifts
                self.setup()
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and (
                    k >= minimum or (elapsed >= 2 * seconds and k >= floor)):
                break

    def final(self) -> None:
        for name, ok in self.wl.final_checks():
            self._check(name, ok)

    # -- metrics -------------------------------------------------------------

    def end_to_end(self) -> list[tuple]:
        """Rows of (printed name, BENCHMARK.json name or None, value, unit,
        what the value is made of)."""
        calls = self.samples[False]
        if len(calls) >= MIN_CALLS:
            calls = calls[1:]    # the first call also warms up the process
        # all the calls' flows over all their time: on the same ten seeds of
        # pretrain_paper it spread 6.9% where the median of per-call rates
        # spread 10.2%
        flows = sum(c[1] for c in calls)
        raw = flows / sum(c[0] for c in calls)
        if self.wl.calibrated:
            rate = flows / sum(calibrated(s, before, after)
                               for s, _, before, after in calls)
        else:
            rate = raw
        flows_name, flows_unit = self.wl.flows_metric
        rows = [
            ("setup_s", "setup_s",
             _median([calibrated(*t) for t in self.setup_times]), "s",
             f"median of {len(self.setup_times)} set-ups, host-speed calibrated"),
            ("raw setup_s", None, _median([t for t, _, _ in self.setup_times]),
             "s", "median wall-clock set-up"),
            (flows_name, "flows_per_s", rate, flows_unit,
             f"{len(calls)} calls of {calls[0][1]} flows"
             + (", host-speed calibrated" if self.wl.calibrated else "")),
            ("host_probe_s", None, _median([c[2] for c in calls]), "s",
             f"median probe before a call; reference {REFERENCE_S} s"),
            ("peak_rss_mb", "peak_rss_mb",
             resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
             "ru_maxrss of this process"),
        ]
        if self.wl.calibrated:
            rows.insert(3, ("raw " + flows_name, None, raw, flows_unit,
                            "wall-clock rate"))
        for name, (value, unit) in self.wl.extras().items():
            rows.append((name, None, value, unit, "every call"))
        rows.append(("ops_failed_ratio", None,
                     self.failed / max(self.attempted, 1), "ratio",
                     f"{self.failed} of {self.attempted} operations"))
        return rows

    def per_layer(self) -> tuple[dict, dict]:
        from layers import per_layer_metrics

        peak = (self.wl.traced_peak_mb()
                if hasattr(self.wl, "traced_peak_mb") else 0.0)
        # the first call of a process pays one-off costs (page faults of
        # first allocations); compare traced calls with the later ones
        untraced = [c[0] for c in self.samples[False]]
        untraced = untraced[1:] or untraced
        traced = [c[0] for c in self.samples[True]]
        metrics, samples, checks = per_layer_metrics(
            self.rec, self.wl.root_span, self.traced_units, self.setup_units,
            overhead=_median(traced) / _median(untraced) if untraced and traced else 0.0,
            infer_peak_mb=peak)
        for name, ok in checks:
            self._check(name, ok)
        return metrics, samples


def print_rows(title: str, rows) -> None:
    print(title)
    for name, key, value, unit, note in rows:
        alias = f" = {key}" if key and key != name else ""
        print(f"  {name:28s} {value:14.6g} {unit:10s} {note}{alias}")


def run_workload(args, spec: dict, threads: int) -> int:
    from workloads import WORKLOADS

    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names or args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(names)}", file=sys.stderr)
        return 2
    checkout.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-",
                                 dir=checkout.OUT))
    try:
        subprocess.run([sys.executable, str(Path(__file__).with_name("gen.py")),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--out", str(work / "inputs")],
                       check=True, timeout=GEN_TIMEOUT_S)
        wl = WORKLOADS[args.workload](work / "inputs", work, args.seed)
        run = Run(wl, bool(args.trace))
        run.setup()
        run.window(args.seconds)
        while len(run.setup_times) < SETUP_REPS:
            run.setup()
        if not run.samples[False] or (args.trace and not run.samples[True]):
            print("error: no call of the workload succeeded", file=sys.stderr)
            return 1
        run.final()
        if args.trace:
            declared = spec["per_layer"]
            metrics, samples = run.per_layer()
        else:
            declared = spec["end_to_end"]
            rows = run.end_to_end()
            metrics = {key: value for _, key, value, _, _ in rows if key}
        missing = [m["name"] for m in declared if m["name"] not in metrics]
        if missing:
            print(f"error: metrics not computed: {missing}", file=sys.stderr)
            return 1
        if args.trace:
            # sample counts behind the per-step times, not metrics
            per = ("per optimizer step" if samples["train.steps_traced"] else
                   "per inference batch" if samples["infer.batches_traced"] else
                   "per extract call")
            rows = [(name, None, n, "count", "sample count" + (
                        f"; times are {per}" if name == "traced calls" else ""))
                    for name, n in samples.items()]
            rows += [(m["name"], m["name"], metrics[m["name"]], m["unit"], "")
                     for m in declared]
        env = environment(args.seed, threads)
        mode = "traced" if args.trace else "untraced"
        print_rows(f"{args.workload} seed {args.seed} ({mode}, "
                   f"{args.seconds:g} s window)", rows)
        for name, ok in run.checks:
            if not ok:
                print(f"  FAILED CHECK: {name}")
        results = checkout.OUT / "results"
        results.mkdir(exist_ok=True)
        stem = f"{args.workload}-s{args.seed}-t{args.trace}"
        record = {"workload": args.workload, "mode": mode, "env": env,
                  "metrics": {name: {"value": value, "unit": unit, "samples": note}
                              for name, _, value, unit, note in rows},
                  "checks": run.checks,
                  "calls": {"untraced": run.samples[False],
                            "traced": run.samples[True]},
                  "setup_s": run.setup_times}
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if args.trace:
            run.rec.write(results / f"{stem}.spans.jsonl")
        print(f"environment: {json.dumps(env)}")
        print(f"detail: {results / (stem + '.json')}")
        print(json.dumps({
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in declared},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args, spec: dict) -> int:
    """Every workload in its own process, then one table."""
    results, status = {}, 0
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        results[w["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload")
    target.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    threads = pin_threads()
    try:
        checkout.use_source()
        spec = load_spec()
    except (checkout.MissingSourceError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args, spec)
    return run_workload(args, spec, threads)


if __name__ == "__main__":
    sys.exit(main())
