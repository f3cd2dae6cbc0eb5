"""orthogen benchmark: one workload, one seed, every metric with its unit.

    python3 perfbench/run.py --workload build-small --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. Workloads: build-small, build-large,
block-codec, cli-oneshot (see perfbench/README.md). With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` a separate traced run
prints the per-layer metrics and writes its spans under .perfbench/. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
``failed`` counts every failed op; ``correct`` is false when an op fails
that is not one of the seed program's documented defects (build-large).

The timed phase runs in a fresh worker interpreter (perfbench/worker.py),
which starts set-up-only copies of itself during its pauses; one process
runs at a time, with BLAS limited to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("build-small", "build-large", "block-codec", "cli-oneshot")
DEADLINE_S = 170.0
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def launch(args) -> dict:
    """Start the worker, wait for it, and return its JSON result."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(SINGLE_THREAD)
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--started-ns", str(time.monotonic_ns()),
    ]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result: dict) -> dict:
    timed = result["timed"]
    return {
        "setup_s": metric(statistics.median(result["setups_cal_s"]), "s"),
        "op_p50_cal_ms": metric(timed["cal_p50_ms"], "ms"),
        "op_p90_cal_ms": metric(timed["cal_p90_ms"], "ms"),
        "ops_per_s_cal": metric(timed["cal_ops_per_s"], "1/s"),
        "correct_share": metric((timed["ops"] - timed["failed"]) / timed["ops"], "share"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
    }


def report(args, result: dict, metrics: dict) -> None:
    timed = result["timed"]
    print(f"orthogen perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in result["machine"].items()))
    ops, failed = timed["ops"], timed["failed"]
    rows = dict(metrics)
    counts = {}
    if not args.trace:
        # Unbounded: the raw figures, as a user would see them on this host.
        rows["setup_raw_s"] = metric(statistics.median(result["setups_s"]), "s")
        rows["op_p50_ms"] = metric(timed["p50_ms"], "ms")
        rows["op_p90_ms"] = metric(timed["p90_ms"], "ms")
        rows["ops_per_s"] = metric(timed["ops_per_s"], "1/s")
        rows["failed_share"] = metric(failed / ops, "share")
        latencies = f"{ops} ops over {timed['cases']} cases"
        calibrated = f"{latencies}, at the reference host speed"
        counts = {
            "setup_s": f"median of {len(result['setups_s'])} set-ups, at the reference host speed",
            "setup_raw_s": f"median of {len(result['setups_s'])} set-ups",
            "op_p50_cal_ms": calibrated,
            "op_p90_cal_ms": calibrated,
            "ops_per_s_cal": f"{ops} ops over their calibrated latencies",
            "op_p50_ms": latencies,
            "op_p90_ms": latencies,
            "ops_per_s": f"{ops} ops in {timed['wall_s']:.3f} s",
            "correct_share": f"{ops - failed} of {ops} ops",
            "failed_share": f"{failed} of {ops} ops, {timed['unexpected']} outside the known defects",
            "peak_rss_mb": "largest CLI child" if args.workload == "cli-oneshot" else "worker",
        }
    for name, m in rows.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<9} {counts.get(name, '')}")
    low, mid, high = timed["speed_factor"]
    print(f"calibration: kernel median {timed['kernel_ms']:.4f} ms over {timed['kernel_samples']} samples; "
          f"latencies scaled by {low:.3f}..{high:.3f} (median {mid:.3f})")
    if args.trace:
        print(f"traced half: {ops} ops, untraced half: {result['untraced']['ops']} ops; spans and table: "
              + ", ".join(os.path.relpath(p, ROOT) for p in result["trace_files"]))
        layers, glue = metrics["trace.accounted_ms"]["value"], metrics["trace.glue_ms"]["value"]
        untraced = metrics["trace.untraced_op_mean_ms"]["value"]
        print(f"accounting per op: layers {layers:.4f} ms + glue {glue:.4f} ms = {layers + glue:.4f} ms traced; "
              f"untraced mean {untraced:.4f} ms, so tracing adds {layers + glue - untraced:.4f} ms on average; "
              f"overhead at p50 {metrics['trace.overhead_ms']['value']:.4f} ms")
    failures: dict[str, list] = {}
    for label, category, reason, count in timed["failures"] + (result["untraced"]["failures"] if args.trace else []):
        failures.setdefault(label, [category, reason, 0])[2] += count
    if failures:
        print("failing cases (label: category, reason, ops):")
        for label, (category, reason, count) in sorted(failures.items()):
            print(f"  {label}: {category}, {reason}, {count}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "orthogen" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'orthogen'} not found; run from a full checkout", file=sys.stderr)
        return 2

    try:
        result = launch(args)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    phases = [result["timed"]] + ([result["untraced"]] if args.trace else [])
    attempted = sum(p["ops"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    unexpected = sum(p["unexpected"] for p in phases)
    metrics = result["per_layer"] if args.trace else end_to_end(result)
    report(args, result, metrics)
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
