"""Steadiness check: two sets of seeded runs per workload, judged against BENCHMARK.json.

    python3 perfbench/steady.py --out .perfbench/steady.json
    python3 perfbench/steady.py --workloads build-large

Set A uses seeds 1..10 and set B seeds 11..20; their runs alternate so
drift on a shared machine hits both sets alike. For each
end-to-end metric and set it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
then the drift of B's median from A's in the metric's worse direction. A
spread passes within the metric's bound and counts as
steady below a third of it; a drift passes within the bound. With
``--trace`` it adds one traced run per workload and its per-layer metrics.
Runs one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # per set; there are two sets


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["machine"] = next((line for line in lines if line.startswith("machine: ")), "")
    return result


def describe(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", help="comma-separated subset (default: all in BENCHMARK.json)")
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path, help="write the full report as JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "runs_per_set": RUNS, "workloads": {}}
    all_ok = True
    for workload in names:
        sets = [[], []]
        for i in range(RUNS):
            for s, runs in enumerate(sets):
                runs.append(bench(workload, 1 + s * RUNS + i, seconds, 0))
        entry = {"machine": sets[0][0]["machine"], "metrics": {},
                 "failed_share": [r["failed"] / r["attempted"] for r in sets[0]]}
        print(f"{workload}: failed_share {statistics.median(entry['failed_share']):.4f}, "
              f"correct {sorted({r['correct'] for run in sets for r in run})}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [describe([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            row = {"unit": m["unit"], "bound": bound, "sets": stats}
            line = f"  {name:<13} bound {bound:.2f}"
            for label, st in zip("AB", stats):
                ok = st["spread"] <= bound
                all_ok &= ok
                flag = "" if st["spread"] < bound / 3 else (" (above bound/3)" if ok else " FAIL")
                line += (f" | {label}: median {st['median']:.6g} q1 {st['q1']:.6g} q3 {st['q3']:.6g}"
                         f" spread {st['spread']:.4f}{flag}")
            a, b = stats[0]["median"], stats[1]["median"]
            drift = (b - a) / a if m["better"] == "lower" else (a - b) / a
            row["drift"] = drift
            all_ok &= drift <= bound
            line += f" | drift {drift:+.4f}{'' if drift <= bound else ' FAIL'}"
            entry["metrics"][name] = row
            print(line)
        if args.trace:
            traced = bench(workload, 1, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
        sys.stdout.flush()
    report["verdict"] = "pass" if all_ok else "fail"
    print(f"verdict: {report['verdict']}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
