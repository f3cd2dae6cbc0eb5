"""One benchmark worker process: set up a workload, then run its timed phase.

run.py starts this interpreter, and it starts set-up-only copies of itself
during the timed phase; each gets the monotonic clock reading taken just
before its start, so ``setup_s`` covers interpreter start-up,
``import orthogen``, input generation and warm-up, up to the first timed op.
The worker prints its result as one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import calibrate

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
# Every run has at least this many ops, so p90 has ten samples beyond it.
MIN_OPS = 100
# Set-ups per untraced run, setup_s being their median: the worker's own
# and set-up-only workers started at even steps of, and at the end of, the
# timed phase. One process runs at a time.
SETUP_SAMPLES = 7


def load_lib() -> SimpleNamespace:
    """Import orthogen from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    package = src / "orthogen"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no orthogen package at {package}")
    sys.path.insert(0, str(src))
    import orthogen
    from orthogen import cli, core, errors, io, linsolve, presets, quantize, transform

    if Path(orthogen.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported orthogen from {orthogen.__file__}, not {package}")
    return SimpleNamespace(
        cli=cli, core=core, errors=errors, io=io, linsolve=linsolve,
        presets=presets, quantize=quantize, transform=transform, src=src,
    )


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, found among this process's mapped libraries."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine_record(np) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Phase:
    """Latencies and verdicts of the ops of one timed phase.

    Latencies are kept raw; ``summary`` also gives them at the reference
    host speed (see calibrate.py), which is what the bounded metrics use.
    """

    def __init__(self, calibration: calibrate.Calibration) -> None:
        self.starts_ns: list[int] = []
        self.latencies_ns: list[int] = []
        self.categories: Counter = Counter()
        self.failures: dict[str, list] = {}  # label -> [category, first reason, count]
        self.case_ops: Counter = Counter()
        self.unexpected = 0  # failed ops of cases the workload does not list as known defects
        self.wall_s = 0.0  # wall time of the timed phase, pauses between ops excluded
        self.calibration = calibration

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    @property
    def failed(self) -> int:
        return sum(self.categories.values())

    def record(self, label: str, start_ns: int, latency_ns: int, failure, known_defect: bool) -> None:
        self.starts_ns.append(start_ns)
        self.latencies_ns.append(latency_ns)
        self.case_ops[label] += 1
        if failure is not None:
            self.categories[failure[0]] += 1
            self.unexpected += not known_defect
            entry = self.failures.setdefault(label, [failure[0], failure[1], 0])
            entry[2] += 1

    def calibrated_ms(self, np):
        """Each op's latency at the reference host speed, and the factors used."""
        lat = np.array(self.latencies_ns, dtype=float)
        factors = self.calibration.factors(np.array(self.starts_ns) + lat / 2)
        return lat * factors / 1e6, factors

    def summary(self, np) -> dict:
        lat_ms = np.array(self.latencies_ns, dtype=float) / 1e6
        cal_ms, factors = self.calibrated_ms(np)
        return {
            "ops": self.attempted,
            "cases": len(self.case_ops),
            "failed": self.failed,
            "unexpected": self.unexpected,
            "cal_p50_ms": float(np.percentile(cal_ms, 50)),
            "cal_p90_ms": float(np.percentile(cal_ms, 90)),
            "cal_ops_per_s": self.attempted / float(cal_ms.sum()) * 1e3,
            "p50_ms": float(np.percentile(lat_ms, 50)),
            "p90_ms": float(np.percentile(lat_ms, 90)),
            "ops_per_s": self.attempted / self.wall_s,
            "wall_s": self.wall_s,
            "kernel_ms": float(np.median(self.calibration.ms)),
            "kernel_samples": len(self.calibration.ms),
            "speed_factor": [float(np.min(factors)), float(np.median(factors)), float(np.max(factors))],
            "categories": dict(self.categories),
            "failures": [[label, *entry] for label, entry in sorted(self.failures.items())],
        }


def run_cycle(workload, order_rng, phase: Phase, tracer=None, pause=None) -> None:
    """One closed-loop pass over every case, in a fresh shuffled order.

    Checks and calibration bursts run between ops and are not timed.
    ``pause(active_s)`` is called after each op with the phase's wall time
    so far and returns the seconds it spent; that time, and the time of the
    calibration bursts, is left out of the phase's wall time.
    """
    cycle_started = time.perf_counter()
    paused = 0.0
    for index in order_rng.permutation(len(workload.cases)):
        case = workload.cases[index]
        op = phase.attempted
        error = output = None
        if tracer is not None:
            tracer.begin_op(op)
        t0 = time.perf_counter_ns()
        try:
            output = workload.run(case)
        except Exception as exc:  # a raising op is a counted failure, not the end of the run
            error = exc
        t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.end_op(t0, t1, None if error is None else type(error).__name__)
        try:
            failure = workload.check(case, output, error)
        except Exception as exc:  # output the checks cannot even read is wrong output
            failure = ("wrong", f"unreadable output: {type(exc).__name__}: {exc}")
        phase.record(case.label, t0, t1 - t0, failure, workload.known_defect(case))
        if tracer is not None:
            workload.trace_extra(case, op, tracer)
        paused += phase.calibration.between_ops()
        if pause is not None:
            paused += pause(phase.wall_s + time.perf_counter() - cycle_started - paused)
    phase.wall_s += time.perf_counter() - cycle_started - paused


def finished(active_s: float, cycle_s: float, ops: int, seconds: float) -> bool:
    """Stop at the cycle boundary nearest to ``seconds``, once MIN_OPS ops are done.

    Whole cycles keep the case mix, and so the percentiles, the same from
    run to run.
    """
    return ops >= MIN_OPS and active_s + cycle_s / 2 >= seconds


def sample_setup(args) -> float:
    """Set the workload up once more in a fresh interpreter; return its setup_s."""
    started = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--started-ns", str(started), "--setup-only"],
        stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_phase(workload, order_rng, seconds: float, sample) -> tuple[Phase, list[float]]:
    """The timed phase, with ``sample()`` set-ups taken at even steps of it.

    The host's speed drifts over tens of seconds, so set-up samples spread
    over the whole run vary less from run to run than back-to-back ones.
    """
    phase = Phase(workload.calibration())
    # SETUP_SAMPLES - 2 pauses inside the phase; one sample more at its end.
    marks = [seconds * k / (SETUP_SAMPLES - 1) for k in range(1, SETUP_SAMPLES - 1)]
    setups: list[tuple[int, float]] = []  # (perf_counter_ns when it ended, setup_s)

    def take() -> None:
        value = sample()
        setups.append((time.perf_counter_ns(), value))

    def pause(active_s: float) -> float:
        if not marks or active_s < marks[0]:
            return 0.0
        marks.pop(0)
        t0 = time.perf_counter()
        take()
        return time.perf_counter() - t0

    while True:
        before = phase.wall_s
        run_cycle(workload, order_rng, phase, pause=pause)
        if finished(phase.wall_s, phase.wall_s - before, phase.attempted, seconds):
            break
    for _ in range(len(marks) + 1):
        take()
    return phase, setups


def traced_run(workload, order_rng, seconds: float, tracing):
    """Alternate untraced and traced cycles, so drift on a shared machine
    lands on both sides of the tracing-overhead difference alike."""
    untraced, traced = Phase(workload.calibration()), Phase(workload.calibration())
    tracer = tracing.Tracer()
    lib = vars(workload.lib)
    namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "orthogen"]
    while True:
        before = untraced.wall_s + traced.wall_s
        run_cycle(workload, order_rng, untraced)
        tracer.install(lib, namespaces)
        try:
            run_cycle(workload, order_rng, traced, tracer)
        finally:
            tracer.uninstall()
        active = untraced.wall_s + traced.wall_s
        if finished(active, active - before, min(untraced.attempted, traced.attempted), seconds):
            break
    return untraced, traced, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started-ns", type=int, required=True, help="time.monotonic_ns() when the launcher started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    lib = load_lib()
    import numpy as np

    import workloads

    warnings.simplefilter("ignore", lib.errors.ConditioningWarning)
    # NumPy's overflow warnings from the known-defect cases; their outputs are checked.
    warnings.simplefilter("ignore", RuntimeWarning)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        input_rng, order_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(args.seed).spawn(2))
        workload = workloads.WORKLOADS[args.workload](lib, input_rng, workdir)
        workload.setup()
        setup_s = (time.monotonic_ns() - args.started_ns) / 1e9
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        own_setup = (time.perf_counter_ns(), setup_s)
        result = {"machine": machine_record(np)}
        if args.trace:
            import tracing

            untraced, traced, tracer = traced_run(workload, order_rng, args.seconds, tracing)
            result["untraced"] = untraced.summary(np)
            result["timed"] = traced.summary(np)
            result["per_layer"] = tracing.per_layer_metrics(workload, tracer, untraced, traced, np)
            stem = OUT_DIR / f"trace-{args.workload}-seed{args.seed}"
            result["trace_files"] = tracing.write_outputs(tracer, result["per_layer"], result["machine"], stem)
        else:
            phase, setups = run_phase(workload, order_rng, args.seconds, lambda: sample_setup(args))
            result["timed"] = phase.summary(np)
            at_ns, raw = zip(own_setup, *setups)
            result["setups_s"] = list(raw)
            result["setups_cal_s"] = (np.array(raw) * phase.calibration.factors(np.array(at_ns))).tolist()
        result["peak_rss_mb"] = workload.peak_rss_kb() / 1024.0
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
