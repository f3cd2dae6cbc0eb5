"""The four workloads: seeded inputs, one op, and the check of every op's output.

Each workload is driven closed loop by one caller: the next op starts when
the previous one has returned and been checked. Only ``run`` is timed.
``check`` returns ``None`` or a failure ``(category, reason)`` with category
``raised``, ``nonfinite`` or ``wrong``; nothing is filtered out.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import os
import re
import resource
import subprocess
import sys
import warnings
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

import calibrate
import checks
import inputs


@dataclass
class Case:
    label: str
    data: dict


class Workload:
    """``setup`` once (inputs, reference outputs, warm-up); then per op ``run`` and ``check``."""

    def __init__(self, lib, rng: np.random.Generator, workdir) -> None:
        self.lib = lib
        self.rng = rng
        self.workdir = workdir
        self.cases: list[Case] = []
        # n bucket -> largest finite fidelity residual of a checked matrix.
        self.fidelity: dict[int, float] = {}
        # case label -> ConditioningWarnings one op of that case emits.
        self.warnings: dict[str, int] = {}
        self._exact: dict[bytes, np.ndarray] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, case: Case):
        raise NotImplementedError

    def check(self, case: Case, output, error: Exception | None):
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def trace_extra(self, case: Case, op: int, tracer) -> None:
        """Per-op measurements a traced run adds outside the op's own timing."""

    def calibration(self) -> calibrate.Calibration:
        """Host-speed calibration for one phase, with the kernel that tracks this workload's ops."""
        return calibrate.Calibration()

    def known_defect(self, case: Case) -> bool:
        """Whether the seed program is documented to fail this case.

        Such failures still count in ``failed`` and are named; only a failure
        of any other case makes the run's result incorrect.
        """
        return False

    def check_generated(self, entries, values, preset):
        """Matrix checks, with the exact reference cached per value set."""
        n = 2 * len(values)
        exact = None
        if n <= checks.EXACT_MAX_N:
            key = np.asarray(values, dtype=float).tobytes()
            if key not in self._exact:
                self._exact[key] = checks.exact_matrix(values)
            exact = self._exact[key]
        failure, residual = checks.check_matrix(entries, values, preset, exact)
        if np.isfinite(residual):
            bucket = checks.n_bucket(n)
            self.fidelity[bucket] = max(self.fidelity.get(bucket, 0.0), residual)
        return failure


def raised(error: Exception) -> tuple[str, str]:
    return ("raised", f"{type(error).__name__}: {str(error)[:120]}")


class BuildWorkload(Workload):
    """One op: ``preset_values`` (preset cases) plus ``assemble_matrix``."""

    sizes: tuple[int, ...] = ()
    random_ms: tuple[int, ...] = ()

    def setup(self) -> None:
        for n in self.sizes:
            for name in checks.PRESET_NAMES:
                values = checks.reference_preset_values(name, n)
                self.cases.append(Case(f"{name} n={n}", {"preset": name, "n": n, "values": values}))
        for i, m in enumerate(self.random_ms):
            values = inputs.value_set(self.rng, m)
            self.cases.append(Case(f"random#{i} m={m}", {"preset": None, "n": 2 * m, "values": values}))
        # Deterministic outputs: an op whose output hashes like the last
        # checked output of its case gets that verdict without re-running
        # the references.
        self._verdicts: dict[str, tuple[bytes, tuple | None]] = {}
        for case in self.warm_up_cases():
            try:
                self.run(case)
            except Exception:
                pass

    def warm_up_cases(self) -> list[Case]:
        return self.cases

    def count_warnings(self, values) -> int:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.lib.core.validate_values(values)
        return sum(issubclass(w.category, self.lib.errors.ConditioningWarning) for w in caught)

    def run(self, case: Case):
        data = case.data
        if data["preset"] is not None:
            values = self.lib.presets.preset_values(data["preset"], data["n"])
        else:
            values = data["values"]
        return self.lib.core.assemble_matrix(values)

    def check(self, case: Case, output, error):
        if case.label not in self.warnings:
            self.warnings[case.label] = self.count_warnings(case.data["values"])
        if error is not None:
            return raised(error)
        entries = np.asarray(output.entries, dtype=float)
        key = hashlib.blake2b(entries.tobytes() + np.asarray(output.values, dtype=float).tobytes()).digest()
        cached = self._verdicts.get(case.label)
        if cached is not None and cached[0] == key:
            return cached[1]
        data = case.data
        failure = None
        if data["preset"] is not None:
            failure = checks.check_values(output.values, data["values"])
        if failure is None:
            failure = self.check_generated(entries, data["values"], data["preset"])
        self._verdicts[case.label] = (key, failure)
        return failure


class BuildSmall(BuildWorkload):
    # Codec-size tables; random sets as in acceptance criterion 05 (m <= 8).
    sizes = (2, 4, 8, 16)
    random_ms = tuple(m for m in range(1, 9) for _ in range(6))


class BuildLarge(BuildWorkload):
    # 30 sets with m at fixed quantiles of a density proportional to m^-3.5
    # on 16..64: cost grows like m^4, so an even spread of m would spend
    # nearly all the time at the top end, and the fewer cycles a run holds,
    # the fewer samples its percentiles are taken over. Whether a
    # random set with m below about 27 passes depends on its values; 30 of
    # them keep the share of passing ops close from seed to seed.
    sizes = (32, 64, 128)
    random_ms = tuple(
        int(round((16**-2.5 - u * (16**-2.5 - 64**-2.5)) ** (-1 / 2.5))) for u in (np.arange(30) + 0.5) / 30
    )

    # Cases with n <= 64 take at most about 0.1 s, the n = 128 ones about
    # 1.2 s, so a run holds only two to four cycles. Listing the light cases
    # LIGHT_REPEATS times per cycle gives the percentiles more samples.
    LIGHT_REPEATS = 4

    def setup(self) -> None:
        super().setup()
        self.cases = [c for c in self.cases for _ in range(self.LIGHT_REPEATS if c.data["n"] <= 64 else 1)]

    def warm_up_cases(self) -> list[Case]:
        return self.cases[:1]

    def known_defect(self, case: Case) -> bool:
        # The seed's failures here: fibonacci at n=32 and every preset at
        # n=64 and n=128 give a wrong matrix, NaN or SingularSystemError,
        # and many random sets fail on conditioning.
        data = case.data
        return data["preset"] is None or data["preset"] == "fibonacci" or data["n"] >= 64


def tiles(plane: np.ndarray, n: int) -> np.ndarray:
    """Split an (h, w) plane into its n x n tiles in raster order: (h*w/n^2, n, n)."""
    h, w = plane.shape
    return plane.reshape(h // n, n, w // n, n).transpose(0, 2, 1, 3).reshape(-1, n, n)


class BlockCodec(Workload):
    """One op: read a 10-bit PGM, transform every 8x8 (dct) and 16x16 (dtt)
    tile forward, report compaction, invert, then write the DCT coefficient
    plane as CSV and parse it back. The matrices are built in set-up."""

    # Twelve image shapes (multiples of 16) spread op latency over a range,
    # so the percentiles move smoothly, not by jumps between a few modes,
    # when the shared host's speed changes during a run. Every fourth image
    # is ASCII P2, the rest binary P5.
    SHAPES = ((32, 32), (32, 64), (48, 48), (64, 32), (48, 80), (64, 64),
              (80, 48), (64, 96), (80, 80), (96, 64), (96, 96), (112, 80))
    KEEP = 8

    def setup(self) -> None:
        self.transforms = [
            (n, self.lib.core.assemble_matrix(self.lib.presets.preset_values(name, n)).entries, name)
            for name, n in (("dct", 8), ("dtt", 16))
        ]
        self._matrix_failures = None  # checked at the first op, outside set-up time
        for i, (height, width) in enumerate(self.SHAPES):
            samples = inputs.image_10bit(self.rng, height, width)
            binary = i % 4 != 3
            path = self.workdir / f"image{i}.pgm"
            path.write_bytes(inputs.pgm_bytes(samples, binary))
            label = f"image#{i} {height}x{width} {'P5' if binary else 'P2'}"
            self.cases.append(Case(label, {"path": str(path), "samples": samples}))
        self.run(self.cases[0])

    def run(self, case: Case):
        lib = self.lib
        image = lib.io.read_block(case.data["path"])
        planes = []
        for n, matrix, _ in self.transforms:
            coeffs = np.empty_like(image)
            restored = np.empty_like(image)
            reports = []
            for r in range(0, image.shape[0], n):
                for c in range(0, image.shape[1], n):
                    tile = image[r : r + n, c : c + n]
                    coeff = lib.transform.forward_2d(matrix, tile)
                    reports.append(lib.transform.compaction_report(matrix, tile, self.KEEP))
                    restored[r : r + n, c : c + n] = lib.transform.inverse_2d(matrix, coeff)
                    coeffs[r : r + n, c : c + n] = coeff
            planes.append((coeffs, restored, reports))
        parsed = lib.io.parse_matrix_csv(lib.io.matrix_to_csv(planes[0][0]))
        return image, planes, parsed

    def check(self, case: Case, output, error):
        if error is not None:
            return raised(error)
        image, planes, parsed = output
        samples = case.data["samples"]
        if image.shape != samples.shape or not np.array_equal(image, samples):
            return ("wrong", "read_block samples differ from the encoded image")
        if self._matrix_failures is None:
            self._matrix_failures = [
                self.check_generated(matrix, checks.reference_preset_values(name, n), name)
                for n, matrix, name in self.transforms
            ]
        x_all = samples.astype(float)
        for (n, matrix, _), setup_failure, (coeffs, restored, reports) in zip(
            self.transforms, self._matrix_failures, planes
        ):
            if setup_failure is not None:
                return (setup_failure[0], f"n={n} matrix built in set-up: {setup_failure[1]}")
            if not (np.isfinite(coeffs).all() and np.isfinite(restored).all()):
                return ("nonfinite", f"n={n}: non-finite coefficients or samples")
            x, c = tiles(x_all, n), tiles(coeffs, n)
            expected = np.einsum("ij,tjk,lk->til", matrix, x, matrix)
            if np.abs(c - expected).max() > 1e-12 * n * n * max(1.0, np.abs(x).max()):
                return ("wrong", f"n={n}: coefficients differ from M X M^T")
            if np.abs(restored - x_all).max() > 1e-6:
                return ("wrong", f"n={n}: round trip error above 1e-6")
            energy_in = np.sum(x**2, axis=(1, 2))
            if (np.abs(np.sum(c**2, axis=(1, 2)) - energy_in) > 1e-9 * energy_in).any():
                return ("wrong", f"n={n}: energy not preserved within 1e-9 relative")
            failure = self._check_compaction(n, matrix, x, c, np.array(reports, dtype=float))
            if failure is not None:
                return failure
        dct_plane = planes[0][0]
        if parsed.shape != dct_plane.shape or (
            np.abs(parsed - dct_plane) > 5e-8 + 2.3e-16 * np.abs(dct_plane)
        ).any():
            return ("wrong", "CSV re-read differs from the coefficient plane by more than 5e-8")
        return None

    def _check_compaction(self, n, matrix, x, c, reports):
        flat = c.reshape(len(c), -1)
        order = np.argsort(-np.abs(flat), axis=1, kind="stable")[:, : self.KEEP]
        kept = np.zeros_like(flat)
        np.put_along_axis(kept, order, np.take_along_axis(flat, order, axis=1), axis=1)
        total = np.sum(flat**2, axis=1)
        retained = np.where(total == 0.0, 1.0, np.sum(kept**2, axis=1) / np.where(total == 0.0, 1.0, total))
        recon = np.einsum("ji,tjk,kl->til", matrix, kept.reshape(c.shape), matrix)
        mse = np.mean((x - recon) ** 2, axis=(1, 2))
        if np.abs(reports[:, 0] - retained).max() > 1e-12 or (
            np.abs(reports[:, 1] - mse) > 1e-9 * np.maximum(1.0, mse)
        ).any():
            return ("wrong", f"n={n}: compaction report differs from recomputation")
        return None


# CLI cases: exit code 0 except the invalid requests.
EXIT_BAD_INPUT = 2


class CliOneShot(Workload):
    """One op: one fresh ``python -m orthogen.cli`` process at n <= 16.

    Each case's expected stdout and exit code come from an in-process
    ``orthogen.cli.main(argv)`` run in set-up, whose output is checked
    against the references; every op must then match it byte for byte.
    """

    SIZES = (4, 8, 16)
    KEEP = 8

    def setup(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(self.lib.src))
        self.command = [sys.executable, "-m", "orthogen.cli"]
        self.child_rss_kb = 0
        self.samples: dict[str, list[float]] = {"interpreter_ms": [], "import_numpy_ms": [],
                                                "import_orthogen_ms": [], "import_other_ms": []}
        self._bare_imports: set[str] | None = None
        rng = self.rng

        def pick():
            return str(rng.choice(checks.PRESET_NAMES)), int(rng.choice(self.SIZES))

        # Twelve cases, so a 100-op run repeats each about eight times.
        for fmt in ("pretty", "csv", "json"):
            name, n = pick()
            self._add(f"generate {name} n={n} {fmt}",
                      ["generate", "--preset", name, "--size", str(n), "--format", fmt],
                      "generate", preset=name, n=n, fmt=fmt)
        m = int(rng.integers(2, 9))
        values = inputs.value_set(rng, m)
        self._add(f"generate values m={m} json",
                  ["generate", "--values", ",".join(repr(float(v)) for v in values), "--format", "json"],
                  "generate", preset=None, n=2 * m, fmt="json", values=values)
        for fmt, scale in (("c-header", "auto"), ("json", "128")):
            name, n = pick()
            self._add(f"quantize {name} n={n} {fmt} scale={scale}",
                      ["quantize", "--preset", name, "--size", str(n), "--scale", scale, "--format", fmt],
                      "quantize", preset=name, n=n, fmt=fmt, scale=scale)
        for fmt in ("csv", "json"):
            name, n = pick()
            path = self.workdir / f"verify.{fmt}"
            argv = ["verify", str(path)] + (["--tolerance", "5e-7"] if fmt == "csv" else [])
            self._add(f"verify {name} n={n} {fmt}", argv, "verify", preset=name, n=n, fmt=fmt, path=path)
        for i, (name, n, binary) in enumerate((("dct", 8, True), ("dtt", 16, False))):
            tile = inputs.image_10bit(rng, n, n)
            path = self.workdir / f"tile{i}.pgm"
            path.write_bytes(inputs.pgm_bytes(tile, binary))
            self._add(f"transform {name} n={n} {'P5' if binary else 'P2'} keep={self.KEEP}",
                      ["transform", "--preset", name, "--size", str(n), "--block", str(path), "--keep", str(self.KEEP)],
                      "transform", preset=name, n=n, tile=tile)
        self._add("invalid: duplicate values", ["generate", "--values", "0.5,0.25,0.5"], "invalid")
        self._add("invalid: odd size", ["generate", "--preset", "dct", "--size", "7"], "invalid")

        for case in self.cases:
            self._expect(case)
        self.run(self.cases[0])
        self.child_rss_kb = 0

    def _add(self, label, argv, kind, **data):
        data.update(argv=argv, kind=kind, code=EXIT_BAD_INPUT if kind == "invalid" else 0)
        self.cases.append(Case(label, data))

    def run_in_process(self, argv):
        out, err = stdio.StringIO(), stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lib.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def _reference(self, data):
        """The checked full-precision matrix for a case, or a failure."""
        values = data["values"] if data["preset"] is None else checks.reference_preset_values(data["preset"], data["n"])
        matrix = self.lib.core.assemble_matrix(values).entries
        return values, matrix, self.check_generated(matrix, values, data["preset"])

    def _expect(self, case: Case) -> None:
        """Run the case in process; its output is checked at the case's first op."""
        data = case.data
        if data["kind"] == "verify":
            # The file under test is a generate output, checked like one.
            source = Case(case.label, dict(data, kind="generate", argv=[
                "generate", "--preset", data["preset"], "--size", str(data["n"]), "--format", data["fmt"]]))
            code, text, _ = self.run_in_process(source.data["argv"])
            data["path"].write_text(text, encoding="utf-8")
            data["source"] = (source, code, text)
        code, text, err = self.run_in_process(data["argv"])
        self.warnings[case.label] = err.count("warning:")
        data.update(stdout=text.encode("utf-8"), in_process=(code, text))

    def _expected_failure(self, case: Case):
        """Check the set-up run's output once (never timed, never in set-up time)."""
        data = case.data
        if "failure" not in data:
            failure = None
            if "source" in data:
                failure = self._check_output(*data["source"])
            data["failure"] = failure or self._check_output(case, *data["in_process"])
        return data["failure"]

    def _check_output(self, case: Case, code: int, text: str):
        data = case.data
        if code != data["code"]:
            return ("wrong", f"in-process exit {code}, expected {data['code']}")
        kind = data["kind"]
        if kind == "invalid":
            return None if text == "" else ("wrong", "invalid request wrote to stdout")
        if kind == "verify":
            return self._check_verify(data, text)
        values, matrix, failure = self._reference(data)
        if failure is not None:
            return failure
        try:
            if kind == "generate":
                return self._check_generate(data, text, values, matrix)
            if kind == "quantize":
                return self._check_quantize(data, text, matrix)
            return self._check_transform(data, text, matrix)
        except (ValueError, KeyError, TypeError) as exc:
            return ("wrong", f"unparseable {kind} output: {exc}")

    def _check_generate(self, data, text, values, matrix):
        fmt = data["fmt"]
        if fmt == "json":
            payload = json.loads(text)
            if not np.allclose(payload["values"], values, rtol=1e-15, atol=0.0):
                return ("wrong", "JSON values differ from the input")
            return self.check_generated(np.array(payload["entries"], dtype=float), values, data["preset"])
        sep = "," if fmt == "csv" else None
        entries = np.array([[float(cell) for cell in line.split(sep)] for line in text.splitlines()])
        # Seven decimals round the checked matrix by at most 5e-8.
        if entries.shape != matrix.shape or np.abs(entries - matrix).max() > 5e-8 + 1e-15:
            return ("wrong", f"{fmt} table is not the checked matrix to 7 decimals")
        return None

    def _check_quantize(self, data, text, matrix):
        n = data["n"]
        scale = 64.0 * np.sqrt(n) if data["scale"] == "auto" else float(data["scale"])
        scaled = scale * matrix
        expected = np.copysign(np.floor(np.abs(scaled) + 0.5), scaled)
        if data["fmt"] == "json":
            payload = json.loads(text)
            if not np.isclose(payload["scale"], scale, rtol=1e-15):
                return ("wrong", "JSON scale differs")
            table = np.array(payload["entries"], dtype=float)
        else:
            rows = re.findall(r"\{([^{}]*)\}", text)
            table = np.array([[int(v) for v in re.findall(r"-?\d+", row)] for row in rows], dtype=float)
        if table.shape != (n, n) or not np.array_equal(table, expected):
            return ("wrong", "integer table differs from the rounded checked matrix")
        return None

    def _check_transform(self, data, text, matrix):
        lines = text.splitlines()
        split = next((i for i, line in enumerate(lines) if line.startswith("{")), len(lines))
        coeffs = np.array([[float(cell) for cell in line.split(",")] for line in lines[:split]])
        x = data["tile"].astype(float)
        expected = matrix @ x @ matrix.T
        n = data["n"]
        if coeffs.shape != expected.shape or np.abs(coeffs - expected).max() > 5e-8 + 1e-13 * n * n * np.abs(x).max():
            return ("wrong", "transform coefficients are not M X M^T to 7 decimals")
        report = json.loads("\n".join(lines[split:]))
        flat = expected.ravel()
        kept = np.zeros_like(flat)
        order = np.argsort(-np.abs(flat), kind="stable")[: self.KEEP]
        kept[order] = flat[order]
        retained = float(np.sum(kept**2) / np.sum(flat**2))
        mse = float(np.mean((x - matrix.T @ kept.reshape(expected.shape) @ matrix) ** 2))
        if (report["n"], report["keep"]) != (data["n"], self.KEEP) or abs(report["retained_energy_fraction"] - retained) > 1e-9 \
                or abs(report["reconstruction_mse"] - mse) > 1e-6 * max(1.0, mse):
            return ("wrong", "compaction report differs from recomputation")
        return None

    def _check_verify(self, data, text):
        match = re.search(r"orthogonality residual: (\S+)", text)
        if match is None or "PASS" not in text:
            return ("wrong", "verify did not report PASS")
        entries = self.lib.io.read_matrix(str(data["path"]))
        own = float(np.abs(entries @ entries.T - np.eye(len(entries))).max())
        if abs(float(match.group(1)) - own) > 1e-5 * own + 1e-300:
            return ("wrong", "verify residual differs from recomputation")
        return None

    def run(self, case: Case):
        proc = subprocess.Popen(self.command + case.data["argv"], stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, env=self.env, cwd=self.workdir)
        with proc.stdout:
            out = proc.stdout.read()
        # wait4 instead of wait, to get this child's own peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return proc.returncode, out

    def check(self, case: Case, output, error):
        if error is not None:
            return raised(error)
        data = case.data
        expected_failure = self._expected_failure(case)
        if expected_failure is not None:
            return (expected_failure[0], f"in-process output failed its check: {expected_failure[1]}")
        code, out = output
        if code != data["code"]:
            return ("wrong", f"exit {code}, expected {data['code']}")
        if out != data["stdout"]:
            return ("wrong", f"stdout ({len(out)} bytes) differs from in-process main ({len(data['stdout'])} bytes)")
        return None

    def peak_rss_kb(self) -> int:
        return self.child_rss_kb

    def calibration(self) -> calibrate.Calibration:
        return calibrate.Calibration(calibrate.spawn, calibrate.SPAWN_REF_MS)

    # Traced run: between ops, time the same argv through in-process main
    # (spans inside it give the layer split) and, on every fifth op, a bare
    # interpreter and an -X importtime run of the op's own command.
    def trace_extra(self, case: Case, op: int, tracer) -> None:
        tracer.set_op(op)
        self.run_in_process(case.data["argv"])
        if op % 5 == 0:
            start = perf_counter_ns()
            subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True)
            self.samples["interpreter_ms"].append((perf_counter_ns() - start) / 1e6)
        elif op % 5 == 2:
            if self._bare_imports is None:
                self._bare_imports = {name for _, _, _, name in self._importtime(["-c", "pass"])}
            rows = self._importtime(["-m", "orthogen.cli", *case.data["argv"]])
            # importtime prints a module's imports just before it, indented deeper.
            numpy_tree: set[int] = set()
            for i, (_, _, depth, name) in enumerate(rows):
                if name == "numpy":
                    numpy_tree.add(i)
                    j = i - 1
                    while j >= 0 and rows[j][2] > depth:
                        numpy_tree.add(j)
                        j -= 1
            numpy_us = sum(rows[i][0] for i in numpy_tree)
            orthogen_us = sum(s for s, _, _, name in rows if name.split(".")[0] == "orthogen")
            other_us = sum(s for i, (s, _, _, name) in enumerate(rows) if i not in numpy_tree
                           and name.split(".")[0] != "orthogen" and name not in self._bare_imports)
            self.samples["import_numpy_ms"].append(numpy_us / 1e3)
            self.samples["import_orthogen_ms"].append(orthogen_us / 1e3)
            self.samples["import_other_ms"].append(other_us / 1e3)

    def _importtime(self, args) -> list[tuple[int, int, int, str]]:
        """(self us, cumulative us, nesting depth, module) per line of ``-X importtime``."""
        proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, cwd=self.workdir)
        rows = []
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[0].strip().isdigit():
                name = parts[2].rstrip()
                depth = (len(name) - len(name.lstrip())) // 2
                rows.append((int(parts[0]), int(parts[1]), depth, name.strip()))
        return rows


WORKLOADS = {
    "build-small": BuildSmall,
    "build-large": BuildLarge,
    "block-codec": BlockCodec,
    "cli-oneshot": CliOneShot,
}
