"""Span tracing for the traced run, done entirely from the benchmark's side.

``Tracer.install`` replaces each function in ``TRACED`` by a wrapper that
records a span, in every ``orthogen`` module namespace that holds the
function, so names bound with ``from ... import`` (``orthogen.cli.
assemble_matrix``, ``orthogen.transform.forward_2d`` inside
``compaction_report``) are traced where they are looked up. The program's
files are not touched. Spans stay in memory until the run ends.

A span is ``(name, start_ns, end_ns, parent, op, error, size)``; ``parent``
is the index of the enclosing span (-1 for none). A layer's self time is its
span's duration minus the durations of its child spans, which nest inside it
because every call is synchronous.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns

# (module, function, span name, what the span's size field holds: the length
# of the text returned or of the text argument, the transform size n, or 0)
TRACED = (
    ("presets", "preset_values", "presets.preset_values", None),
    ("core", "validate_values", "core.validate_values", None),
    ("core", "induct_basis", "core.induct_basis", None),
    ("core", "normalize_row", "core.normalize_row", None),
    ("core", "assemble_matrix", "core.assemble_matrix", None),
    ("linsolve", "solve", "linsolve.solve", None),
    ("quantize", "quantize_matrix", "quantize.quantize_matrix", None),
    ("transform", "forward_2d", "transform.forward_2d", "n"),
    ("transform", "inverse_2d", "transform.inverse_2d", "n"),
    ("transform", "compaction_report", "transform.compaction_report", None),
    ("io", "matrix_to_csv", "io.render", "result"),
    ("io", "int_matrix_to_csv", "io.render", "result"),
    ("io", "matrix_to_pretty", "io.render", "result"),
    ("io", "int_matrix_to_pretty", "io.render", "result"),
    ("io", "ortho_matrix_to_json", "io.render", "result"),
    ("io", "int_matrix_to_json", "io.render", "result"),
    ("io", "int_matrix_to_c_header", "io.render", "result"),
    ("io", "parse_matrix_csv", "io.parse", "arg"),
    ("io", "parse_matrix_json", "io.parse", "arg"),
    ("io", "read_matrix", "io.parse", None),
    ("io", "read_block", "io.read_block", None),
    ("cli", "main", "cli.main", None),
)

OP_SPAN = "op"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN]
        self.spans: list[tuple | None] = []
        self._stack: list[int] = [-1]
        self._op = -1
        self._restore: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def install(self, lib: dict, namespaces) -> None:
        """Wrap every ``TRACED`` function wherever a namespace in ``namespaces`` binds it."""
        for module, func, span, size_kind in TRACED:
            original = getattr(lib[module], func)
            wrapper = self._wrap(original, self._name_id(span), size_kind)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._restore.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._restore):
            setattr(ns, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name: int, size_kind: str | None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if size_kind == "arg":
                size = len(args[0])
            elif size_kind == "n":
                size = len(args[0].entries if hasattr(args[0], "entries") else args[0])
            else:
                size = 0
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op, type(exc).__name__, size)
                raise
            end = perf_counter_ns()
            stack.pop()
            if size_kind == "result":
                size = len(result)
            spans[index] = (name, start, end, parent, self._op, None, size)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_op(self, op: int) -> None:
        """Open the root span of one op; later spans become its children."""
        self._op = op
        self._stack.append(len(self.spans))
        self.spans.append(None)

    def end_op(self, start: int, end: int, error: str | None) -> None:
        index = self._stack.pop()
        self.spans[index] = (0, start, end, -1, self._op, error, 0)

    def set_op(self, op: int) -> None:
        """Attribute spans recorded outside any op span (e.g. in-process CLI runs) to ``op``."""
        self._op = op

    def layers(self) -> dict:
        """Per span name: calls, inclusive and self nanoseconds, summed size, errors by class."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "size": 0, "errors": {}})
        for i, (name, start, end, _parent, _op, error, size) in enumerate(self.spans):
            row = table[self.names[name]]
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[i]
            row["size"] += size
            if error is not None:
                row["errors"][error] = row["errors"].get(error, 0) + 1
        return dict(table)

    def covered_ns_by_op(self) -> dict[int, int]:
        """Time inside layer spans with no enclosing layer span, summed per op."""
        covered: dict[int, int] = defaultdict(int)
        for name, start, end, parent, op, *_ in self.spans:
            if name != 0 and (parent < 0 or self.spans[parent][0] == 0):
                covered[op] += end - start
        return dict(covered)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, error, size in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": self.names[name],
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "op": op,
                            "error": error,
                            "size": size,
                        }
                    )
                    + "\n"
                )


RAISED_CLASSES = ("SingularSystemError", "DegenerateValuesError", "ZeroRowError", "OddSizeError")
FIDELITY_SIZES = (2, 4, 8, 16, 32, 64, 128)
TRANSFORM_FUNCS = ("forward_2d", "inverse_2d", "compaction_report")
CLI_SAMPLES = ("interpreter_ms", "import_numpy_ms", "import_orthogen_ms", "import_other_ms")


def _median(np, values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def per_layer_metrics(workload, tracer, untraced, traced, np) -> dict:
    """Every per-layer metric, by name, as ``{"value", "unit"}``.

    Self times, call counts and sizes are per op of the traced phase; counts
    without "/op" are totals over it. Layers a workload does not reach read 0.
    """
    table = tracer.layers()
    ops = traced.attempted
    metrics: dict[str, dict] = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    def per_op(span, key="self_ns"):
        return table.get(span, {}).get(key, 0) / ops

    def errors(span):
        return table.get(span, {}).get("errors", {})

    put("presets.preset_values.self_us", per_op("presets.preset_values") / 1e3, "us")
    put("core.validate_values.self_us", per_op("core.validate_values") / 1e3, "us")
    put("core.normalize_row.self_us", per_op("core.normalize_row") / 1e3, "us")
    put("core.normalize_row.calls", per_op("core.normalize_row", "calls"), "calls/op")
    put("core.assemble_matrix.self_us", per_op("core.assemble_matrix") / 1e3, "us")
    put("core.induct_basis.self_ms", per_op("core.induct_basis") / 1e6, "ms")
    put("linsolve.solve.self_ms", per_op("linsolve.solve") / 1e6, "ms")
    put("linsolve.solve.calls", per_op("linsolve.solve", "calls"), "calls/op")
    put("linsolve.solve.singular", errors("linsolve.solve").get("SingularSystemError", 0), "count")
    raised = errors("core.assemble_matrix")
    for cls in RAISED_CLASSES:
        put(f"core.raised.{cls}", raised.get(cls, 0), "count")
    put("core.raised.other", sum(v for k, v in raised.items() if k not in RAISED_CLASSES), "count")
    put("core.nonfinite", traced.categories["nonfinite"], "count")
    put("core.wrong", traced.categories["wrong"], "count")
    put("core.correct_ratio", (ops - traced.failed) / ops, "ratio")
    warned = sum(workload.warnings.get(label, 0) * count for label, count in traced.case_ops.items())
    put("core.conditioning_warnings", warned, "count")
    for n in FIDELITY_SIZES:
        put(f"core.fidelity_residual.max.n{n}", workload.fidelity.get(n, 0.0), "1")

    for func in TRANSFORM_FUNCS:
        put(f"transform.{func}.self_us", per_op(f"transform.{func}") / 1e3, "us")
    put("transform.calls", sum(per_op(f"transform.{f}", "calls") for f in TRANSFORM_FUNCS), "calls/op")
    busy_ns = sum(table.get(f"transform.{f}", {}).get("self_ns", 0) for f in TRANSFORM_FUNCS)
    blocks = sum(table.get(f"transform.{f}", {}).get("calls", 0) for f in TRANSFORM_FUNCS[:2])
    put("transform.blocks_per_s", blocks / busy_ns * 1e9 if busy_ns else 0.0, "1/s")
    # 4 n^3 flops per forward or inverse call (two n x n products), over the
    # time inside those calls: computed from the sizes, not counted.
    kernel_ids = {tracer.names.index(f"transform.{f}") for f in TRANSFORM_FUNCS[:2] if f"transform.{f}" in tracer.names}
    flops = kernel_ns = 0
    for name, start, end, _parent, _op, _error, size in tracer.spans:
        if name in kernel_ids:
            flops += 4 * size**3
            kernel_ns += end - start
    put("transform.gflops_computed", flops / kernel_ns if kernel_ns else 0.0, "GFLOP/s")

    put("io.render.self_ms", per_op("io.render") / 1e6, "ms")
    put("io.render.bytes", per_op("io.render", "size"), "B/op")
    put("io.parse.self_ms", per_op("io.parse") / 1e6, "ms")
    put("io.parse.bytes", per_op("io.parse", "size"), "B/op")
    put("io.read_block.self_ms", per_op("io.read_block") / 1e6, "ms")
    put("quantize.quantize_matrix.self_us", per_op("quantize.quantize_matrix") / 1e3, "us")

    traced_ms = np.array(traced.latencies_ns, dtype=float) / 1e6
    samples = getattr(workload, "samples", {})
    main_id = tracer.names.index("cli.main") if "cli.main" in tracer.names else None
    main_ms = [(end - start) / 1e6 for name, start, end, *_ in tracer.spans if name == main_id]
    is_cli = bool(samples)
    put("cli.process_ms", _median(np, traced_ms) if is_cli else 0.0, "ms")
    for key in CLI_SAMPLES:
        put(f"cli.{key}", _median(np, samples.get(key, [])), "ms")
    put("cli.main_ms", _median(np, main_ms), "ms")

    p50_traced = float(np.percentile(traced.calibrated_ms(np)[0], 50))
    p50_untraced = float(np.percentile(untraced.calibrated_ms(np)[0], 50))
    put("trace.op_p50_cal_ms", p50_traced, "ms")
    put("trace.untraced_op_p50_cal_ms", p50_untraced, "ms")
    put("trace.overhead_ms", p50_traced - p50_untraced, "ms")
    if is_cli:
        # The layers of a CLI op: interpreter start, imports, and main().
        accounted = sum(metrics[f"cli.{k}"]["value"] for k in CLI_SAMPLES) + metrics["cli.main_ms"]["value"]
    else:
        accounted = sum(tracer.covered_ns_by_op().values()) / ops / 1e6
    put("trace.accounted_ms", accounted, "ms")
    # Benchmark code inside ops; for the CLI, process time no layer explains.
    put("trace.glue_ms", float(traced_ms.mean()) - accounted, "ms")
    put("trace.untraced_op_mean_ms", float(np.mean(untraced.latencies_ns)) / 1e6, "ms")
    put("trace.spans_per_op", len(tracer.spans) / ops, "count")
    return metrics


def write_outputs(tracer, per_layer, machine, stem) -> list[str]:
    """Spans as JSON lines and the per-layer table as JSON, next to each other."""
    stem.parent.mkdir(parents=True, exist_ok=True)
    spans_path = stem.with_name(stem.name + ".spans.jsonl")
    table_path = stem.with_name(stem.name + ".layers.json")
    tracer.write(spans_path)
    table_path.write_text(json.dumps({"machine": machine, "per_layer": per_layer, "spans": tracer.layers()}, indent=1) + "\n")
    return [str(spans_path), str(table_path)]
