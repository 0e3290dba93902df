"""Spans and counters for the traced run, recorded from outside the library.

``Tracer.install`` replaces each public entry point of the ``coversketch``
modules by a wrapper, in every module namespace that holds it: the package
re-exports, names imported by value (``distsim.element_hash_array``,
``solvers.build_sketch``, ``solvers.theory_params``, ...), and the
``CoverageInstance.from_edges`` classmethod, which sketch assembly reaches
through ``_assemble``.  Nothing under ``src/`` changes.

Spans (name, start, end, parent, op id) are kept in memory and written out
when the run ends.  A span is recorded only while an op is open, so set-up
and output checks leave no spans.  A layer is the part of a span name before
the first dot; ``perfbench`` is the op itself, so its self time is the
benchmark's own share of an op.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

import coversketch
from coversketch import cli, distsim, instance, sketch, solvers

MODULES = (coversketch, instance, sketch, solvers, distsim, cli)
LAYERS = ("instance", "sketch", "solvers", "distsim", "cli", "perfbench")
OP_SPAN = "perfbench.op"

# Every span name a traced run can record, in report order.
SPAN_NAMES = (
    "instance.generate", "instance.serialize", "instance.load",
    "instance.csr_build",
    "sketch.build", "sketch.hash", "sketch.params", "sketch.serialize",
    "sketch.weighted", "sketch.fractional", "sketch.probabilistic",
    "solvers.greedy", "solvers.lazy", "solvers.stochastic", "solvers.coverage",
    "solvers.outliers",
    "distsim.kcover", "distsim.setcover", "distsim.partition",
    "cli.generate", "cli.sketch", "cli.solve",
)

COUNTERS = (
    "instance.bytes_read", "instance.bytes_written", "instance.csr_build.calls",
    "instance.csr_build.edges", "instance.load.edges",
    "sketch.edges_in", "sketch.edges_out", "sketch.capped_elements",
    "sketch.clamped_builds", "sketch.copies",
    "solvers.lazy.evaluations", "solvers.lazy.picks",
    "distsim.messages", "distsim.message_units", "distsim.guess_count",
    "distsim.divergence", "distsim.max_load_units",
)


def _file_size(source) -> int | None:
    if isinstance(source, (str, Path)):
        return os.path.getsize(source)
    return None


def _on_load(count, args, kwargs, result):
    size = _file_size(args[0])
    count["instance.bytes_read"] += size if size is not None else len(args[0])
    count["instance.load.edges"] += result.edge_count


def _on_serialize(count, args, kwargs, result):
    sink = args[1] if len(args) > 1 else kwargs.get("sink")
    size = _file_size(sink)
    if size is None and isinstance(result, str):
        size = len(result.encode())
    count["instance.bytes_written"] += size or 0


def _on_csr_build(count, args, kwargs, result):
    count["instance.csr_build.calls"] += 1
    count["instance.csr_build.edges"] += result.edge_count


def _on_build_sketch(count, args, kwargs, result):
    inst, params = args[0], args[1]
    count["sketch.edges_in"] += inst.edge_count
    count["sketch.edges_out"] += result.instance.edge_count
    count["sketch.capped_elements"] += int(
        (inst.elem_degrees[result.selected_elements] > params.cap).sum())


def _on_transform(count, args, kwargs, result):
    count["sketch.edges_in"] += args[0].base.edge_count
    count["sketch.edges_out"] += result.instance.edge_count
    count["sketch.copies"] += result.original_m


def _on_theory_params(count, args, kwargs, result):
    edge_count = args[2] if len(args) > 2 else kwargs["edge_count"]
    count["sketch.clamped_builds"] += int(result.n_tilde == int(edge_count))


def _on_lazy(count, args, kwargs, result):
    count["solvers.lazy.evaluations"] += result.evaluations
    count["solvers.lazy.picks"] += len(result.chosen)


def _on_simulation(count, args, kwargs, result):
    report = result[1]
    count["distsim.messages"] += report.total_messages
    count["distsim.message_units"] += report.total_message_units
    count["distsim.guess_count"] += report.guess_count or 0
    count["distsim.divergence"] += int(report.divergence_flag)
    count["distsim.max_load_units"] = max(count["distsim.max_load_units"],
                                          report.max_load)


# (module, attribute, span name, counter hook)
TARGETS = (
    (instance, "generate_planted", "instance.generate", None),
    (instance, "serialize_edge_list", "instance.serialize", _on_serialize),
    (instance, "load_edge_list", "instance.load", _on_load),
    (sketch, "build_sketch", "sketch.build", _on_build_sketch),
    (sketch, "element_hash_array", "sketch.hash", None),
    (sketch, "theory_params", "sketch.params", _on_theory_params),
    (sketch, "serialize_sketch", "sketch.serialize", None),
    (sketch, "sketch_weighted", "sketch.weighted", _on_transform),
    (sketch, "sketch_fractional", "sketch.fractional", _on_transform),
    (sketch, "sketch_probabilistic", "sketch.probabilistic", _on_transform),
    (solvers, "greedy_kcover", "solvers.greedy", None),
    (solvers, "lazy_greedy", "solvers.lazy", _on_lazy),
    (solvers, "stochastic_greedy", "solvers.stochastic", None),
    (solvers, "coverage", "solvers.coverage", None),
    (solvers, "coverage_weighted", "solvers.coverage", None),
    (solvers, "coverage_fractional", "solvers.coverage", None),
    (solvers, "coverage_probabilistic", "solvers.coverage", None),
    (solvers, "select_outlier_solution", "solvers.outliers", None),
    (distsim, "run_kcover_mapreduce", "distsim.kcover", _on_simulation),
    (distsim, "run_setcover_mapreduce", "distsim.setcover", _on_simulation),
    (distsim, "partition_input", "distsim.partition", None),
)


def _cli_span_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return "cli." + argv[0]


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self.counts: dict[int, defaultdict] = {}
        self._stack: list[int] = []
        self._op: int | None = None
        self._restore: list[tuple] = []

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = [name(args, kwargs) if callable(name) else name,
                    time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, self._op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counts[self._op], args, kwargs, result)
            return result
        return traced

    def _replace_everywhere(self, original, replacement):
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        for mod, attr, name, hook in TARGETS:
            fn = getattr(mod, attr)
            self._replace_everywhere(fn, self._wrap(fn, name, hook))
        self._replace_everywhere(cli.main,
                                 self._wrap(cli.main, _cli_span_name, None))
        cls = instance.CoverageInstance
        raw = cls.__dict__["from_edges"]
        self._restore.append((cls, "from_edges", raw))
        cls.from_edges = classmethod(
            self._wrap(raw.__func__, "instance.csr_build", _on_csr_build))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def op(self, i: int):
        """Open op ``i``: its root span and a fresh set of counters."""
        self._op = i
        self.counts[i] = defaultdict(int)
        root = [OP_SPAN, time.perf_counter(), None, -1, i]
        self._stack.append(len(self.spans))
        self.spans.append(root)
        try:
            yield
        finally:
            root[2] = time.perf_counter()
            self._stack.pop()
            self._op = None

    def write(self, path: str, meta: dict):
        """Spans as JSON lines, after one line of run metadata."""
        with open(path, "w") as fh:
            fh.write(json.dumps(meta) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def per_op(self) -> dict[int, dict]:
        """Per op: its duration, busy and self seconds per span name, self
        seconds per layer, and its counters."""
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        ops: dict[int, dict] = {}
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            rec = ops.setdefault(op, {"busy": defaultdict(float),
                                      "self": defaultdict(float),
                                      "layer_self": defaultdict(float),
                                      "counts": self.counts[op]})
            own = end - start - child_time[idx]
            if name == OP_SPAN:
                rec["duration"] = end - start
            else:
                rec["busy"][name] += end - start
                rec["self"][name] += own
            rec["layer_self"][name.split(".", 1)[0]] += own
        return ops


def summarize(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: medians over ops of times and shares of the op;
    counters of the first op, which every run makes and which repeat exactly
    for a fixed seed."""
    ops = tracer.per_op()

    def median(fn):
        return statistics.median(fn(rec) for rec in ops.values())

    out: dict[str, tuple[float, str]] = {
        "op_p50_traced_s": (median(lambda r: r["duration"]), "s")}
    for name in SPAN_NAMES:
        out[f"{name}.busy_s"] = (median(lambda r: r["busy"][name]), "s")
        out[f"{name}.busy_share"] = (
            median(lambda r: r["busy"][name] / r["duration"]), "1")
    out["sketch.build.self_s"] = (median(lambda r: r["self"]["sketch.build"]),
                                  "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (median(lambda r: r["layer_self"][layer]), "s")
        out[f"{layer}.self_share"] = (
            median(lambda r: r["layer_self"][layer] / r["duration"]), "1")
    out["instance.load.edges_per_s"] = (median(
        lambda r: r["counts"]["instance.load.edges"] / r["busy"]["instance.load"]
        if r["busy"]["instance.load"] else 0.0), "edges/s")
    first = tracer.counts[min(tracer.counts)]
    for key in COUNTERS:
        out[key] = (float(first[key]), "count")
    evaluations = first["solvers.lazy.evaluations"]
    out["solvers.lazy.useful_ratio"] = (
        first["solvers.lazy.picks"] / evaluations if evaluations else 0.0, "1")
    return out
