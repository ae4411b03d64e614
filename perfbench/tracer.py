"""Span tracer that instruments cellgraph from outside the package.

`install()` replaces each traced function with a wrapper at every
``cellgraph`` module that binds it (``spmm``, for one, is bound in
``linalg``, ``autodiff``, ``convnet`` and the package root), and replaces
traced methods on their classes. Spans (name, start, end, parent) and
per-span ``tracemalloc`` peaks are kept in memory and written once, when the
traced process ends. `layer_metrics()` turns a written trace into the
per-layer metrics of the benchmark.

A traced name that the package no longer defines is reported as absent; it
is not an error, so the benchmark keeps working after a refactor moves or
deletes a function.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
import weakref

# spmm counts as "dense" when its operator has at most this many entries,
# the size below which a BLAS product of the densified operator is cheaper
# than the CSR kernel. Classified from the operand's shape only.
DENSE_SPMM_LIMIT = 1 << 22

MB = 1024.0 * 1024.0

# spans inside which memory is traced, and spans inside which it is not
PEAK_SPANS = frozenset({"linalg.spmm.csr", "linalg.spmm.dense",
                        "tasks.match_inference", "metrics.knn_graph"})
PAUSED_SPANS = frozenset({"assignment.solve"})

TAPE_OPS = ("matmul", "spmm_const", "group_norm", "dropout",
            "cross_entropy_rows", "l2_normalize_rows", "scalar_mix")


class Tracer:
    """Nested spans with parent links, counters and per-span memory peaks.

    tracemalloc slows pure-Python code by an order of magnitude, so memory
    is traced only inside the spans in PEAK_SPANS (numpy-bound code) and is
    paused inside PAUSED_SPANS. Other spans record a peak of 0.
    """

    def __init__(self):
        # each span: [id, parent id, name, start, end, peak bytes, attrs]
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        # [span, bytes at entry, running peak, tracing toggle]
        self._stack: list[list] = []
        self._offset = 0  # traced bytes held when tracing was paused

    # -- spans -------------------------------------------------------------

    def _memory(self) -> tuple[int, int]:
        if not tracemalloc.is_tracing():
            return self._offset, self._offset
        current, peak = tracemalloc.get_traced_memory()
        return current + self._offset, peak + self._offset

    def enter(self, name: str, attrs: dict | None = None) -> list:
        current, peak = self._memory()
        parent = None
        if self._stack:
            top = self._stack[-1]
            top[2] = max(top[2], peak)
            parent = top[0][0]
        toggle = None
        if name in PEAK_SPANS and not tracemalloc.is_tracing():
            tracemalloc.start(1)
            self._offset = current = 0
            toggle = "start"
        elif name in PAUSED_SPANS and tracemalloc.is_tracing():
            self._offset = current
            tracemalloc.stop()
            toggle = "pause"
        elif tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        span = [len(self.spans), parent, name, time.monotonic(), None, 0,
                attrs]
        self.spans.append(span)
        traced = toggle == "start" or (toggle is None
                                       and tracemalloc.is_tracing())
        self._stack.append([span, current if traced else None, current,
                            toggle])
        return span

    def exit(self):
        span, at_entry, running, toggle = self._stack.pop()
        span[4] = time.monotonic()
        _, peak = self._memory()
        peak = max(running, peak)
        if at_entry is not None:
            span[5] = peak - at_entry
        if toggle == "start":
            tracemalloc.stop()
        elif toggle == "pause":
            tracemalloc.start(1)
        elif tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        if self._stack:
            top = self._stack[-1]
            top[2] = max(top[2], peak)

    def wrap(self, fn, name, describe=None, after=None):
        """Wrap fn in a span. describe(*args) may return (name, attrs);
        after(span, result, *args) runs once the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name, attrs = (name, None)
            if describe is not None:
                span_name, attrs = describe(*args, **kwargs)
            span = self.enter(span_name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(span, result, *args, **kwargs)
            return result

        return traced

    def count(self, name: str, amount: float = 1.0):
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def count_max(self, name: str, value: float):
        self.counters[name] = max(self.counters.get(name, 0.0), value)

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters,
                "absent": self.absent}


def _owned_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == "cellgraph" or name.startswith("cellgraph."))]


def _rebind(original, replacement):
    """Point every cellgraph module binding `original` at `replacement`."""
    for mod in _owned_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def _lookup(module: str, path: str):
    """(owner, attribute, current value) or None when the name is absent."""
    owner = sys.modules.get(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    if isinstance(owner, type):
        value = owner.__dict__.get(parts[-1])
    else:
        value = getattr(owner, parts[-1], None)
    if value is None:
        return None
    return owner, parts[-1], value


def patch(module: str, path: str, make) -> bool:
    """Replace `module.path` by make(original) wherever it is bound.

    path is a function name or Class.method; returns False when absent.
    """
    found = _lookup(module, path)
    if found is None:
        return False
    owner, attr, original = found
    replacement = make(original)
    if isinstance(owner, type):
        setattr(owner, attr, replacement)
    else:
        _rebind(original, replacement)
    return True


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


def install(tracer: Tracer):
    """Instrument the already-imported cellgraph package."""
    import cellgraph.cli  # noqa: F401  (binds every module the CLI uses)

    t = tracer
    # SparseMatrix is an unhashable dataclass, so selectors (and their
    # transposes) are remembered by id and checked through a weak reference
    selectors: dict[int, weakref.ref] = {}
    tapes: list[weakref.ref] = []

    def span(name, describe=None, after=None):
        return lambda fn: t.wrap(fn, name, describe, after)

    def mark_selector(matrix):
        selectors[id(matrix)] = weakref.ref(matrix)
        return matrix

    def is_selector(matrix) -> bool:
        ref = selectors.get(id(matrix))
        return ref is not None and ref() is matrix

    def describe_spmm(a, b, *args, **kwargs):
        dense = a.n_rows * a.n_cols <= DENSE_SPMM_LIMIT
        attrs = {"madds": int(a.nnz) * int(b.shape[1])}
        if is_selector(a):
            attrs["selector"] = 1
        return ("linalg.spmm.dense" if dense else "linalg.spmm.csr"), attrs

    def transpose_after(span_, result, matrix, *args, **kwargs):
        if is_selector(matrix):
            mark_selector(result)

    def count_tapes_alive(*args, **kwargs):
        tapes[:] = [ref for ref in tapes if ref() is not None]
        t.count_max("autodiff.tapes_alive.max", len(tapes))
        return "autodiff.adam_step", None

    def counted(counter, measure):
        return lambda span_, result, *a, **k: t.count(counter,
                                                      measure(result, *a))

    def bytes_written(span_, result, obj, path, *a, **k):
        t.count("data.bytes_written", _file_bytes(path))

    def selector_maker(fn):
        return lambda *a, **k: mark_selector(fn(*a, **k))

    def tape_init(fn):
        def init(self, *a, **k):
            fn(self, *a, **k)
            tapes.append(weakref.ref(self))
        return init

    def backward_after(span_, result, tape, *a, **k):
        t.count("autodiff.tape.nodes", len(tape.nodes))

    def solve_after(span_, result, problem, *a, **k):
        t.count_max("assignment.solve.max_side", max(problem.profits.shape))
        t.count("assignment.partial", int(bool(result.partial)))

    def filter_after(span_, result, *a, **k):
        t.count("assignment.kept", float(result.sum()))
        t.count("assignment.entries", float(result.size))

    def run_training(fn):
        def traced(store, train_epoch, validate, *a, **k):
            return t.wrap(fn, "tasks.train")(
                store, t.wrap(train_epoch, "autodiff.forward"),
                t.wrap(validate, "tasks.validate"), *a, **k)
        return traced

    targets = [
        ("cellgraph.linalg", "spmm", span("", describe_spmm)),
        ("cellgraph.linalg", "truncated_svd", span("linalg.truncated_svd")),
        ("cellgraph.linalg", "tfidf", span("linalg.tfidf")),
        ("cellgraph.linalg", "SparseMatrix.__post_init__",
         span("linalg.SparseMatrix.init")),
        ("cellgraph.linalg", "SparseMatrix.transpose",
         span("linalg.SparseMatrix.transpose", after=transpose_after)),
        ("cellgraph.graph", "build_bipartite", span("graph.build_bipartite")),
        ("cellgraph.graph", "CellFeatureGraph.operators",
         span("graph.operators")),
        ("cellgraph.graph", "augment_with_pathways",
         span("graph.augment_with_pathways",
              after=counted("graph.ff_edges", lambda g, *a: len(g.ff_i)))),
        ("cellgraph.convnet", "forward", span("convnet.forward")),
        ("cellgraph.convnet", "decoupled_propagate",
         span("convnet.decoupled_propagate")),
        ("cellgraph.autodiff", "Tape.__init__", tape_init),
        ("cellgraph.autodiff", "Tape.backward",
         span("autodiff.backward", after=backward_after)),
        ("cellgraph.autodiff", "adam_step",
         span("", count_tapes_alive)),
        ("cellgraph.autodiff", "save_checkpoint",
         span("autodiff.save_checkpoint", after=bytes_written)),
        ("cellgraph.tasks.common", "selector_matrix", selector_maker),
        ("cellgraph.tasks.common", "run_training", run_training),
        ("cellgraph.tasks.common", "write_run_log",
         span("data.write", after=bytes_written)),
        ("cellgraph.tasks.prediction", "PredictionModel.predict",
         span("tasks.infer")),
        ("cellgraph.tasks.matching", "MatcherModel.infer",
         span("tasks.infer")),
        ("cellgraph.tasks.embedding", "EmbedModel.embed",
         span("tasks.infer")),
        ("cellgraph.tasks.matching", "match_inference",
         span("tasks.match_inference")),
        ("cellgraph.tasks.matching", "score_probabilities",
         span("tasks.score_probabilities")),
        ("cellgraph.assignment", "solve",
         span("assignment.solve", after=solve_after)),
        ("cellgraph.assignment", "percentile_filter",
         span("assignment.percentile_filter", after=filter_after)),
        ("cellgraph.metrics", "knn_graph", span("metrics.knn_graph")),
        ("cellgraph.metrics", "louvain", span("metrics.louvain")),
        ("cellgraph.metrics", "KnnGraph.undirected_edges",
         span("metrics.undirected_edges")),
        ("cellgraph.metrics", "graph_connectivity",
         span("metrics.graph_connectivity")),
        ("cellgraph.metrics", "cell_type_asw", span("metrics.silhouette")),
        ("cellgraph.metrics", "batch_asw", span("metrics.silhouette")),
        ("cellgraph.metrics", "pseudotime_from_root",
         span("metrics.pseudotime_from_root")),
        ("cellgraph.metrics", "cell_cycle_conservation",
         span("metrics.cell_cycle_conservation")),
        ("cellgraph.metrics", "write_report",
         span("data.write", after=bytes_written)),
        ("cellgraph.data", "load_dataset",
         span("data.load_dataset", after=counted(
             "data.bytes_read",
             lambda ds, d, *a: _file_bytes(*(os.path.join(d, f)
                                             for f in os.listdir(d)))))),
        ("cellgraph.data", "load_gene_sets",
         span("data.load_gene_sets", after=counted(
             "data.bytes_read", lambda sets, *paths: _file_bytes(*paths)))),
        ("cellgraph.data", "write_dense_matrix",
         span("data.write", after=bytes_written)),
        ("cellgraph.data", "write_kv",
         span("data.write", after=bytes_written)),
        ("cellgraph.cli", "_metric_suite", span("cli.metric_suite")),
    ]
    targets += [("cellgraph.autodiff", f"Tape.{op}", span(f"autodiff.op.{op}"))
                for op in TAPE_OPS]
    for module, path, make in targets:
        if not patch(module, path, make):
            tracer.absent.append(f"{module}.{path}")


# ---------------------------------------------------------------------------
# per-layer metrics from a written trace

# (metric, unit, span name, what): "calls" counts spans, "s" sums their
# inclusive durations, "peak_mb" is the largest per-span tracemalloc peak
SPAN_METRICS = [
    ("linalg.spmm.csr.calls", "count", "linalg.spmm.csr", "calls"),
    ("linalg.spmm.csr.s", "s", "linalg.spmm.csr", "s"),
    ("linalg.spmm.dense.calls", "count", "linalg.spmm.dense", "calls"),
    ("linalg.spmm.dense.s", "s", "linalg.spmm.dense", "s"),
    ("linalg.truncated_svd.calls", "count", "linalg.truncated_svd", "calls"),
    ("linalg.truncated_svd.s", "s", "linalg.truncated_svd", "s"),
    ("linalg.tfidf.s", "s", "linalg.tfidf", "s"),
    ("linalg.SparseMatrix.init.calls", "count", "linalg.SparseMatrix.init",
     "calls"),
    ("linalg.SparseMatrix.init.s", "s", "linalg.SparseMatrix.init", "s"),
    ("graph.build_bipartite.s", "s", "graph.build_bipartite", "s"),
    ("graph.operators.s", "s", "graph.operators", "s"),
    ("graph.augment_with_pathways.s", "s", "graph.augment_with_pathways",
     "s"),
    ("convnet.forward.s", "s", "convnet.forward", "s"),
    ("convnet.decoupled_propagate.s", "s", "convnet.decoupled_propagate",
     "s"),
    ("autodiff.forward.s", "s", "autodiff.forward", "s"),
    ("autodiff.backward.s", "s", "autodiff.backward", "s"),
    ("autodiff.adam_step.s", "s", "autodiff.adam_step", "s"),
    ("autodiff.save_checkpoint.s", "s", "autodiff.save_checkpoint", "s"),
    ("tasks.epochs", "count", "autodiff.forward", "calls"),
    ("tasks.validate.s", "s", "tasks.validate", "s"),
    ("tasks.infer.s", "s", "tasks.infer", "s"),
    ("tasks.match_inference.s", "s", "tasks.match_inference", "s"),
    ("tasks.match_inference.peak_mb", "MB", "tasks.match_inference",
     "peak_mb"),
    ("tasks.score_probabilities.s", "s", "tasks.score_probabilities", "s"),
    ("assignment.solve.calls", "count", "assignment.solve", "calls"),
    ("assignment.solve.s", "s", "assignment.solve", "s"),
    ("assignment.percentile_filter.s", "s", "assignment.percentile_filter",
     "s"),
    ("metrics.knn_graph.calls", "count", "metrics.knn_graph", "calls"),
    ("metrics.knn_graph.s", "s", "metrics.knn_graph", "s"),
    ("metrics.knn_graph.peak_mb", "MB", "metrics.knn_graph", "peak_mb"),
    ("metrics.louvain.calls", "count", "metrics.louvain", "calls"),
    ("metrics.louvain.s", "s", "metrics.louvain", "s"),
    ("metrics.undirected_edges.calls", "count", "metrics.undirected_edges",
     "calls"),
    ("metrics.graph_connectivity.s", "s", "metrics.graph_connectivity", "s"),
    ("metrics.silhouette.s", "s", "metrics.silhouette", "s"),
    ("metrics.pseudotime_from_root.s", "s", "metrics.pseudotime_from_root",
     "s"),
    ("metrics.cell_cycle_conservation.s", "s",
     "metrics.cell_cycle_conservation", "s"),
    ("cli.metric_suite.s", "s", "cli.metric_suite", "s"),
    ("data.load_dataset.s", "s", "data.load_dataset", "s"),
    ("data.write.s", "s", "data.write", "s"),
] + [
    metric
    for op in TAPE_OPS
    for metric in ((f"autodiff.op.{op}.calls", "count", f"autodiff.op.{op}",
                    "calls"),
                   (f"autodiff.op.{op}.s", "s", f"autodiff.op.{op}", "s"))
]

# counters kept by the tracer hooks: (metric, unit)
COUNTER_METRICS = [
    ("graph.ff_edges", "count"),
    ("autodiff.tape.nodes", "count"),
    ("autodiff.tapes_alive.max", "count"),
    ("assignment.solve.max_side", "count"),
    ("assignment.partial", "count"),
    ("data.bytes_read", "bytes"),
    ("data.bytes_written", "bytes"),
]

# the package's modules, whose summed span self time is reported per layer
LAYERS = ("data", "linalg", "graph", "convnet", "autodiff", "tasks",
          "assignment", "metrics")

# metrics computed from several spans or from the untraced run
DERIVED_METRICS = [
    ("linalg.spmm.csr.madds", "count"),
    ("linalg.spmm.peak_mb", "MB"),
    ("linalg.truncated_svd.spmm_calls", "count"),
    ("tasks.selector.spmm.calls", "count"),
    ("tasks.selector.spmm.s", "s"),
    ("assignment.kept_frac", "ratio"),
    ("trace.absent_names", "count"),
    ("trace.overhead_s", "s"),
    ("trace.uncovered_s", "s"),
] + [(f"layer.{layer}.self_s", "s") for layer in LAYERS]

PER_LAYER_METRICS = ([(m, u) for m, u, _, _ in SPAN_METRICS]
                     + COUNTER_METRICS + DERIVED_METRICS)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[4] - s[3]
    return own


def layer_metrics(trace: dict, traced_total_s: float,
                  untraced_total_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    spans = trace["spans"]
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)
    out = {}
    for metric, unit, name, what in SPAN_METRICS:
        group = by_name.get(name, [])
        if what == "calls":
            value = float(len(group))
        elif what == "s":
            value = float(sum(s[4] - s[3] for s in group))
        else:
            value = max((s[5] for s in group), default=0) / MB
        out[metric] = (value, unit)
    for metric, unit in COUNTER_METRICS:
        out[metric] = (float(trace["counters"].get(metric, 0.0)), unit)

    csr = by_name.get("linalg.spmm.csr", [])
    spmm = csr + by_name.get("linalg.spmm.dense", [])
    selector = [s for s in spmm if (s[6] or {}).get("selector")]
    svd_ids = {s[0] for s in by_name.get("linalg.truncated_svd", [])}
    entries = trace["counters"].get("assignment.entries", 0.0)
    roots = [s for s in spans if s[1] is None]
    own = self_times(spans)
    derived = {
        "linalg.spmm.csr.madds": sum(s[6]["madds"] for s in csr),
        "linalg.spmm.peak_mb": max((s[5] for s in spmm), default=0) / MB,
        "linalg.truncated_svd.spmm_calls": sum(
            1 for s in spmm if s[1] in svd_ids),
        "tasks.selector.spmm.calls": len(selector),
        "tasks.selector.spmm.s": sum(s[4] - s[3] for s in selector),
        "assignment.kept_frac": (trace["counters"].get("assignment.kept", 0.0)
                                 / entries if entries else 0.0),
        "trace.absent_names": len(trace["absent"]),
        "trace.overhead_s": traced_total_s - untraced_total_s,
        "trace.uncovered_s": traced_total_s - sum(s[4] - s[3] for s in roots),
    }
    for layer in LAYERS:
        derived[f"layer.{layer}.self_s"] = sum(
            own[s[0]] for s in spans if s[2].split(".", 1)[0] == layer)
    for metric, unit in DERIVED_METRICS:
        out[metric] = (float(derived[metric]), unit)
    return out


def top_self_times(trace: dict, n: int = 8) -> list[tuple[str, float]]:
    """The n span names with the largest summed self time."""
    own = self_times(trace["spans"])
    totals: dict[str, float] = {}
    for s in trace["spans"]:
        totals[s[2]] = totals.get(s[2], 0.0) + own[s[0]]
    return sorted(totals.items(), key=lambda kv: -kv[1])[:n]
