"""Outside-in span tracing of the surfcluster package.

The tracer replaces functions of the package with wrappers from outside: it
changes no file of the package. A span records its parent, its name and its
start and end; spans stay in memory until the pass is over. A layer's self
time is its spans' durations minus the time covered by their direct children.

`surface` only validates input and `finite_models` is a test oracle that no
workload reaches, so neither is traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("cli", "tagged", "trimap", "mutation", "blocks", "cluster")

# Private functions that still mark a layer boundary: `_emit` is the CLI's
# output path, which the tagged-bfs jobs use for their JSON dump.
PRIVATE_ENTRY_POINTS = {"cli": ("_emit",)}

# Methods called by other layers; wrapping them is what puts validation,
# export and Laurent arithmetic on the trace.
METHODS = (
    ("trimap", "IdealTriangulation", "validate"),
    ("tagged", "FlipGraph", "to_json"),
    ("cluster", "LaurentPoly", "__mul__"),
    ("cluster", "LaurentPoly", "div_exact"),
)

# Result attributes read off a span's return value, for the dedup ratios.
RESULT_COUNTS = {
    "mutation.mutation_class": "size",
    "cluster.all_cluster_variables": "seeds_seen",
}


class Tracer:
    """Wraps the package's layer functions while active; spans stay in memory.

    A span is `[parent index or -1, name, start ns, end ns, result count]`.
    """

    def __init__(self, package: str = "surfcluster", clock_ns=time.perf_counter_ns):
        self.package = package
        self.clock_ns = clock_ns
        self.spans: list[list] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, self.clock_ns
        count_attr = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [stack[-1], name, clock(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count_attr is not None:
                span[4] = getattr(result, count_attr, None)
            return result

        return traced

    def _patch(self, owner, attr: str, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{self.package}.{layer}")
            # names bound by `from ... import` are patched too, with the span
            # named after the module that defines the function
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if obj.__module__ != f"{self.package}.{home}" or home not in LAYERS:
                    continue
                if obj.__name__.startswith("_") and obj.__name__ not in PRIVATE_ENTRY_POINTS.get(home, ()):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{home}.{obj.__qualname__}")
                self._patch(module, attr, wrappers[obj])
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"{self.package}.{layer}"), cls_name)
            fn = vars(cls)[method]
            self._patch(cls, method, self._wrap(fn, f"{layer}.{cls_name}.{method}"))
        return self

    def __exit__(self, *exc_info):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        """Write every span as `[parent, name index, start ns, end ns]`."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "spans": [[p, index[n], a, b] for p, n, a, b, _ in self.spans]}, fh)


def layer_metrics(spans, bench: dict) -> dict:
    """Per-layer metrics of one traced pass.

    `bench` carries what the benchmark itself saw at the call sites: bytes
    written by the CLI, node and edge counts of the searches and the
    verdicts of `is-surface-matrix`.
    """
    child_ns = [0] * len(spans)
    for parent, _, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    layer_self_ns = dict.fromkeys(LAYERS, 0)
    cli_entries = 0
    bfs_keys = 0
    class_mutations = 0
    seed_mutations = 0
    new_classes = 0
    new_seeds = 0
    for i, (parent, name, start, end, count) in enumerate(spans):
        own = end - start - child_ns[i]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own
        layer = name.partition(".")[0]
        layer_self_ns[layer] += own
        parent_name = spans[parent][1] if parent >= 0 else ""
        if layer == "cli" and not parent_name.startswith("cli."):
            cli_entries += 1
        if name == "tagged.canonical_key" and parent_name == "tagged.exchange_graph_bfs":
            bfs_keys += 1
        elif name == "mutation.mutate" and parent_name == "mutation.mutation_class":
            class_mutations += 1
        elif name == "cluster.mutate_seed" and parent_name == "cluster.all_cluster_variables":
            seed_mutations += 1
        elif name == "mutation.mutation_class" and count:
            new_classes += count - 1
        elif name == "cluster.all_cluster_variables" and count:
            new_seeds += count - 1

    def n(name):
        return calls.get(name, 0)

    def s(*names):
        return sum(self_ns.get(x, 0) for x in names) / 1e9

    def ratio(part, whole):
        return part / whole if whole else 0.0

    return {
        "cli.calls": cli_entries,
        "cli.self_s": layer_self_ns["cli"] / 1e9,
        "cli.bytes_out": bench["bytes_out"],
        "tagged.flip_calls": n("tagged.tagged_flip"),
        "tagged.flip_self_s": s("tagged.tagged_flip"),
        "tagged.export_self_s": s("tagged.FlipGraph.to_json"),
        "tagged.bfs_nodes": bench["bfs_nodes"],
        "tagged.bfs_edges": bench["bfs_edges"],
        "tagged.dedup_hit_ratio": 1.0 - ratio(bench["bfs_nodes"], bfs_keys) if bfs_keys else 0.0,
        "trimap.key_calls": n("trimap.canonical_key"),
        "trimap.key_s": s("trimap.canonical_key"),
        "trimap.flip_calls": n("trimap.flip"),
        "trimap.flip_self_s": s("trimap.flip"),
        "trimap.validate_calls": n("trimap.IdealTriangulation.validate"),
        "trimap.validate_s": s("trimap.IdealTriangulation.validate"),
        "trimap.adjacency_s": s("trimap.signed_adjacency"),
        "mutation.mutate_calls": n("mutation.mutate"),
        "mutation.mutate_s": s("mutation.mutate"),
        "mutation.canon_calls": n("mutation.canonical_form"),
        "mutation.canon_s": s("mutation.canonical_form"),
        "mutation.recognize_self_s": s("mutation.recognize_type"),
        "mutation.class_new_ratio": ratio(new_classes, class_mutations),
        "blocks.decompose_calls": n("blocks.decompose"),
        "blocks.decompose_s": s("blocks.decompose"),
        "blocks.found": bench["verdicts"].get("found", 0),
        "blocks.rejected": bench["verdicts"].get("rejected", 0),
        "blocks.undecided": bench["verdicts"].get("undecided", 0),
        "blocks.assemble_s": s("blocks.assemble_matrix", "blocks.surface_from_decomposition"),
        "cluster.mutate_seed_calls": n("cluster.mutate_seed"),
        "cluster.mutate_seed_self_s": s("cluster.mutate_seed"),
        "cluster.mul_calls": n("cluster.LaurentPoly.__mul__"),
        "cluster.mul_s": s("cluster.LaurentPoly.__mul__"),
        "cluster.div_calls": n("cluster.LaurentPoly.div_exact"),
        "cluster.div_s": s("cluster.LaurentPoly.div_exact"),
        "cluster.seed_new_ratio": ratio(new_seeds, seed_mutations),
    }
