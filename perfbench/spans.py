"""Outside-in layer tracing for the benchmark.

The tracer wraps the public functions of isobound's modules where the
importing modules bind them (for example `harness.compute_partition` and
`constructive.compute_partition` both become the wrapper of
`partition.compute_partition`), records one span per call in flat arrays,
and restores every binding afterwards. Nothing under `src/` is edited.

A span is (layer, start, end, parent span, graph index). A layer's self
time is its span duration minus the durations of its child spans. Spans are
kept in memory and written out once, when the traced pass ends.
"""

import array
import importlib
import json
import os
import sys
import time

# Per-layer metrics, in the order BENCHMARK.json lists them. A layer is
# "<isobound module>.<function>". `self_pct` is the layer's self time as a
# share of the traced pass's wall time: a layer that a workload never calls
# reads 0 there, and a share keeps the split readable across hosts.
LAYER_METRICS = [
    ("partition.compute_partition", ("calls", "self_pct", "distinct_ratio")),
    ("constructive.build_isolating_set", ("calls", "self_pct", "distinct_ratio")),
    ("partition.undominated_witnesses", ("self_pct",)),
    ("partition.check_delta_regime", ("self_pct",)),
    ("partition.refine_pairs", ("self_pct",)),
    ("partition.refine_twins", ("self_pct",)),
    ("predicates.is_maximal_irredundant_mask", ("calls", "self_pct")),
    ("predicates.is_irredundant_mask", ("calls",)),
    ("predicates.is_k_isolating", ("calls", "self_pct")),
    ("harness.random_maximal_irredundant", ("self_pct",)),
    ("harness.check_graph", ("self_pct",)),
    ("solvers.ir", ("calls", "self_pct", "explored")),
    ("solvers.gamma", ("calls", "self_pct", "explored")),
    ("solvers.iota", ("calls", "self_pct", "explored")),
    ("graph.enumerate_k_cliques", ("calls", "cliques", "self_pct")),
    ("graph.parse_graph6", ("self_pct",)),
    ("graph.encode_graph6", ("self_pct",)),
    ("graph.classify", ("self_pct",)),
    ("harness.verify_stream", ("self_pct",)),
    ("harness.write_csv", ("self_pct",)),
    ("harness.write_json", ("self_pct",)),
    ("cli.cmd_verify", ("self_pct",)),
]

METRIC_UNITS = {
    "calls": ("count", "lower"),
    "self_pct": ("%", "lower"),
    "distinct_ratio": ("ratio", "higher"),
    "explored": ("count", "lower"),
    "cliques": ("count", "lower"),
}

# Benchmark-health metrics reported beside the layers in a traced run.
HEALTH_METRICS = [
    ("trace.overhead_ratio", "ratio", "lower"),
    ("host.spin_ms", "ms", "lower"),
]


def per_layer_declaration():
    """The per_layer list of BENCHMARK.json: name, unit, better."""
    out = []
    for layer, metrics in LAYER_METRICS:
        for metric in metrics:
            unit, better = METRIC_UNITS[metric]
            out.append({"name": f"{layer}.{metric}", "unit": unit, "better": better})
    for name, unit, better in HEALTH_METRICS:
        out.append({"name": name, "unit": unit, "better": better})
    return out


def _explored(args, result):
    return result.explored


def _cliques(args, result):
    return len(result)


def _input_key(args, kwargs):
    # graph adjacency, vertex set, then the remaining arguments (k)
    return (args[0].adj, tuple(args[1])) + args[2:] + tuple(sorted(kwargs.items()))


# Layers that only count calls: their time stays in the caller's self time.
_COUNT_ONLY = {"predicates.is_irredundant_mask"}
_WORK = {
    "solvers.ir": _explored,
    "solvers.gamma": _explored,
    "solvers.iota": _explored,
    "graph.enumerate_k_cliques": _cliques,
}
_DISTINCT = {"partition.compute_partition", "constructive.build_isolating_set"}
# In the corpus workloads each call of this layer starts the next graph.
_GRAPH_ROOT = "harness.check_graph"


class Tracer:
    """Span recorder that patches isobound's module bindings while active.

    Use as a context manager around one traced pass. `graph` is the index of
    the graph being worked on: the solver workloads set it before each root
    call, and each `check_graph` call advances it by one. Pool workers forked
    while the tracer is installed record nothing.
    """

    def __init__(self):
        self.layers = [layer for layer, _ in LAYER_METRICS]
        self.layer_id = {layer: i for i, layer in enumerate(self.layers)}
        self.names = array.array("H")
        self.parents = array.array("l")
        self.graphs = array.array("l")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.counts = [0] * len(self.layers)
        self.work = [0] * len(self.layers)
        self.keys = {layer: set() for layer in _DISTINCT}
        self.graph = -1
        self.current = -1
        self.active = False
        self._patched = []
        os.register_at_fork(after_in_child=self._in_child)

    def _in_child(self):
        self.active = False

    def _wrap(self, layer, fn):
        lid = self.layer_id[layer]
        tracer = self
        counts = self.counts
        if layer in _COUNT_ONLY:

            def counted(*args, **kwargs):
                if tracer.active:
                    counts[lid] += 1
                return fn(*args, **kwargs)

            return counted

        names, parents, graphs = self.names, self.parents, self.graphs
        starts, ends = self.starts, self.ends
        work = _WORK.get(layer)
        keys = self.keys.get(layer)
        numbers_graphs = layer == _GRAPH_ROOT
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if numbers_graphs:
                tracer.graph += 1
            idx = len(names)
            names.append(lid)
            parents.append(tracer.current)
            graphs.append(tracer.graph)
            ends.append(0.0)
            if keys is not None:
                keys.add((tracer.graph,) + _input_key(args, kwargs))
            prev = tracer.current
            tracer.current = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer.current = prev
            if work is not None:
                tracer.work[lid] += work(args, result)
            return result

        return spanned

    def __enter__(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "isobound" or name.startswith("isobound.")
        }
        for layer in self.layers:
            mod_name, fn_name = layer.split(".")
            home = importlib.import_module(f"isobound.{mod_name}")
            fn = getattr(home, fn_name, None)
            if fn is None:
                continue  # a later refactor removed the layer; it reads 0
            wrapper = self._wrap(layer, fn)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        self.active = True
        return self

    def __exit__(self, *exc):
        self.active = False
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()
        return False

    def self_times(self):
        """Self seconds and call counts per layer, from the recorded spans."""
        starts, ends, parents = self.starts, self.ends, self.parents
        child = array.array("d", bytes(8 * len(starts)))
        for idx, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += ends[idx] - starts[idx]
        self_s = [0.0] * len(self.layers)
        calls = list(self.counts)
        for idx, lid in enumerate(self.names):
            self_s[lid] += ends[idx] - starts[idx] - child[idx]
            calls[lid] += 1
        return self_s, calls

    def metrics(self, wall_s):
        """Per-layer metric values, with self time as a share of wall_s."""
        self_s, calls = self.self_times()
        out = {}
        for layer, metrics in LAYER_METRICS:
            lid = self.layer_id[layer]
            for metric in metrics:
                if metric == "calls":
                    value = calls[lid]
                elif metric == "self_pct":
                    value = 100.0 * self_s[lid] / wall_s
                elif metric == "distinct_ratio":
                    value = len(self.keys[layer]) / calls[lid] if calls[lid] else 0.0
                else:
                    value = self.work[lid]
                out[f"{layer}.{metric}"] = value
        return out, dict(zip(self.layers, self_s))

    def write(self, path):
        """Write the spans as a header line plus five little-endian arrays."""
        with open(path, "wb") as fh:
            header = {
                "layers": self.layers,
                "spans": len(self.names),
                "arrays": ["names:H", "parents:l", "graphs:l", "starts:d", "ends:d"],
            }
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.names, self.parents, self.graphs, self.starts, self.ends):
                arr.tofile(fh)
