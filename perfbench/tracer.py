"""Span tracer installed into wheelembed from outside the package.

`Tracer.install` replaces each public function named in `LAYERS` (and the
`fault_specs` generator) with a wrapper, in every loaded `wheelembed.*`
module that binds the function: `single_source_distances`, for example, is
imported by name into `embedding` and `oracle`, so all three bindings are
replaced. Module-level dicts that hold the function, such as the family
dispatch table, are patched too. `uninstall` restores the originals.

A wrapper records one span per call: (span id, parent span id, function,
start, end), kept in memory. `layer_metrics` turns the spans into per-layer
self times (a span's duration minus its child spans) and adds the
deterministic work counters the wrappers keep.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

FAMILY_BUILDERS = (
    "wheel", "fan", "friendship", "windmill", "star", "complete_binary_tree",
    "hypertree", "sibling_tree", "x_tree", "circulant", "generalized_petersen",
    "torus", "path", "cycle", "complete",
)

# self-time metric -> (module, public functions whose self time it sums)
LAYERS = {
    "graphs.bfs_s": ("graphs", ("single_source_distances", "all_pairs_distances")),
    "graphs.invariants_s": ("graphs", ("is_connected", "radius_diameter",
                                       "status_and_median", "shells")),
    "graphs.parse_s": ("graphs", ("graph_from_json", "build_graph")),
    "families.build_s": ("families", FAMILY_BUILDERS + ("build_family",)),
    "embedding.construct_s": ("embedding", ("embed_wheel_like_into_tree_host",
                                            "embed_windmill_into_circulant",
                                            "embed_wheel_via_median",
                                            "embed_fan_via_median")),
    "embedding.route_s": ("embedding", ("route_shortest",)),
    "embedding.validate_s": ("embedding", ("build_embedding",)),
    "embedding.evaluate_s": ("embedding", ("evaluate",)),
    "bounds.self_s": ("bounds", ("verify_theorem", "dilation_lower_bound",
                                 "congestion_lower_bound", "wirelength_lower_bound")),
    "hamiltonian.search_s": ("hamiltonian", ("find_hamiltonian_cycle",
                                             "find_hamiltonian_path")),
    "hamiltonian.fault_sweep_s": ("hamiltonian", ("is_f_fault_hamiltonian",
                                                  "is_f_fault_traceable",
                                                  "is_hypohamiltonian")),
    "oracle.search_s": ("oracle", ("exact_dilation", "exact_wirelength", "exact_congestion")),
    "cli.self_s": ("cli", ("main",)),
}

COUNTERS = (
    "graphs.bfs_calls", "families.graphs_built", "embedding.route_hops",
    "hamiltonian.queries", "hamiltonian.fault_specs", "oracle.calls", "oracle.search_space",
)

# every per-layer metric the traced run reports, with its unit
UNITS = {
    **{name: "s" for name in LAYERS},
    **{name: "count" for name in COUNTERS},
    "graphs.bfs_distinct_ratio": "ratio",
    "trace.overhead_frac": "fraction",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.bfs_pairs: set = set()
        self._open: list[int] = []
        self._next_id = 0
        self._restore: list = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.bfs_pairs.clear()
        self._next_id = 0

    # ------------------------------------------------------------ wrappers

    def _count(self, name: str, args, kwargs, result) -> None:
        if name == "single_source_distances":
            self.counts["graphs.bfs_calls"] += 1
            self.bfs_pairs.add((args[0], args[1]))
        elif name in FAMILY_BUILDERS:
            self.counts["families.graphs_built"] += 1
        elif name == "build_embedding":
            routes = args[3] if len(args) > 3 else kwargs["routes"]
            self.counts["embedding.route_hops"] += sum(len(r) - 1 for r in routes.values())
        elif name in ("find_hamiltonian_cycle", "find_hamiltonian_path"):
            self.counts["hamiltonian.queries"] += 1
        elif name.startswith("exact_"):
            self.counts["oracle.calls"] += 1
            self.counts["oracle.search_space"] += result.search_space

    def _span_wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._open[-1] if self._open else -1
            self._open.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans.append((span_id, parent, name, start, end))
            self._count(name, args, kwargs, result)
            return result
        return traced

    def _yield_counter(self, fn):
        def traced(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts["hamiltonian.fault_specs"] += 1
                yield item
        return traced

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every function in LAYERS plus `fault_specs`; fail on any missing name."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "wheelembed" or key.startswith("wheelembed.")]
        targets = [(module, name) for module, names in LAYERS.values() for name in names]
        targets.append(("hamiltonian", "fault_specs"))
        missing = []
        for module, name in targets:
            home = sys.modules.get(f"wheelembed.{module}")
            original = getattr(home, name, None)
            if original is None:
                missing.append(f"{module}.{name}")
                continue
            if name == "fault_specs":
                wrapper = self._yield_counter(original)
            else:
                wrapper = self._span_wrapper(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((vars(m), attr, original))
                        vars(m)[attr] = wrapper
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                self._restore.append((value, key, original))
                                value[key] = wrapper
        if missing:
            self.uninstall()
            raise RuntimeError(f"traced functions not found: {', '.join(missing)}")

    def uninstall(self) -> None:
        while self._restore:
            namespace, key, original = self._restore.pop()
            namespace[key] = original

    # ------------------------------------------------------------ results

    def layer_metrics(self) -> dict:
        """Per-layer self times and counters of the spans recorded since reset."""
        layer_of = {name: metric for metric, (_, names) in LAYERS.items() for name in names}
        name_of = {span[0]: span[2] for span in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            child_time[parent] += end - start
        metrics = {name: 0.0 for name in LAYERS}
        for span_id, parent, name, start, end in self.spans:
            layer = layer_of[name]
            # a family builder's own build_graph call is graph construction, not input parsing
            if name == "build_graph" and name_of.get(parent) in FAMILY_BUILDERS:
                layer = "families.build_s"
            metrics[layer] += (end - start) - child_time[span_id]
        for name in COUNTERS:
            metrics[name] = self.counts[name]
        calls = self.counts["graphs.bfs_calls"]
        metrics["graphs.bfs_distinct_ratio"] = len(self.bfs_pairs) / calls if calls else 0.0
        return metrics
