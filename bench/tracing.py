"""Per-layer timing from outside the program.

The traced run replaces public functions and methods of forbidtree with
timing wrappers, in every forbidtree module namespace that holds them
(``forbidtree.geometry.angular_sort`` and ``forbidtree.embedding.angular_sort``
are the same function, so both names get the wrapper). Nothing under src/
is edited; the untraced runs install no wrappers.

A wrapper's self time is its duration minus the durations of the wrapped
calls nested inside it.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# layer name -> (module, attribute path)
LAYERS = {
    "geometry.point_set": ("forbidtree.geometry", "PointSet.__init__"),
    "geometry.visible_hull_vertices": ("forbidtree.geometry", "visible_hull_vertices"),
    "geometry.angular_sort": ("forbidtree.geometry", "angular_sort"),
    "geometry.segments_cross": ("forbidtree.geometry", "segments_cross"),
    "geometry.crossing_sets": ("forbidtree.geometry", "PointSet.crossing_sets"),
    "generators.random_points": ("forbidtree.generators", "random_points"),
    "generators.convex_points": ("forbidtree.generators", "convex_points"),
    "trees.all_trees": ("forbidtree.trees", "all_trees"),
    "trees.root_at": ("forbidtree.trees", "root_at"),
    "embedding.embed_recursive": ("forbidtree.embedding", "embed_recursive"),
    "embedding.embed_avoiding_single": ("forbidtree.embedding", "embed_avoiding_single"),
    "embedding.validate": ("forbidtree.embedding", "Embedding.validate"),
    "embedding.to_json": ("forbidtree.embedding", "Embedding.to_json"),
    "oracle.exists_embedding": ("forbidtree.oracle", "exists_embedding"),
    "oracle.min_forbidden_set_size": ("forbidtree.oracle", "min_forbidden_set_size"),
    "forbid.three_consecutive_hull_edges": ("forbidtree.forbid", "three_consecutive_hull_edges"),
    "cli": ("forbidtree.cli", "main"),
}

# Self time per op in the timed rounds, and calls per op where a count is
# the more telling figure.
PER_OP_MS = [
    "geometry.point_set", "geometry.visible_hull_vertices", "geometry.angular_sort",
    "geometry.segments_cross", "geometry.crossing_sets", "trees.root_at",
    "embedding.embed_recursive", "embedding.embed_avoiding_single",
    "embedding.validate", "embedding.to_json", "oracle.exists_embedding",
    "oracle.min_forbidden_set_size",
]
PER_OP_CALLS = [
    "geometry.point_set", "geometry.visible_hull_vertices", "geometry.segments_cross",
    "embedding.validate", "oracle.exists_embedding",
]
# Layers that run in set-up: self time per call made in set-up.
PER_SETUP_CALL_MS = [
    "generators.random_points", "generators.convex_points", "trees.all_trees",
    "forbid.three_consecutive_hull_edges",
]
# Layers that run both in set-up and in ops: also their self time in set-up.
SETUP_MS = ["geometry.point_set", "geometry.crossing_sets"]


class Tracer:
    """Sums, per layer, calls, self seconds and total seconds of wrapped calls.

    The sums live in one Counter keyed by (field, layer); the oracle's
    search statistics are summed from every SearchReport under
    ("oracle", counter).
    """

    def __init__(self):
        self.sums: Counter = Counter()
        self._child = [0.0]

    def _wrap(self, layer: str, fn):
        sums, child, clock = self.sums, self._child, time.perf_counter
        is_oracle = layer == "oracle.exists_embedding"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                inner = child.pop()
                child[-1] += took
                sums["calls", layer] += 1
                sums["self", layer] += took - inner
                sums["total", layer] += took
            if is_oracle:
                sums["oracle", "nodes"] += result.nodes_expanded
                sums["oracle", "pruned"] += sum(result.prunes.values())
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer under each name any loaded forbidtree module gives it.

        A layer the program no longer has is left out, and its metrics read 0.
        """
        modules = [m for name, m in sys.modules.items()
                   if name == "forbidtree" or name.startswith("forbidtree.")]
        for layer, (modname, path) in LAYERS.items():
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(layer, original)
            if outer:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)

    def snapshot(self) -> Counter:
        return Counter(self.sums)


def layer_metrics(setup: Counter, ops: Counter, op_count: int,
                  setup_scale: float, op_scale: float) -> dict:
    """Per-layer metrics from the set-up sums and the timed-op sums of a traced run.

    Layer times are multiplied by the phase's rescaling factor (rescaled
    over measured time, see run.scaled), so that they add up to the
    rescaled operation times they are part of.
    """
    out = {}
    for layer in PER_OP_MS:
        out[f"{layer}.ms"] = (ops["self", layer] * op_scale * 1000 / op_count, "ms")
    for layer in PER_OP_CALLS:
        out[f"{layer}.calls"] = (ops["calls", layer] / op_count, "count")
    for layer in PER_SETUP_CALL_MS:
        calls = setup["calls", layer]
        own = setup["self", layer] * setup_scale * 1000
        out[f"{layer}.ms"] = (own / calls if calls else 0.0, "ms")
    for layer in SETUP_MS:
        out[f"{layer}.setup_ms"] = (setup["self", layer] * setup_scale * 1000, "ms")
    nodes = ops["oracle", "nodes"]
    oracle_s = ops["total", "oracle.exists_embedding"] * op_scale
    out["oracle.nodes"] = (nodes / op_count, "count")
    out["oracle.nodes_per_s"] = (nodes / oracle_s if oracle_s else 0.0, "1/s")
    out["oracle.extend_ratio"] = (
        (nodes - ops["oracle", "pruned"]) / nodes if nodes else 0.0, "ratio")
    out["cli.self.ms"] = (ops["self", "cli"] * op_scale * 1000 / op_count, "ms")
    return {name: (float(value), unit) for name, (value, unit) in out.items()}
