"""Per-layer host time from a ``cProfile`` run, grouped by defining package.

Each profiled function belongs to the package under ``src/repro`` that
defines it.  Builtins and standard-library functions belong to no layer:
their self time is charged to the layer that called them, following the
profile's caller edges up to the nearest function that does belong to a
layer.  Time with no layer caller (the benchmark's own code, the profiler)
falls into ``other``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Mapping, Optional, Tuple

LAYERS = (
    "sim",
    "net",
    "consensus",
    "multi",
    "core",
    "flow",
    "crypto",
    "storage",
    "obs",
    "workloads",
)
OTHER = "other"

#: thread stages of a replica's pipeline, for core.primary_sat.<stage>
STAGES = (
    "input-0", "input-1", "input-2", "batch-0", "batch-1",
    "worker", "execute", "checkpoint", "output-0", "output-1",
)

#: the per-layer metrics of a traced run: name -> unit
PER_LAYER = {
    "sim.events": "count",
    "sim.resumes": "count",
    "sim.self_s": "s",
    "net.messages": "count",
    "net.bytes": "B",
    "net.msgs_per_txn": "msg/txn",
    "net.size_calls": "count",
    "net.fault_checks": "count",
    "net.self_s": "s",
    "consensus.handler_calls": "count",
    "consensus.view_changes": "count",
    "consensus.self_s": "s",
    "multi.handler_calls": "count",
    "multi.self_s": "s",
    "core.self_s": "s",
    **{f"core.primary_sat.{stage}": "ratio" for stage in STAGES},
    "flow.busy_nacks": "count",
    "flow.requests_shed": "count",
    "flow.admission_rejected": "count",
    "flow.self_s": "s",
    "crypto.auth_calls": "count",
    "crypto.self_s": "s",
    "storage.writes": "count",
    "storage.self_s": "s",
    "obs.stamps": "count",
    "obs.self_s": "s",
    "workloads.txns_generated": "count",
    "workloads.self_s": "s",
    "other.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}

#: pstats key: (filename, line, function name)
Func = Tuple[str, int, str]

#: per-layer call counts: metric -> (package, module or None, function names
#: or a name prefix ending in "*")
CALL_COUNTS = {
    "sim.events": ("sim", "kernel", ("schedule",)),
    "sim.resumes": ("sim", "process", ("resume",)),
    "net.size_calls": (None, None, ("payload_bytes", "wire_bytes")),
    "net.fault_checks": ("net", "faults", ("is_crashed",)),
    "consensus.handler_calls": ("consensus", None, ("handle_*",)),
    "multi.handler_calls": ("multi", None, ("handle_*",)),
    "crypto.auth_calls": ("crypto", None, ("authenticate", "check")),
    "storage.writes": ("storage", None, ("write",)),
    "obs.stamps": ("obs", "spans", ("stamp", "stamp_sequence")),
    "workloads.txns_generated": ("workloads", "ycsb", ("next_transaction",)),
}


def _location(filename: str, package_dir: str) -> Optional[Tuple[str, str]]:
    """``(package, module)`` of a file under the ``repro`` package directory
    (package ``""`` for its top-level modules), else None."""
    prefix = package_dir.rstrip("/") + "/"
    if not filename.startswith(prefix):
        return None
    parts = filename[len(prefix):].split("/")
    module = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    return (parts[0] if len(parts) > 1 else "", module)


def owner(func: Func, package_dir: str, harness_dir: str) -> Optional[str]:
    """The layer a profiled function's self time belongs to; ``other`` for
    the benchmark's own code and repro modules outside the layers; None for
    builtins and library code, whose time goes to their callers."""
    location = _location(func[0], package_dir)
    if location is not None:
        return location[0] if location[0] in LAYERS else OTHER
    if func[0].startswith(harness_dir.rstrip("/") + "/"):
        return OTHER
    return None


def attribute_self_time(
    stats: Mapping, package_dir: str, harness_dir: str
) -> Dict[str, float]:
    """Self seconds per layer (plus ``other``) from ``pstats.Stats.stats``.

    The values sum to the profile's total self time.  A builtin's self time
    is split over its direct callers by the per-edge self time the profiler
    recorded; past the first caller, time that is still unowned climbs the
    graph in proportion to each edge's cumulative time.
    """
    owners = {func: owner(func, package_dir, harness_dir) for func in stats}
    totals: Dict[str, float] = defaultdict(float)

    def charge(func: Func, seconds: float, seen: frozenset) -> None:
        layer = owners.get(func, OTHER)
        if layer is not None:
            totals[layer] += seconds
            return
        callers = stats[func][4]
        weights = {
            caller: edge[3] for caller, edge in callers.items() if caller not in seen
        }
        spread = sum(weights.values())
        if spread <= 0:
            totals[OTHER] += seconds
            return
        for caller, weight in weights.items():
            charge(caller, seconds * weight / spread, seen | {func})

    for func, (_cc, _nc, self_s, _cum, callers) in stats.items():
        if owners[func] is not None:
            totals[owners[func]] += self_s
            continue
        by_edge = {caller: edge[2] for caller, edge in callers.items() if caller != func}
        spread = sum(by_edge.values())
        if spread <= 0:
            totals[OTHER] += self_s
            continue
        for caller, edge_self in by_edge.items():
            charge(caller, self_s * edge_self / spread, frozenset({func}))
    return {layer: totals.get(layer, 0.0) for layer in LAYERS + (OTHER,)}


def call_counts(stats: Mapping, package_dir: str) -> Dict[str, int]:
    """Calls into each layer's named public functions (``CALL_COUNTS``)."""
    counts = {metric: 0 for metric in CALL_COUNTS}
    for (filename, _line, name), (_cc, calls, _tt, _ct, _callers) in stats.items():
        location = _location(filename, package_dir)
        if location is None:
            continue
        for metric, (package, module, names) in CALL_COUNTS.items():
            if package is not None and location[0] != package:
                continue
            if module is not None and location[1] != module:
                continue
            if any(
                name.startswith(pattern[:-1]) if pattern.endswith("*") else name == pattern
                for pattern in names
            ):
                counts[metric] += calls
    return counts
