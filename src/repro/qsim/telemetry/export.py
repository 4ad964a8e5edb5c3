"""Exporters: span-derived metrics as JSON or Prometheus text exposition.

Spans are the one telemetry record.  :func:`metrics_from_traces` folds
finished span trees (the :meth:`~repro.qsim.telemetry.trace.Span.to_dict`
shape, as the service persists them per job) into a snapshot dict --
``{"counters": ..., "gauges": ..., "histograms": ...}`` -- and both
exporters render that shape, so a live process (draining its own spans)
and the job store (reading persisted traces) export identically.

The Prometheus format follows the text exposition conventions: metric
names are sanitised (``.`` and ``-`` become ``_``), every family gets a
``# TYPE`` line, and histograms emit cumulative ``_bucket{le="..."}``
series ending in ``le="+Inf"`` plus ``_sum``/``_count`` -- scrape-able by
an actual Prometheus should this service ever grow an HTTP front end.
"""

from __future__ import annotations

import bisect
import collections
import json
import re
from typing import Any, Dict, Iterable, List

__all__ = ["DEFAULT_BUCKETS", "metrics_from_traces", "to_json", "to_prometheus"]

_NAME_SANITISE = re.compile(r"[^a-zA-Z0-9_:]")

#: ``engine.run.seconds`` bucket upper bounds, in seconds -- sized for the
#: latencies this stack actually produces (sub-ms cache hits up to
#: multi-second noisy batches); the implicit +inf bucket is always last
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)

#: ``cache.lookup`` span ``kind`` tag -> the counters it adds one to
_CACHE_KINDS = {
    "memory_hit": ("cache.memory_hits",),
    "disk_hit": ("cache.disk_hits",),
    "miss": ("cache.misses",),
    "corrupt": ("cache.misses", "cache.corrupt"),
}


def metrics_from_traces(traces: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Count the facts every span tree in *traces* records.

    Per ``engine.<name>.run`` span: ``engine.<name>.experiments``, its
    ``shots`` and ``gates`` tags summed, its shots again under
    ``engine.<name>.<method>`` for any method but ``sampled``, and its wall
    time in the ``engine.run.seconds`` histogram.  Per ``backend.run``:
    ``backend.batches`` and ``backend.circuits``; per ``transpile``:
    ``transpile.circuits`` and ``transpile.gates_in``; per
    ``cache.lookup``: the ``cache.*`` counter of its ``kind`` tag (a corrupt
    entry is also a miss).  Counters that stay zero are left out.
    """
    counters: Dict[str, float] = collections.defaultdict(float)
    bucket_counts = [0] * (len(DEFAULT_BUCKETS) + 1)
    run_seconds = 0.0
    pending = list(traces)
    while pending:
        node = pending.pop()
        pending.extend(node.get("children", ()))
        name = node.get("name", "")
        tags = node.get("tags", {})
        if name == "backend.run":
            counters["backend.batches"] += 1
            counters["backend.circuits"] += tags.get("circuits", 0)
        elif name == "transpile":
            counters["transpile.circuits"] += 1
            counters["transpile.gates_in"] += tags.get("gates", 0)
        elif name == "cache.lookup":
            for counter in _CACHE_KINDS.get(tags.get("kind"), ()):
                counters[counter] += 1
        elif name.startswith("engine.") and name.endswith(".run"):
            engine = name[: -len(".run")]
            shots = tags.get("shots", 0)
            counters[f"{engine}.experiments"] += 1
            counters[f"{engine}.shots"] += shots
            counters[f"{engine}.gates"] += tags.get("gates", 0)
            method = tags.get("method")
            if method not in (None, "sampled"):
                counters[f"{engine}.{method}"] += shots
            wall_s = node.get("wall_s", 0.0)
            bucket_counts[bisect.bisect_left(DEFAULT_BUCKETS, wall_s)] += 1
            run_seconds += wall_s
    runs = sum(bucket_counts)
    histograms: Dict[str, Dict[str, Any]] = {}
    if runs:
        histograms["engine.run.seconds"] = {
            "buckets": list(DEFAULT_BUCKETS),
            "counts": bucket_counts,
            "sum": run_seconds,
            "count": runs,
        }
    return {
        "counters": {name: value for name, value in sorted(counters.items()) if value},
        "gauges": {},
        "histograms": histograms,
    }


def to_json(snapshot: Dict[str, Any], indent: int = 2) -> str:
    """The snapshot as pretty-printed JSON (machine consumers, CI artifacts)."""
    return json.dumps(snapshot, indent=indent, sort_keys=True) + "\n"


def _prom_name(name: str) -> str:
    sanitised = _NAME_SANITISE.sub("_", name)
    if sanitised and sanitised[0].isdigit():
        sanitised = "_" + sanitised
    return sanitised


def _prom_value(value: float) -> str:
    # Prometheus wants bare numbers; render integral floats without the .0
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def to_prometheus(snapshot: Dict[str, Any], prefix: str = "qsim") -> str:
    """The snapshot in Prometheus text exposition format."""
    lines: List[str] = []
    prefix = _prom_name(prefix)

    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = f"{prefix}_{_prom_name(name)}"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(value)}")

    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = f"{prefix}_{_prom_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_value(value)}")

    for name, hist in sorted(snapshot.get("histograms", {}).items()):
        metric = f"{prefix}_{_prom_name(name)}"
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(hist["buckets"], hist["counts"]):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{bound}"}} {cumulative}')
        cumulative += hist["counts"][-1]
        lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{metric}_sum {_prom_value(hist['sum'])}")
        lines.append(f"{metric}_count {hist['count']}")

    return "\n".join(lines) + "\n" if lines else ""
