"""Always-on observability: tracing spans, and the metrics they yield.

The zero-dependency instrumentation layer every engine and the execution
service report into:

* :mod:`~repro.qsim.telemetry.trace` -- context-manager **spans** that nest
  into per-thread trees (worker -> cache -> transpile -> engine), cheap
  enough to leave enabled and exact no-ops after :func:`disable`.  Spans
  are the one telemetry record: each fact (an engine run's shots, a cache
  lookup's outcome) is a span tag, recorded once;
* :mod:`~repro.qsim.telemetry.export` -- :func:`export.metrics_from_traces`
  counts those facts across any number of span trees, and JSON and
  Prometheus text rendering of the result.

Typical use::

    from repro.qsim import telemetry

    with telemetry.span("my.operation", items=3) as sp:
        ...                       # nested instrumented calls attach here
        sp.tag(outcome="ok")

    trees = [root.to_dict() for root in telemetry.drain_spans()]
    print(telemetry.export.to_prometheus(telemetry.export.metrics_from_traces(trees)))

See ``docs/observability.md`` for the guide, the ``trace`` / ``metrics``
CLI verbs for the service-side consumers (they read the span trees that
workers persist per job), and ``benchmarks/bench_telemetry.py`` for the
overhead gate.
"""

from . import export
from .trace import (
    Span,
    clear_spans,
    current_span,
    disable,
    drain_spans,
    enable,
    enabled,
    format_span_tree,
    span,
)

__all__ = [
    "span",
    "Span",
    "current_span",
    "drain_spans",
    "clear_spans",
    "enable",
    "disable",
    "enabled",
    "format_span_tree",
    "export",
]
