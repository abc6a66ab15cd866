"""Unified observability: tracing, metrics registry, structured events.

The HD-map ecosystem of the source paper is one closed loop — creation,
maintenance, serving — and its operational questions span layers:
*where did this tile request go*, *why is this observation's freshness
lag high*, *which worker kept restarting*. This package is the single
cross-cutting layer those questions are answered from:

- :mod:`repro.obs.metrics` — the shared thread-safe primitives
  (:class:`Counter`, :class:`Gauge`, :class:`LatencyHistogram` with
  cross-worker ``merge()``) and the :class:`MetricsRegistry` each
  component owns and creates its instruments on under canonical dotted
  names, with ``snapshot()``, Prometheus-text, and JSON exporters;
- :mod:`repro.obs.trace` — :class:`TraceContext` propagation via
  ``contextvars`` (and explicit hand-off across thread boundaries),
  sampled spans recorded into a lock-free-append :class:`SpanRecorder`
  ring with a JSONL sink, plus span-tree tooling
  (:func:`build_tree`, :func:`format_trace`, :func:`verify_spans`);
- :mod:`repro.obs.log` — a leveled, key-value, thread-safe event log
  with trace correlation, replacing ad-hoc silent failure paths
  (supervisor restarts, dead letters, retries, load shedding).

Everything here is stdlib-only and import-leaf: the serve, ingest,
storage, and perf layers import ``repro.obs``, never the reverse.
These surfaces are also the evidence base for fault certification:
:mod:`repro.chaos` checks its degradation invariants against the event
log, metrics, and the database change log — never against harness
bookkeeping — and ``docs/OPERATIONS.md`` keys its symptom → knob
entries to the canonical metric names created on these registries.
"""

from repro.obs.log import (
    DEBUG,
    ERROR,
    EVENT_LOG,
    INFO,
    WARNING,
    BoundLogger,
    EventLog,
    get_logger,
)
from repro.obs.metrics import (
    DEFAULT_BOUNDS,
    FRESHNESS_BOUNDS,
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    register_perf_registry,
    validate_prometheus_text,
)
from repro.obs.trace import (
    NOOP_SPAN,
    TRACER,
    Span,
    SpanRecorder,
    TraceContext,
    Tracer,
    build_tree,
    configure_tracing,
    format_trace,
    load_spans_jsonl,
    verify_spans,
)

__all__ = [
    "BoundLogger",
    "Counter",
    "DEBUG",
    "DEFAULT_BOUNDS",
    "ERROR",
    "EVENT_LOG",
    "EventLog",
    "FRESHNESS_BOUNDS",
    "Gauge",
    "INFO",
    "LatencyHistogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Span",
    "SpanRecorder",
    "TRACER",
    "TraceContext",
    "Tracer",
    "WARNING",
    "build_tree",
    "configure_tracing",
    "format_trace",
    "get_logger",
    "load_spans_jsonl",
    "register_perf_registry",
    "validate_prometheus_text",
    "verify_spans",
]
