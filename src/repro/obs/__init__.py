"""Unified observability layer (docs/observability.md).

One runtime-agnostic metrics registry serves every execution substrate in
the repository: the threaded replica, the TCP deployment, and the
discrete-event simulator.  The registry holds three instrument kinds —
counters, gauges, and histograms with *fixed log-spaced buckets* — so a
threaded run and a simulated run of the same workload aggregate into
byte-identical series layouts and can be compared directly.

Per-command trace spans (``delivered -> scheduled -> ready -> executing ->
responded``) ride on the same registry: any instrumented component calls
``registry.span(span_key(cmd), stage)`` and a tracing run collects them
into a span
log that reconstructs the per-stage latency breakdown of a command's life,
the instrumentation style of the early-scheduling / parallel-SMR
measurement literature.

Everything is **zero-cost when disabled**: the default hand-out is
:data:`NULL_REGISTRY`, whose instruments are shared no-op singletons, and
instrumented hot paths guard on ``registry.enabled``.  Crucially, the
instrumentation never adds or removes *effects* in the COS generators, so
a discrete-event simulation produces bit-identical schedules with
observability on or off (pinned by tests/test_obs.py).
"""

from repro._lazy import exports

#: Resolved on first use (PEP 562): a replica without ``/metrics`` never
#: loads the exposition code.
__getattr__, __all__ = exports(__name__, {
    ".registry": ("DEFAULT_BUCKETS", "Counter", "Gauge", "Histogram",
                  "MetricsRegistry", "NULL_REGISTRY", "NullRegistry",
                  "log_spaced_buckets"),
    ".spans": ("NULL_SPAN_LOG", "SPAN_STAGES", "NullSpanLog", "SpanLog",
               "span_key"),
    ".expose": ("MetricsHTTPServer", "SnapshotWriter", "render_text"),
    ".stats": ("quantile",),
})
