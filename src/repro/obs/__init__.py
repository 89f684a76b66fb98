"""repro.obs — causal observability for asymmetric stream pipelines.

The paper's headline claims are *counting* claims (n+1 invocations per
datum for corresponding pairs, 2n+2 for the buffered conventional
design).  Aggregate counters can check the totals; this package checks
the *structure*: every datum gets a trace ID, every request hop gets a
span, and the resulting span trees are reconstructable end-to-end
across a multi-process fleet.

Layers:

- :mod:`repro.obs.spans` — the span model (trace/span/parent contexts,
  deterministic ID allocation);
- :mod:`repro.obs.context` — task-local span propagation for the
  asyncio wire runtime;
- :mod:`repro.obs.registry` — Prometheus-style text exposition and
  JSON snapshots over :class:`~repro.core.stats.KernelStats` (counters,
  gauges, fixed-bucket histograms);
- :mod:`repro.obs.merge` — the trace-merge tool: align per-stage JSONL
  logs (monotonic-clock skew correction), build span trees, compute
  per-datum end-to-end latency and critical paths, and assert the
  C1/C2 invocation chains span-by-span;
- :mod:`repro.obs.control` — the live introspection protocol
  (STATS/SPANS/HEALTH over the frame codec) every ``eden-stage`` can
  serve;
- :mod:`repro.obs.top` / :mod:`repro.obs.trace_cli` — the ``eden-top``
  and ``eden-trace`` command line tools.
"""

from repro._lazy import lazy_front

__getattr__, __dir__, __all__ = lazy_front(globals(), {
    "repro.obs.context": ("bind_span", "current_span"),
    "repro.obs.merge": (
        "ChainReport", "SpanRecord", "StageLog", "TraceTree", "load_span_log",
        "merge_span_logs", "verify_invocation_chains",
    ),
    "repro.obs.registry": (
        "DEFAULT_LATENCY_BUCKETS_MS", "snapshot_payload", "stats_from_payload",
        "to_prometheus",
    ),
    "repro.obs.spans": ("CLOCK_KIND", "SPAN_KIND", "SpanContext", "SpanIds"),
})
