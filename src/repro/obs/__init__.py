"""``repro.obs`` — unified tracing, metrics, and run provenance.

The observability layer every subsystem reports through:

* **tracer** (:mod:`repro.obs.tracer`) — ``span()`` context managers,
  always-on counters, and gauges. Disabled tracing is a guaranteed
  no-op (the span fast path allocates nothing); per-process buffers
  merge deterministically across ``experiments.Runner`` workers.
* **manifest** (:mod:`repro.obs.manifest`) — :class:`RunManifest`, the
  provenance block (config hash, seed, version, wall time, cache/memo
  counters) embedded in every CLI ``--json`` envelope.
* **export** (:mod:`repro.obs.export`) — merges simulator-self spans
  with simulated-timeline lanes into one Chrome/Perfetto trace file
  (``--trace PATH`` on ``run``/``serve``/``experiments run``).
* **tracecheck** (:mod:`repro.obs.tracecheck`) — a dependency-free
  JSON-schema check for emitted trace files
  (``python -m repro.obs.tracecheck trace.json``), used by CI.

Instrumented layers: the cluster event loop (arrival / router-decision /
dispatch spans, event counters folded into ``ClusterReport``), the
executor (``schedule.freeze`` — opened on every run, a no-op once the
schedule is frozen — then timing pass / memory replay), experiment
cells (cache hit/miss, per-cell wall time), the routing and
group-timing memos, and the artifact store. See ``docs/observability.md``.
"""

from repro.obs.tracer import (
    aggregate_spans,
    collect,
    count,
    counters_snapshot,
    disable,
    enable,
    enabled,
    format_span_tree,
    format_top,
    gauge,
    gauges_snapshot,
    merge,
    reset_counters,
    span,
    spans_snapshot,
)
from repro.obs.manifest import MANIFEST_KEYS, RunManifest, build_manifest

__all__ = [
    "enable",
    "disable",
    "enabled",
    "span",
    "count",
    "gauge",
    "counters_snapshot",
    "gauges_snapshot",
    "reset_counters",
    "spans_snapshot",
    "collect",
    "merge",
    "aggregate_spans",
    "format_span_tree",
    "format_top",
    "MANIFEST_KEYS",
    "RunManifest",
    "build_manifest",
]
