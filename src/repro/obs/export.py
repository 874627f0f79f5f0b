"""Merge simulator-self spans with simulated lanes into one Chrome trace.

One ``--trace`` file answers both "where did the *wall* time go" (the
tracer's spans: schedule emission, executor phases, memo misses, cell
execution) and "where did the *simulated* time go" (the pipeline's
per-resource lanes, or the cluster's per-replica group lanes) — the same
lens the paper turns on Klotski's schedules, turned on the simulator
itself. The two views live in distinct Chrome-trace process groups:

* ``pid 0`` — simulated time: the executed :class:`Timeline`'s resource
  lanes (``run``) or one lane per replica with a slice per dispatched
  group (``serve``). Timestamps are simulated seconds.
* ``pid 1`` — wall time: the tracer's spans, one thread lane per
  ``experiments.Runner`` worker (lane 0 is the parent process).

The file loads in Perfetto / ``chrome://tracing`` as-is; see
``docs/observability.md`` for the reading guide.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs import tracer
from repro.obs.tracer import ATTRS, DEPTH, END, NAME, START, WORKER
from repro.runtime.schedule import RESOURCES

SELF_PID = 1
SIMULATED_PID = 0

# Stable tid assignment so the timeline's lanes sort in pipeline order.
_LANE = {resource: i for i, resource in enumerate(RESOURCES)}

_PHASE_COLORS = {
    "attention": "thread_state_running",
    "gate": "thread_state_runnable",
    "expert": "thread_state_iowait",
    "transfer": "rail_load",
    "kv": "rail_idle",
}


def spans_to_chrome_events(spans: list[list] | None = None) -> list[dict]:
    """Convert tracer span records to complete-duration trace events.

    Args:
        spans: span records (default: the process buffer).

    Returns:
        ``"X"`` events under ``pid 1``, one thread lane per worker, plus
        the process/thread-name metadata records.
    """
    if spans is None:
        spans = tracer.spans_snapshot()
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": SELF_PID,
            "tid": 0,
            "args": {"name": "simulator self (wall time)"},
        }
    ]
    workers = sorted({rec[WORKER] for rec in spans})
    events.extend(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": SELF_PID,
            "tid": worker,
            "args": {"name": "main" if worker == 0 else f"worker {worker}"},
        }
        for worker in workers
    )
    for rec in spans:
        event = {
            "name": rec[NAME],
            "cat": "obs",
            "ph": "X",
            "ts": rec[START] * 1e6,
            "dur": max((rec[END] - rec[START]) * 1e6, 0.001),
            "pid": SELF_PID,
            "tid": rec[WORKER],
            "args": {"depth": rec[DEPTH], **(rec[ATTRS] or {})},
        }
        events.append(event)
    return events


def timeline_to_chrome_trace(timeline) -> dict:
    """Convert an executed timeline to a Chrome trace event dict.

    The interactive equivalent of the paper's Figure 15 pipeline plots:
    one lane per simulated resource (GPU, the two H2D streams, D2H,
    disk), ops colored by phase.

    Args:
        timeline: the executed
            :class:`~repro.runtime.timeline.Timeline` to export.

    Returns:
        A ``{"traceEvents": [...], "displayTimeUnit": "ms"}`` dict with
        every lane under ``pid 0`` and timestamps in microseconds.
    """
    pid = SIMULATED_PID
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "simulated timeline"},
        }
    ]
    # thread_name metadata records must use the reserved name.
    events.extend(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": _LANE[resource],
            "args": {"name": resource},
        }
        for resource in RESOURCES
    )
    for executed in timeline.executed:
        op = executed.op
        event = {
            "name": op.label,
            "cat": op.phase,
            "ph": "X",
            "ts": executed.start * 1e6,
            "dur": max(executed.duration * 1e6, 0.001),
            "pid": pid,
            "tid": _LANE[op.resource],
            "args": {"layer": op.layer, "batch": op.batch, "phase": op.phase},
        }
        color = _PHASE_COLORS.get(op.phase)
        if color:
            event["cname"] = color
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def report_to_chrome_events(report) -> list[dict]:
    """Per-replica group-execution lanes of a cluster run.

    Args:
        report: a :class:`~repro.cluster.report.ClusterReport`.

    Returns:
        ``pid 0`` events: one thread lane per replica, one slice per
        dispatched group (simulated seconds), sized by request count.
    """
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": SIMULATED_PID,
            "tid": 0,
            "args": {"name": "simulated cluster (replica lanes)"},
        }
    ]
    events.extend(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": SIMULATED_PID,
            "tid": stats.replica_id,
            "args": {"name": f"replica {stats.replica_id} [{stats.hardware}]"},
        }
        for stats in report.replicas
    )
    # Records are per request; groups are recovered from the shared
    # (replica, start, completion) execution window.
    groups: dict[tuple[int, float, float], int] = {}
    for record in report.records:
        key = (record.replica_id, record.start_s, record.completion_s)
        groups[key] = groups.get(key, 0) + 1
    for (replica_id, start, completion), n_requests in sorted(groups.items()):
        events.append(
            {
                "name": f"group ({n_requests} reqs)",
                "cat": "cluster",
                "ph": "X",
                "ts": start * 1e6,
                "dur": max((completion - start) * 1e6, 0.001),
                "pid": SIMULATED_PID,
                "tid": replica_id,
                "args": {"requests": n_requests},
            }
        )
    return events


def chrome_trace(
    *,
    spans: list[list] | None = None,
    timeline=None,
    report=None,
) -> dict:
    """Build the merged Chrome-trace document.

    Args:
        spans: tracer records for the simulator-self group (default: the
            process buffer; pass ``[]`` to omit).
        timeline: an executed :class:`~repro.runtime.timeline.Timeline`
            whose resource lanes form the simulated group.
        report: a cluster report whose replica lanes form the simulated
            group (mutually additive with ``timeline``).

    Returns:
        A ``{"traceEvents": [...], "displayTimeUnit": "ms"}`` dict.
    """
    events: list[dict] = []
    if timeline is not None:
        events.extend(timeline_to_chrome_trace(timeline)["traceEvents"])
    if report is not None:
        events.extend(report_to_chrome_events(report))
    events.extend(spans_to_chrome_events(spans))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def save_trace(
    path: str | Path,
    *,
    spans: list[list] | None = None,
    timeline=None,
    report=None,
) -> Path:
    """Write the merged trace file; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(spans=spans, timeline=timeline, report=report)))
    return path
