"""Content-addressed golden-trace snapshots for regression coverage.

A *golden* is a small JSON document summarizing one simulation artifact —
an executed timeline, a compiled schedule, or a cluster report — plus a
SHA-256 digest over its canonical serialization. Bulky per-op data
(start/end arrays, memory step functions) enters the digest through
nested array hashes, so a golden file stays a few hundred bytes while
still pinning the artifact bit-for-bit.

Goldens live under ``tests/goldens/`` and are compared by the golden
test suite; refresh them after an intentional behaviour change with::

    PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens

Refactors that must preserve simulation output (like the PR 3 compiled
executor) get regression coverage for free: if a digest moves, the diff
of the snapshot's summary fields says *what* moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.api.canonical import canonical_json, stable_hash
from repro.cluster.report import ClusterReport
from repro.runtime.schedule import RESOURCES, CompiledSchedule, Schedule
from repro.runtime.timeline import Timeline

DEFAULT_GOLDEN_ROOT = Path(__file__).resolve().parents[3] / "tests" / "goldens"


def _array_digest(values: np.ndarray) -> str:
    """SHA-256 over the exact little-endian bytes of a float64/int64 array."""
    arr = np.ascontiguousarray(values)
    if arr.dtype.byteorder == ">":  # pragma: no cover - big-endian hosts
        arr = arr.astype(arr.dtype.newbyteorder("<"))
    return hashlib.sha256(arr.tobytes()).hexdigest()


def snapshot_timeline(schedule: Schedule | CompiledSchedule, timeline: Timeline) -> dict:
    """Summarize an executed timeline for golden comparison.

    Args:
        schedule: the schedule the timeline came from.
        timeline: the executed timeline.

    Returns:
        A JSON-compatible snapshot with per-array digests and a
        content-addressing ``digest`` field.
    """
    compiled = schedule if isinstance(schedule, CompiledSchedule) else schedule.freeze()
    usage = {
        pool: {
            "samples": len(times),
            "times_sha256": _array_digest(times.astype(np.float64)),
            "levels_sha256": _array_digest(levels.astype(np.int64)),
        }
        for pool, (times, levels) in sorted(timeline.usage_arrays.items())
    }
    payload = {
        "kind": "timeline",
        "num_ops": compiled.num_ops,
        "makespan": repr(timeline.makespan),
        "busy_time": {
            r: repr(timeline.busy_time.get(r, 0.0)) for r in RESOURCES
        },
        "memory_peak": {
            pool: int(peak) for pool, peak in sorted(timeline.memory_peak.items())
        },
        "starts_sha256": _array_digest(timeline.starts.astype(np.float64)),
        "ends_sha256": _array_digest(timeline.ends.astype(np.float64)),
        "memory_usage": usage,
    }
    payload["digest"] = stable_hash(payload)
    return payload


def snapshot_schedule(schedule: Schedule | CompiledSchedule) -> dict:
    """Summarize a compiled schedule's IR for golden comparison.

    Args:
        schedule: the schedule (authoring or compiled form) to pin.

    Returns:
        A JSON-compatible snapshot of the structure-of-arrays form.
    """
    compiled = schedule if isinstance(schedule, CompiledSchedule) else schedule.freeze()
    payload = {
        "kind": "schedule",
        "num_ops": compiled.num_ops,
        "num_deps": int(compiled.dep_indptr[-1]) if compiled.num_ops else 0,
        "num_events": int(compiled.ev_op.shape[0]),
        "pool_names": list(compiled.pool_names),
        "resources_sha256": _array_digest(compiled.resources.astype(np.int16)),
        "durations_sha256": _array_digest(compiled.durations),
        "dep_indices_sha256": _array_digest(compiled.dep_indices),
        "ev_op_sha256": _array_digest(compiled.ev_op),
        "ev_delta_sha256": _array_digest(compiled.ev_delta),
    }
    payload["digest"] = stable_hash(payload)
    return payload


def snapshot_cluster(report: ClusterReport) -> dict:
    """Summarize a cluster report for golden comparison.

    Args:
        report: the simulator's aggregate result.

    Returns:
        A JSON-compatible snapshot with the full report digested and the
        headline metrics inline.
    """
    full = canonical_json(_floats_to_repr(report.to_dict()))
    payload = {
        "kind": "cluster",
        "router": report.router,
        "num_requests": len(report.records),
        "num_replicas": len(report.replicas),
        "makespan_s": repr(report.makespan_s),
        "throughput_tok_s": repr(report.throughput),
        "goodput_tok_s": repr(report.goodput),
        "expert_misses": report.expert_misses,
        "report_sha256": hashlib.sha256(full.encode()).hexdigest(),
    }
    payload["digest"] = stable_hash(payload)
    return payload


def snapshot_fleet(report: ClusterReport, *, stride: int = 1000) -> dict:
    """Summarize a fleet-scale cluster report for golden comparison.

    :func:`snapshot_cluster` pins small reports through one canonical
    serialization of the whole dict; at fleet scale (10^4..10^6 records)
    that pass costs seconds and hides *where* a drift happened. This
    variant digests the per-record lifecycle arrays column by column —
    still pinning every op bit-for-bit — and inlines every ``stride``-th
    record verbatim, so a digest move comes with concrete drifted
    values to stare at.

    Args:
        report: the simulator's aggregate result.
        stride: downsampling step for the inlined records.

    Returns:
        A JSON-compatible snapshot with a content-addressing ``digest``.
    """
    stride = max(1, stride)
    records = report.records
    columns = {
        "request_ids": np.array(
            [r.request.request_id for r in records], dtype=np.int64
        ),
        "replica_ids": np.array([r.replica_id for r in records], dtype=np.int64),
        "dispatch": np.array([r.dispatch_s for r in records], dtype=np.float64),
        "start": np.array([r.start_s for r in records], dtype=np.float64),
        "completion": np.array(
            [r.completion_s for r in records], dtype=np.float64
        ),
        "ttft": np.array([r.ttft_s for r in records], dtype=np.float64),
    }
    sampled = [
        {
            "index": i,
            "request_id": records[i].request.request_id,
            "replica_id": records[i].replica_id,
            "dispatch_s": repr(records[i].dispatch_s),
            "start_s": repr(records[i].start_s),
            "completion_s": repr(records[i].completion_s),
            "ttft_s": repr(records[i].ttft_s),
        }
        for i in range(0, len(records), stride)
    ]
    replicas = canonical_json(
        _floats_to_repr(
            [replica.to_dict(report.makespan_s) for replica in report.replicas]
        )
    )
    payload = {
        "kind": "fleet",
        "router": report.router,
        "num_requests": len(records),
        "num_replicas": len(report.replicas),
        "stride": stride,
        "makespan_s": repr(report.makespan_s),
        "throughput_tok_s": repr(report.throughput),
        "goodput_tok_s": repr(report.goodput),
        "p50_latency_s": repr(report.percentile_latency(50)),
        "p95_latency_s": repr(report.percentile_latency(95)),
        "p99_latency_s": repr(report.percentile_latency(99)),
        "p95_ttft_s": repr(report.percentile_ttft(95)),
        "expert_misses": report.expert_misses,
        "counters": dict(sorted(report.counters.items())),
        "columns_sha256": {
            name: _array_digest(arr) for name, arr in sorted(columns.items())
        },
        "replicas_sha256": hashlib.sha256(replicas.encode()).hexdigest(),
        "sampled_records": sampled,
    }
    payload["digest"] = stable_hash(payload)
    return payload


def _floats_to_repr(obj):
    """Recursively repr() floats so digests are bit-exact, not str()-lossy."""
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _floats_to_repr(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_floats_to_repr(v) for v in obj]
    return obj


class GoldenStore:
    """Load, save, and compare golden snapshots on disk.

    Args:
        root: directory holding the ``<name>.json`` goldens (default:
            ``tests/goldens/`` in the repository).
    """

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else DEFAULT_GOLDEN_ROOT

    def path(self, name: str) -> Path:
        """Disk path of one golden.

        Args:
            name: the golden's case name.

        Returns:
            ``<root>/<name>.json``.
        """
        return self.root / f"{name}.json"

    def load(self, name: str) -> dict | None:
        """Read a golden from disk.

        Args:
            name: the golden's case name.

        Returns:
            The stored snapshot, or None when absent.
        """
        path = self.path(name)
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def save(self, name: str, snapshot: dict) -> Path:
        """Write (or refresh) a golden.

        Args:
            name: the golden's case name.
            snapshot: the snapshot to store.

        Returns:
            The path written.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(name)
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        return path

    def compare(self, name: str, snapshot: dict) -> list[str]:
        """Compare a fresh snapshot against the stored golden.

        Args:
            name: the golden's case name.
            snapshot: the freshly computed snapshot.

        Returns:
            Mismatch descriptions; empty when digests agree. A missing
            golden is reported as a mismatch (run with
            ``--update-goldens`` to create it).
        """
        stored = self.load(name)
        if stored is None:
            return [
                f"{name}: no golden on disk at {self.path(name)} "
                "(create it with --update-goldens)"
            ]
        if stored.get("digest") == snapshot.get("digest"):
            return []
        diffs = [f"{name}: digest mismatch"]
        keys = sorted((set(stored) | set(snapshot)) - {"digest"})
        for key in keys:
            if stored.get(key) != snapshot.get(key):
                diffs.append(
                    f"{name}.{key}: {stored.get(key)!r} -> {snapshot.get(key)!r}"
                )
        return diffs
