"""Differential testing of the executor against its per-op reference.

The executor (:class:`~repro.runtime.executor.Executor`) computes
start/end times in one tight pass over the frozen schedule and replays
memory vectorized. :func:`reference_run` is the slow, obvious
specification it must reproduce: one op at a time over materialized
:class:`~repro.runtime.schedule.Op` objects, then an event-by-event
memory replay. It lives here, next to the only harness that diffs
against it, and shares no timing or replay code with the executor.

:func:`run_differential` executes one schedule both ways and diffs the
results op-for-op: start/end times, busy time, memory usage step
functions, peaks, makespan, and — when a capacity bound is exceeded —
the full OOM error payload. Any disagreement is a bug in one of the two,
and the scenario fuzzer feeds this oracle randomized-but-seeded
schedules from every subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import OutOfMemoryError
from repro.hardware.spec import HardwareSpec
from repro.runtime.executor import Executor, ExecutorConfig, default_capacities
from repro.runtime.schedule import RESOURCES, Schedule
from repro.runtime.timeline import Timeline


def reference_run(
    schedule: Schedule,
    hardware: HardwareSpec,
    *,
    capacities: dict[str, int] | None = None,
) -> Timeline:
    """Execute ``schedule`` one op at a time: the executable specification.

    Args:
        schedule: the op DAG to execute.
        hardware: the simulated machine (default pool capacities).
        capacities: pool-capacity overrides, as for
            :meth:`Executor.run <repro.runtime.executor.Executor.run>`.

    Returns:
        The executed :class:`~repro.runtime.timeline.Timeline`.

    Raises:
        OutOfMemoryError: the first replayed event that overflows a pool
            the default :class:`ExecutorConfig` enforces.
    """
    enforced_pools = ExecutorConfig().enforced_pools
    if capacities is None:
        capacities = default_capacities(hardware)
    schedule.validate()
    available = {resource: 0.0 for resource in RESOURCES}
    busy = {resource: 0.0 for resource in RESOURCES}
    starts: list[float] = []
    ends: list[float] = []
    makespan = 0.0
    for op in schedule:
        ready = available[op.resource]
        for dep in op.deps:
            if ends[dep] > ready:
                ready = ends[dep]
        finish = ready + op.duration
        available[op.resource] = finish
        busy[op.resource] += op.duration
        starts.append(ready)
        ends.append(finish)
        if finish > makespan:
            makespan = finish

    # Replay memory effects in simulated-time order. Frees sort before
    # allocs at identical times (free-then-alloc steady-state reuse should
    # not double count).
    events: list[tuple[float, int, str, int]] = []
    for op, start, end in zip(schedule, starts, ends):
        for effect in op.frees:
            events.append((end, 0, effect.pool, -effect.nbytes))
        for effect in op.allocs:
            events.append((start, 1, effect.pool, effect.nbytes))
    events.sort(key=lambda ev: (ev[0], ev[1]))
    samples: dict[str, list[tuple[float, int]]] = {}
    current: dict[str, int] = {}
    peaks: dict[str, int] = {}
    for time, _, pool, delta in events:
        level = current.get(pool, 0) + delta
        current[pool] = level
        samples.setdefault(pool, []).append((time, level))
        if level > peaks.get(pool, 0):
            peaks[pool] = level
        capacity = capacities.get(pool)
        if pool in enforced_pools and capacity is not None and level > capacity:
            raise OutOfMemoryError(pool, delta, capacity - (level - delta))

    usage_arrays = {
        pool: (
            np.array([t for t, _ in pool_samples], dtype=np.float64),
            np.array([v for _, v in pool_samples], dtype=np.int64),
        )
        for pool, pool_samples in samples.items()
    }
    return Timeline(
        schedule.freeze(),
        np.array(starts, dtype=np.float64),
        np.array(ends, dtype=np.float64),
        makespan,
        busy,
        peaks,
        usage_arrays,
    )


@dataclass
class DifferentialResult:
    """Outcome of running one schedule through the executor and the
    reference.

    Attributes:
        diffs: human-readable descriptions of every disagreement
            (empty when both agree bit-for-bit).
        oom: True when both raised :class:`OutOfMemoryError`.
        timeline: the executor's timeline (None on OOM).
        reference: the reference timeline (None on OOM).
    """

    diffs: list[str] = field(default_factory=list)
    oom: bool = False
    timeline: Timeline | None = None
    reference: Timeline | None = None

    @property
    def ok(self) -> bool:
        """True when both agreed on every observable output."""
        return not self.diffs


def diff_timelines(
    reference: Timeline, candidate: Timeline, *, max_reports: int = 5
) -> list[str]:
    """Diff two timelines of the same schedule op-for-op.

    Args:
        reference: the trusted timeline (:func:`reference_run`).
        candidate: the timeline under test (the executor's).
        max_reports: cap on reported per-op mismatches.

    Returns:
        Descriptions of every observed disagreement (empty when the
        timelines are bit-identical in every observable).
    """
    diffs: list[str] = []
    ref_starts, ref_ends = reference.starts, reference.ends
    cand_starts, cand_ends = candidate.starts, candidate.ends
    if len(ref_starts) != len(cand_starts):
        diffs.append(f"op count: {len(ref_starts)} != {len(cand_starts)}")
        return diffs

    bad = np.flatnonzero((ref_starts != cand_starts) | (ref_ends != cand_ends))
    for i in bad[:max_reports]:
        # Materializing the per-op view to name the op is fine here: we
        # are already on the (rare) mismatch path.
        diffs.append(
            f"op {i} ({reference.executed[i].op.label}): "
            f"[{ref_starts[i]!r}, {ref_ends[i]!r}] != "
            f"[{cand_starts[i]!r}, {cand_ends[i]!r}]"
        )
    if len(bad) > max_reports:
        diffs.append(f"... {len(bad) - max_reports} more op timing diffs")

    if reference.makespan != candidate.makespan:
        diffs.append(
            f"makespan: {reference.makespan!r} != {candidate.makespan!r}"
        )
    for resource in RESOURCES:
        ref_busy = reference.busy_time.get(resource, 0.0)
        cand_busy = candidate.busy_time.get(resource, 0.0)
        if ref_busy != cand_busy:
            diffs.append(f"busy[{resource}]: {ref_busy!r} != {cand_busy!r}")
    if reference.memory_peak != candidate.memory_peak:
        diffs.append(
            f"memory peaks: {reference.memory_peak} != {candidate.memory_peak}"
        )
    ref_usage, cand_usage = reference.usage_arrays, candidate.usage_arrays
    for pool in sorted(set(ref_usage) | set(cand_usage)):
        ref_pool, cand_pool = ref_usage.get(pool), cand_usage.get(pool)
        if (
            ref_pool is None
            or cand_pool is None
            or not np.array_equal(ref_pool[0], cand_pool[0])
            or not np.array_equal(ref_pool[1], cand_pool[1])
        ):
            diffs.append(f"memory usage differs for pool {pool!r}")
    return diffs


def _outcome(run, *args, **kwargs):
    try:
        return run(*args, **kwargs), None
    except OutOfMemoryError as exc:
        return None, exc


def run_differential(
    schedule: Schedule,
    hardware: HardwareSpec,
    *,
    capacities: dict[str, int] | None = None,
) -> DifferentialResult:
    """Execute ``schedule`` through the executor and the reference and
    diff every observable.

    Args:
        schedule: the op DAG to execute.
        hardware: the simulated machine both run against.
        capacities: pool-capacity overrides (near-OOM budgets are the
            interesting case: both must agree on whether — and exactly
            how — the run dies).

    Returns:
        A :class:`DifferentialResult`; ``result.ok`` means agreement.
    """
    result = DifferentialResult()
    ref_t, ref_err = _outcome(
        reference_run, schedule, hardware, capacities=capacities
    )
    fast_t, fast_err = _outcome(
        Executor(hardware).run, schedule, capacities=capacities
    )

    if (ref_err is None) != (fast_err is None):
        which = "reference" if ref_err is not None else "compiled"
        err = ref_err if ref_err is not None else fast_err
        result.diffs.append(f"only the {which} engine raised OOM: {err}")
        return result
    if ref_err is not None and fast_err is not None:
        result.oom = True
        if (ref_err.pool, ref_err.requested, ref_err.available) != (
            fast_err.pool,
            fast_err.requested,
            fast_err.available,
        ):
            result.diffs.append(
                "OOM payload mismatch: "
                f"reference ({ref_err.pool}, {ref_err.requested}, "
                f"{ref_err.available}) != compiled ({fast_err.pool}, "
                f"{fast_err.requested}, {fast_err.available})"
            )
        return result

    result.reference = ref_t
    result.timeline = fast_t
    result.diffs = diff_timelines(ref_t, fast_t)
    return result
