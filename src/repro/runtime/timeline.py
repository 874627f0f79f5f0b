"""Executed timelines: per-op start/end times plus derived statistics.

A :class:`Timeline` holds the compiled schedule plus start/end arrays,
and only materializes per-op :class:`ExecutedOp` objects (or the
per-pool usage step functions) when somebody actually asks for them.
Callers that only need makespan, busy time, or memory peaks — the
metrics hot path — never pay for the full view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.runtime.schedule import GPU, RESOURCES, CompiledSchedule, Op


@dataclass(frozen=True)
class ExecutedOp:
    """An op together with its simulated start and end times."""

    op: Op
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class IdleGap:
    """A period in which a resource sat idle between two of its ops."""

    resource: str
    start: float
    end: float
    before_op: ExecutedOp  # the op whose start terminated the gap

    @property
    def duration(self) -> float:
        return self.end - self.start


class Timeline:
    """The result of executing a schedule.

    One representation, whichever engine produced it: the executed
    schedule plus per-op start/end arrays and the derived totals. The
    per-op :class:`ExecutedOp` list and the per-pool ``(time, level)``
    step functions are views over these arrays, built on first access —
    callers that only need makespan, busy time, or memory peaks (the
    metrics hot path) never pay for them.

    Attributes (all constructor arguments):
        compiled: the executed
            :class:`~repro.runtime.schedule.CompiledSchedule`.
        starts: per-op start times, float64 in op order.
        ends: per-op end times, float64 in op order.
        makespan: end time of the last op.
        busy_time: per-resource total busy seconds.
        memory_peak: per-pool peak bytes.
        usage_arrays: pool -> ``(times float64, levels int64)`` arrays
            in replay order.
    """

    def __init__(
        self,
        compiled: CompiledSchedule,
        starts: np.ndarray,
        ends: np.ndarray,
        makespan: float,
        busy_time: dict[str, float],
        memory_peak: dict[str, int],
        usage_arrays: dict[str, tuple[np.ndarray, np.ndarray]],
    ):
        self.compiled = compiled
        self.starts = starts
        self.ends = ends
        self.makespan = makespan
        self.busy_time = busy_time
        self.memory_peak = memory_peak
        self.usage_arrays = usage_arrays
        self._executed: list[ExecutedOp] | None = None
        self._memory_usage: dict[str, list[tuple[float, int]]] | None = None

    # ---- lazy views --------------------------------------------------------

    @property
    def executed(self) -> list[ExecutedOp]:
        """Per-op execution records (materialized on first access)."""
        if self._executed is None:
            ops = self.compiled._schedule.ops
            self._executed = [
                ExecutedOp(op, start, end)
                for op, start, end in zip(
                    ops, self.starts.tolist(), self.ends.tolist()
                )
            ]
        return self._executed

    @property
    def executed_is_materialized(self) -> bool:
        """True when the per-op view has been built (laziness probe)."""
        return self._executed is not None

    @property
    def memory_usage(self) -> dict[str, list[tuple[float, int]]]:
        """Per-pool usage step functions (materialized on first access)."""
        if self._memory_usage is None:
            self._memory_usage = {
                pool: list(zip(times.tolist(), levels.tolist()))
                for pool, (times, levels) in self.usage_arrays.items()
            }
        return self._memory_usage

    def start_of(self, op_id: int) -> float:
        """Start time of one op without materializing the full view."""
        return float(self.starts[op_id])

    def end_of(self, op_id: int) -> float:
        """End time of one op without materializing the full view."""
        return float(self.ends[op_id])

    # ---- derived statistics ------------------------------------------------

    def ops_on(self, resource: str) -> list[ExecutedOp]:
        return sorted(
            (e for e in self.executed if e.op.resource == resource),
            key=lambda e: (e.start, e.op.op_id),
        )

    def idle_gaps(self, resource: str = GPU, *, min_duration: float = 1e-9) -> list[IdleGap]:
        """Idle periods of ``resource`` between its first and last op."""
        ops = self.ops_on(resource)
        gaps: list[IdleGap] = []
        frontier = None
        for executed in ops:
            if frontier is not None and executed.start - frontier > min_duration:
                gaps.append(IdleGap(resource, frontier, executed.start, executed))
            frontier = executed.end if frontier is None else max(frontier, executed.end)
        return gaps

    def idle_time(self, resource: str = GPU) -> float:
        """Total idle seconds of ``resource`` between its first and last op."""
        mask = self.compiled.resources == RESOURCES.index(resource)
        starts = self.starts[mask]
        if starts.size < 2:
            return 0.0
        # Ops on one resource run FIFO, so ends are non-decreasing and the
        # idle frontier is simply the previous op's end.
        gaps = starts[1:] - self.ends[mask][:-1]
        return float(gaps[gaps > 1e-9].sum())

    def utilization(self, resource: str = GPU) -> float:
        """Busy fraction of the resource over the whole makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.busy_time.get(resource, 0.0) / self.makespan

    def memory_at(self, pool: str, time: float) -> int:
        """Pool usage at a given simulated time (step function lookup)."""
        entry = self.usage_arrays.get(pool)
        if entry is None:
            return 0
        times, levels = entry
        idx = int(np.searchsorted(times, time, side="right")) - 1
        return int(levels[idx]) if idx >= 0 else 0
