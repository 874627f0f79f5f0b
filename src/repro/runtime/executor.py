"""Discrete-event execution of a schedule on simulated hardware.

Each resource (GPU, CPU, PCIe direction, disk) runs its ops FIFO in issue
order — the semantics of CUDA streams. An op starts when (a) its resource
has finished everything issued before it and (b) all its dependencies have
completed; this is exactly the `sync()` behaviour of the paper's
Algorithm 1. Because issue order is a valid topological order (the schedule
IR only allows backward deps), start/end times can be computed in a single
pass.

The executor freezes the schedule (deriving its structure-of-arrays form)
and computes start/end times in one tight pass over its columns, then
replays memory vectorized (a stable sort of the flat event stream plus a
per-pool ``cumsum``, with capacity checks against the vectorized running
peaks). It returns a :class:`~repro.runtime.timeline.Timeline` whose
per-op view is only materialized on demand. The slow, obvious per-op
reference it must reproduce bit-for-bit lives next to the harness that
diffs against it, :func:`repro.validation.differential.reference_run`.

Memory effects are replayed in simulated-time order (frees before allocs
at identical times) to produce per-pool usage timelines and detect
capacity violations, reproducing where a real run would raise CUDA OOM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import OutOfMemoryError
from repro.hardware.spec import HardwareSpec
from repro.obs import span
from repro.runtime.schedule import EV_ALLOC, RESOURCES, Schedule
from repro.runtime.timeline import Timeline

# Pools whose capacity is enforced; DRAM/disk planning errors are
# placement bugs, VRAM overflow is the paper's OOM condition.
ENFORCED_POOLS = ("vram",)


@dataclass(frozen=True)
class ExecutorConfig:
    """Execution options."""

    check_memory: bool = True


def default_capacities(hardware: HardwareSpec) -> dict[str, int]:
    """Pool capacities of ``hardware``: usable VRAM, DRAM and disk bytes."""
    return {
        "vram": hardware.usable_vram(),
        "dram": hardware.dram_bytes,
        "disk": hardware.disk_bytes,
    }


class Executor:
    """Runs schedules against a :class:`HardwareSpec`."""

    def __init__(self, hardware: HardwareSpec, config: ExecutorConfig | None = None):
        self.hardware = hardware
        self.config = config or ExecutorConfig()

    def run(
        self,
        schedule: Schedule,
        *,
        capacities: dict[str, int] | None = None,
    ) -> Timeline:
        """Execute ``schedule``; returns the resulting :class:`Timeline`.

        The schedule is frozen first (a no-op when it already is), so it
        can no longer change once it has run. ``capacities`` overrides
        pool capacities (defaults to the hardware spec's usable VRAM /
        DRAM / disk sizes).
        """
        with span("schedule.freeze"):
            schedule.freeze()
        starts: list[float] = []
        ends: list[float] = []
        available = [0.0] * len(RESOURCES)
        append_start = starts.append
        append_end = ends.append
        # freeze() validated every dep as pointing backwards, so ``ends``
        # always holds the ends it indexes.
        with span("executor.timing_pass", {"ops": len(schedule)}):
            for code, dur, deps in zip(schedule._res, schedule._dur, schedule._deps):
                t = available[code]
                for dep in deps:
                    dep_end = ends[dep]
                    if dep_end > t:
                        t = dep_end
                append_start(t)
                t += dur
                available[code] = t
                append_end(t)

        starts_arr = np.array(starts, dtype=np.float64)
        ends_arr = np.array(ends, dtype=np.float64)
        # bincount accumulates in array order, matching the reference
        # engine's sequential ``+=`` float summation exactly.
        busy_arr = np.bincount(
            schedule.resources,
            weights=schedule.durations,
            minlength=len(RESOURCES),
        )
        busy = {resource: float(busy_arr[i]) for i, resource in enumerate(RESOURCES)}
        makespan = max(ends) if ends else 0.0

        if capacities is None:
            capacities = default_capacities(self.hardware)
        with span("executor.memory_replay"):
            usage_arrays, peaks = self._replay_memory_compiled(
                schedule, starts_arr, ends_arr, capacities
            )
        return Timeline(
            schedule, starts_arr, ends_arr, makespan, busy, peaks, usage_arrays
        )

    def _replay_memory_compiled(
        self,
        schedule: Schedule,
        starts: np.ndarray,
        ends: np.ndarray,
        capacities: dict[str, int],
    ) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], dict[str, int]]:
        """Vectorized replay: stable argsort by (time, kind), per-pool cumsum."""
        n_events = schedule.ev_op.shape[0]
        usage: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        peaks: dict[str, int] = {}
        if n_events == 0:
            return usage, peaks
        times = np.where(
            schedule.ev_kind == EV_ALLOC,
            starts[schedule.ev_op],
            ends[schedule.ev_op],
        )
        # Event arrays are already in replay (insertion) order, and lexsort
        # is stable, so ties on (time, kind) keep that order — exactly the
        # reference engine's ``events.sort(key=(time, kind))``.
        order = np.lexsort((schedule.ev_kind, times))
        times_s = times[order]
        deltas_s = schedule.ev_delta[order]
        pools_s = schedule.ev_pool[order]

        oom: tuple[int, str, int, int] | None = None  # (rank, pool, delta, level)
        for code, pool in enumerate(schedule.pool_names):
            mask = pools_s == code
            if not mask.any():
                continue
            levels = np.cumsum(deltas_s[mask])
            peak = int(levels.max())
            if peak > 0:
                peaks[pool] = peak
            usage[pool] = (times_s[mask], levels)
            capacity = capacities.get(pool)
            if (
                self.config.check_memory
                and capacity is not None
                and pool in ENFORCED_POOLS
                and peak > capacity
            ):
                local = int(np.argmax(levels > capacity))
                rank = int(np.flatnonzero(mask)[local])
                if oom is None or rank < oom[0]:
                    oom = (rank, pool, int(deltas_s[mask][local]), int(levels[local]))
        if oom is not None:
            _, pool, delta, level = oom
            raise OutOfMemoryError(pool, delta, capacities[pool] - (level - delta))
        return usage, peaks
