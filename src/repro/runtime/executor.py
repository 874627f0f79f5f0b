"""Discrete-event execution of a schedule on simulated hardware.

Each resource (GPU, CPU, PCIe direction, disk) runs its ops FIFO in issue
order — the semantics of CUDA streams. An op starts when (a) its resource
has finished everything issued before it and (b) all its dependencies have
completed; this is exactly the `sync()` behaviour of the paper's
Algorithm 1. Because issue order is a valid topological order (the schedule
IR only allows backward deps), start/end times can be computed in a single
pass.

The executor freezes the schedule into its structure-of-arrays form and
computes start/end times in one tight pass over preconverted lists, then
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

from repro.errors import OutOfMemoryError, ScheduleError
from repro.hardware.spec import HardwareSpec
from repro.obs import span
from repro.runtime.schedule import (
    EV_ALLOC,
    RESOURCES,
    CompiledSchedule,
    Schedule,
)
from repro.runtime.timeline import Timeline


@dataclass(frozen=True)
class ExecutorConfig:
    """Execution options."""

    check_memory: bool = True
    # Pools whose capacity is enforced; DRAM/disk planning errors are
    # placement bugs, VRAM overflow is the paper's OOM condition.
    enforced_pools: tuple[str, ...] = ("vram",)


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
        schedule: Schedule | CompiledSchedule,
        *,
        capacities: dict[str, int] | None = None,
    ) -> Timeline:
        """Execute ``schedule``; returns the resulting :class:`Timeline`.

        Accepts either the authoring :class:`Schedule` (frozen on the fly)
        or an already-compiled :class:`CompiledSchedule`. ``capacities``
        overrides pool capacities (defaults to the hardware spec's usable
        VRAM / DRAM / disk sizes).
        """
        if isinstance(schedule, CompiledSchedule):
            compiled = schedule
        else:
            with span("schedule.freeze"):
                compiled = schedule.freeze()
        starts: list[float] = []
        ends: list[float] = []
        available = [0.0] * len(RESOURCES)
        append_start = starts.append
        append_end = ends.append
        timing_span = span("executor.timing_pass", {"ops": compiled.num_ops})
        try:
            # ``ends`` only holds already-finished ops, so a forward (or
            # self) dependency fails fast as an IndexError instead of
            # silently reading zero.
            for code, dur, deps in zip(
                compiled._res_list, compiled._dur_list, compiled._deps_list
            ):
                t = available[code]
                for dep in deps:
                    dep_end = ends[dep]
                    if dep_end > t:
                        t = dep_end
                append_start(t)
                t += dur
                available[code] = t
                append_end(t)
        except IndexError:
            raise ScheduleError(
                f"op {len(ends)} has a forward or self dependency"
            ) from None
        finally:
            timing_span.__exit__()

        starts_arr = np.array(starts, dtype=np.float64)
        ends_arr = np.array(ends, dtype=np.float64)
        # bincount accumulates in array order, matching the reference
        # engine's sequential ``+=`` float summation exactly.
        busy_arr = np.bincount(
            compiled.resources,
            weights=compiled.durations,
            minlength=len(RESOURCES),
        )
        busy = {resource: float(busy_arr[i]) for i, resource in enumerate(RESOURCES)}
        makespan = max(ends) if ends else 0.0

        if capacities is None:
            capacities = default_capacities(self.hardware)
        with span("executor.memory_replay"):
            usage_arrays, peaks = self._replay_memory_compiled(
                compiled, starts_arr, ends_arr, capacities
            )
        return Timeline(
            compiled, starts_arr, ends_arr, makespan, busy, peaks, usage_arrays
        )

    def _replay_memory_compiled(
        self,
        compiled: CompiledSchedule,
        starts: np.ndarray,
        ends: np.ndarray,
        capacities: dict[str, int],
    ) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], dict[str, int]]:
        """Vectorized replay: stable argsort by (time, kind), per-pool cumsum."""
        n_events = compiled.ev_op.shape[0]
        usage: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        peaks: dict[str, int] = {}
        if n_events == 0:
            return usage, peaks
        times = np.where(
            compiled.ev_kind == EV_ALLOC,
            starts[compiled.ev_op],
            ends[compiled.ev_op],
        )
        # Event arrays are already in replay (insertion) order, and lexsort
        # is stable, so ties on (time, kind) keep that order — exactly the
        # reference engine's ``events.sort(key=(time, kind))``.
        order = np.lexsort((compiled.ev_kind, times))
        times_s = times[order]
        deltas_s = compiled.ev_delta[order]
        pools_s = compiled.ev_pool[order]

        oom: tuple[int, str, int, int] | None = None  # (rank, pool, delta, level)
        for code, pool in enumerate(compiled.pool_names):
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
                and pool in self.config.enforced_pools
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
