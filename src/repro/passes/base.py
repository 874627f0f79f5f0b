"""Pass interface: what a schedule-optimization pass sees and returns.

A pass is a *local* rewrite proposal. It receives a :class:`PassContext`
— the frozen schedule, its executed baseline timeline, and the hardware
— and returns a :class:`PassResult` candidate (or None for "nothing to
do"). It never mutates the input and never decides acceptance: the
:class:`~repro.passes.pipeline.PassPipeline` executes the candidate,
checks every ``repro.validation`` invariant plus op-multiset
conservation, and rejects anything that regresses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.spec import HardwareSpec
from repro.passes.rewrite import OpMap
from repro.runtime.schedule import CompiledSchedule, Schedule
from repro.runtime.timeline import Timeline


@dataclass
class PassContext:
    """Everything a pass may inspect when proposing a rewrite.

    Attributes:
        schedule: the current (already-accepted) schedule.
        compiled: its frozen form.
        timeline: the executed baseline the pass is trying to beat.
        hardware: the machine the schedule targets.
    """

    schedule: Schedule
    compiled: CompiledSchedule
    timeline: Timeline
    hardware: HardwareSpec

    @property
    def makespan(self) -> float:
        return self.timeline.makespan


@dataclass
class PassResult:
    """A candidate rewrite: the new schedule plus its provenance map.

    ``op_map[j]`` lists the original op ids folded into new op ``j`` —
    singletons for pure reorderings, longer tuples for merges. The
    differential harness proves the map is a partition and that every
    group conserves resource, duration, and memory effects.
    """

    schedule: Schedule
    op_map: OpMap


class SchedulePass:
    """Base class for optimizer passes (register with
    :func:`repro.api.register_pass`)."""

    name = "unnamed"
    description = ""

    def apply(self, ctx: PassContext) -> PassResult | None:
        """Propose a rewrite of ``ctx.schedule`` (None: nothing to do)."""
        raise NotImplementedError
