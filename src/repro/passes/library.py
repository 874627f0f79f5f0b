"""The built-in optimizer passes.

Three local rewrites over the schedule IR, in the spirit of SAMPO-style
composable local optimizers: each proposes a candidate the pipeline then
machine-checks against the ``repro.validation`` invariants before
accepting.

* ``coalesce-transfers`` — merge back-to-back transfer ops on one
  stream whose dependency cones allow it (fewer ops, identical timing);
* ``retime-prefetch`` — reorder each transfer stream by when its
  consumers need the data, hoisting urgent prefetches ahead of idle
  ones so compute bubbles shrink;
* ``fill-bubbles`` — greedy list scheduling over the whole dep graph,
  issuing whichever ready op can start earliest on its resource.
"""

from __future__ import annotations

import math

from repro.api.registry import register_pass
from repro.passes.base import PassContext, PassResult, SchedulePass
from repro.passes.rewrite import (
    greedy_order,
    order_groups,
    permute_schedule,
    rebuild_schedule,
)
from repro.runtime.schedule import DISK_IO, H2D, H2D_OD, RESOURCE_CODES

# The streams carrying weight/KV movement: the paper's prefetch,
# on-demand expert, and disk staging lanes.
TRANSFER_CODES = frozenset(
    (RESOURCE_CODES[H2D], RESOURCE_CODES[H2D_OD], RESOURCE_CODES[DISK_IO])
)


@register_pass("coalesce-transfers")
class CoalesceTransfersPass(SchedulePass):
    """Merge gapless same-stream transfer chains into single ops.

    Two consecutive ops of one transfer stream merge when the second
    starts exactly when the first ends, its external dependencies were
    already satisfied at the chain's start, and nothing but the chain
    itself consumes the first op's completion. Under those conditions
    the merged op starts and ends at the same instants, so the rewrite
    is timing-neutral by construction (the pipeline still re-proves it).
    """

    name = "coalesce-transfers"
    description = "merge adjacent same-resource transfer ops"

    def apply(self, ctx: PassContext) -> PassResult | None:
        schedule = ctx.schedule
        n = len(schedule)
        res = schedule._res
        deps = schedule._deps
        starts, ends = ctx.timeline.starts, ctx.timeline.ends
        dependents = [0] * n
        for dep_ids in deps:
            for d in dep_ids:
                dependents[d] += 1

        streams: dict[int, list[int]] = {code: [] for code in TRANSFER_CODES}
        for op in range(n):
            if res[op] in streams:
                streams[res[op]].append(op)

        chain_of = [-1] * n  # op -> chain head (chain members only)
        chains: dict[int, list[int]] = {}
        for stream in streams.values():
            # Chains grow along consecutive stream ops, so the candidate's
            # predecessor in the stream is always the current chain tail.
            for prev, op in zip(stream, stream[1:]):
                if starts[op] != ends[prev]:
                    continue  # the stream idled between them
                consumed = dependents[prev]
                if consumed and not (consumed == 1 and prev in deps[op]):
                    continue  # something else waits on prev's completion
                head = chain_of[prev] if chain_of[prev] != -1 else prev
                members = chains.get(head, [head])
                if any(
                    d not in members and ends[d] > starts[head]
                    for d in deps[op]
                ):
                    continue  # an external dep would delay the merged start
                chain = chains.setdefault(head, [head])
                chain.append(op)
                chain_of[head] = head
                chain_of[op] = head

        if not chains:
            return None
        groups: list[tuple[int, ...]] = []
        for op in range(n):
            head = chain_of[op]
            if head == -1:
                groups.append((op,))
            elif head == op:
                groups.append(tuple(chains[op]))
            # non-head chain members fold into their head's group
        # Chains on different streams interleave in op-id space, so head
        # order alone can put a merged group before one it depends on.
        ordered = order_groups(schedule, groups)
        if ordered is None:
            return None
        return PassResult(*rebuild_schedule(schedule, ordered))


@register_pass("retime-prefetch")
class RetimePrefetchPass(SchedulePass):
    """Reorder transfer streams by consumer need time.

    Each transfer op's urgency is the earliest baseline start among the
    ops depending on it; streams re-issue in urgency order (compute
    streams keep their original order). Prefetches whose consumers stall
    the GPU move ahead of transfers nothing is waiting for, hoisting
    them into compute bubbles. Memory safety is not assumed: the
    pipeline replays the candidate's pool usage and rejects it if the
    peak exceeds capacity.
    """

    name = "retime-prefetch"
    description = "hoist urgent prefetch transfers ahead of idle ones"

    def apply(self, ctx: PassContext) -> PassResult | None:
        schedule = ctx.schedule
        n = len(schedule)
        res = schedule._res
        starts = ctx.timeline.starts
        need = [math.inf] * n
        for op, dep_ids in enumerate(schedule._deps):
            start = float(starts[op])
            for d in dep_ids:
                if start < need[d]:
                    need[d] = start

        def priority(op: int, ready: float) -> tuple:
            if res[op] in TRANSFER_CODES:
                return (need[op], op)
            return (0.0, op)  # compute streams stay in issue order

        order = greedy_order(schedule, priority)
        if order == list(range(n)):
            return None
        return PassResult(*permute_schedule(schedule, order))


@register_pass("fill-bubbles")
class FillBubblesPass(SchedulePass):
    """Greedy bubble-filling reordering of every resource stream.

    Event-driven list scheduling over the CSR dep graph: among the ops
    whose dependencies have completed, issue the one that can start
    earliest on its resource (ties broken by resource then original id).
    Ready work therefore moves into idle slots instead of queueing
    behind unrelated ops issued earlier.
    """

    name = "fill-bubbles"
    description = "move ready ops earlier on idle resources"

    def apply(self, ctx: PassContext) -> PassResult | None:
        schedule = ctx.schedule
        n = len(schedule)
        order = greedy_order(schedule, lambda op, ready: (ready, op))
        if order == list(range(n)):
            return None
        return PassResult(*permute_schedule(schedule, order))
