"""Schedule-optimization passes: rewrites, pipeline gating, conservation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bubbles import analyze_bubbles
from repro.api import PASSES, pass_names
from repro.errors import ScheduleError
from repro.passes import (
    DEFAULT_PASS_QUEUE,
    PassPipeline,
    PassResult,
    SchedulePass,
)
from repro.passes.rewrite import (
    greedy_order,
    order_groups,
    permute_schedule,
    rebuild_schedule,
)
from repro.runtime.executor import Executor
from repro.runtime.schedule import (
    GPU,
    H2D,
    PHASE_ATTENTION,
    PHASE_EXPERT,
    MemEffect,
    Schedule,
)
from repro.validation import check_conservation, run_pass_differential
from repro.validation.differential import reference_run
from tests.test_executor import make_hw


def bubbly_schedule() -> Schedule:
    """A schedule with an avoidable GPU bubble.

    The second compute waits on a transfer issued *behind* an idle
    transfer nothing needs soon; retiming the stream removes the stall.
    """
    s = Schedule()
    s.compute(1.0, "c0")
    s.transfer_in(2.0, "idle")  # nothing depends on this
    urgent = s.transfer_in(1.0, "urgent")
    s.compute(1.0, "c1", deps=[urgent])
    return s


def chain_schedule() -> Schedule:
    """Back-to-back transfers feeding one compute — a coalesce target."""
    s = Schedule()
    a = s.transfer_in(1.0, "wa")
    b = s.transfer_in(1.0, "wb", deps=[a])
    c = s.transfer_in(1.0, "wc", deps=[b])
    s.compute(1.0, "use", deps=[c])
    return s


class TestRebuildSchedule:
    def test_identity_groups_copy_everything(self):
        s = chain_schedule()
        out, op_map = rebuild_schedule(s, [(i,) for i in range(len(s))])
        assert op_map == ((0,), (1,), (2,), (3,))
        assert out._res == s._res
        assert out._dur == s._dur
        assert out._deps == s._deps
        assert out._rendered_labels() == s._rendered_labels()

    def test_merge_sums_durations_and_remaps_deps(self):
        s = chain_schedule()
        out, op_map = rebuild_schedule(s, [(0, 1, 2), (3,)])
        assert op_map == ((0, 1, 2), (3,))
        assert len(out) == 2
        assert out._dur[0] == ((1.0 + 1.0) + 1.0)  # sequential float sum
        assert out._deps[0] == ()  # intra-group deps dissolve
        assert out._deps[1] == (0,)
        assert out._rendered_labels()[0] == "wa(+2)"

    def test_merge_pools_memory_effects(self):
        s = Schedule()
        a = s.transfer_in(1.0, "wa", allocs=[MemEffect("vram", "a", 10)])
        s.transfer_in(1.0, "wb", deps=[a], allocs=[MemEffect("vram", "b", 20)])
        out, _ = rebuild_schedule(s, [(0, 1)])
        assert sorted(zip(out._ev_tensor, out._ev_nbytes)) == [
            ("a", 10), ("b", 20)
        ]
        assert out._ev_op == [0, 0]

    def test_non_partition_rejected(self):
        s = chain_schedule()
        with pytest.raises(ScheduleError, match="not a partition"):
            rebuild_schedule(s, [(0, 0), (1,), (2,), (3,)])
        with pytest.raises(ScheduleError, match="cover every op"):
            rebuild_schedule(s, [(0,), (1,), (2,)])

    def test_mixed_resource_group_rejected(self):
        s = chain_schedule()
        with pytest.raises(ScheduleError, match="mixes resources"):
            rebuild_schedule(s, [(0, 3), (1,), (2,)])

    def test_permute_is_singleton_rebuild(self):
        s = bubbly_schedule()
        out, op_map = permute_schedule(s, [0, 2, 1, 3])
        assert op_map == ((0,), (2,), (1,), (3,))
        assert out._dur == [1.0, 1.0, 2.0, 1.0]
        # op 3 depended on op 2 ("urgent"), now renumbered to 1.
        assert out._deps[3] == (1,)


class TestOrderGroups:
    def test_orders_interleaved_chains_topologically(self):
        # Chain A = ops {0, 3} on h2d, chain B = {1, 2} on disk; A's tail
        # depends on B's tail, so A's group must come second even though
        # its head id is smaller.
        s = Schedule()
        a0 = s.transfer_in(1.0, "a0")
        b0 = s.disk_read(1.0, "b0")
        b1 = s.disk_read(1.0, "b1", deps=[b0])
        s.transfer_in(1.0, "a1", deps=[a0, b1])
        ordered = order_groups(s, [(0, 3), (1, 2)])
        assert ordered == [(1, 2), (0, 3)]

    def test_condensation_cycle_returns_none(self):
        # a2 -> b1 and b2 -> a1: each merged group depends on the other.
        s = Schedule()
        a1 = s.transfer_in(1.0, "a1")
        b1 = s.disk_read(1.0, "b1")
        a2 = s.transfer_in(1.0, "a2", deps=[a1, b1])
        s.disk_read(1.0, "b2", deps=[b1, a1])
        assert order_groups(s, [(a1, a2), (b1, 3)]) is None

    def test_singletons_keep_program_order_when_independent(self):
        s = bubbly_schedule()
        ordered = order_groups(s, [(i,) for i in range(len(s))])
        assert ordered == [(0,), (1,), (2,), (3,)]


class TestGreedyOrder:
    def test_orders_are_topologically_valid(self):
        s = bubbly_schedule()
        order = greedy_order(s, lambda op, ready: (ready, op))
        seen = set()
        for op in order:
            assert all(d in seen for d in s._deps[op])
            seen.add(op)
        assert sorted(order) == list(range(len(s)))

    def test_priority_reorders_within_stream(self):
        s = bubbly_schedule()
        urgency = {1: 1.0, 2: 0.0}  # transfer op -> urgency
        order = greedy_order(
            s, lambda op, ready: (urgency.get(op, 0.0), op)
        )
        assert order.index(2) < order.index(1)


class TestCheckConservation:
    def test_clean_rewrite_has_no_violations(self):
        s = chain_schedule()
        out, op_map = rebuild_schedule(s, [(0, 1, 2), (3,)])
        assert check_conservation(s, out, op_map) == []

    def test_dropped_op_detected(self):
        s = chain_schedule()
        out, _ = rebuild_schedule(s, [(0, 1, 2), (3,)])
        bad_map = ((0, 1), (3,))
        violations = check_conservation(s, out, bad_map)
        assert any("dropped" in str(v) for v in violations)

    def test_changed_duration_detected(self):
        s = chain_schedule()
        out, op_map = rebuild_schedule(s, [(i,) for i in range(len(s))])
        out._dur[0] = 0.5
        out._invalidate()
        violations = check_conservation(s, out, op_map)
        assert any("duration" in str(v) for v in violations)

    def test_changed_effects_detected(self):
        s = Schedule()
        s.transfer_in(1.0, "w", allocs=[MemEffect("vram", "w", 10)])
        out, op_map = rebuild_schedule(s, [(0,)])
        out._ev_nbytes[0] = 99
        out._invalidate()
        violations = check_conservation(s, out, op_map)
        assert any("memory-effect" in str(v) for v in violations)


class TestFreezeValidation:
    def test_forward_dep_fails_at_freeze(self):
        s = Schedule()
        s.append_row(0, 1.0, "bad", (1,), -1, "other")
        with pytest.raises(ScheduleError, match="forward or self dependency"):
            s.freeze()

    def test_dangling_dep_fails_at_freeze(self):
        s = Schedule()
        s.compute(1.0, "a")
        s.append_row(0, 1.0, "bad", (5,), -1, "other")
        with pytest.raises(ScheduleError, match="forward or self"):
            s.freeze()

    def test_negative_duration_fails_at_freeze(self):
        s = Schedule()
        s.compute(1.0, "a")
        s._dur[0] = -1.0
        s._invalidate()
        with pytest.raises(ScheduleError, match="negative duration"):
            s.freeze()

    def test_negative_dep_fails_at_freeze(self):
        s = Schedule()
        s.append_row(0, 1.0, "bad", (-1,), -1, "other")
        with pytest.raises(ScheduleError, match="negative dependency"):
            s.freeze()


class RaisingPass(SchedulePass):
    name = "raising"

    def apply(self, ctx):
        raise ScheduleError("boom")


class DropOpPass(SchedulePass):
    """Illegally drops the last op (caught by conservation)."""

    name = "drop-op"

    def apply(self, ctx):
        n = len(ctx.schedule)
        sub, _ = rebuild_schedule(
            ctx.schedule, [(i,) for i in range(n)]
        )
        groups = tuple((i,) for i in range(n - 1))
        del sub._res[-1], sub._dur[-1], sub._deps[-1], sub._labels[-1]
        del sub._layers[-1], sub._phases[-1], sub._batches[-1]
        sub._invalidate()
        return PassResult(sub, groups)


class SlowdownPass(SchedulePass):
    """Valid rewrite that regresses makespan (caught by the metric gate).

    Only meaningful on the three-op schedule in the regression test: it
    queues the transfer-blocked compute ahead of the free one.
    """

    name = "slowdown"

    def apply(self, ctx):
        return PassResult(*permute_schedule(ctx.schedule, [0, 2, 1]))


class TestPassPipeline:
    def test_default_queue_resolves_registry(self):
        pipeline = PassPipeline()
        assert tuple(p.name for p in pipeline.passes) == DEFAULT_PASS_QUEUE
        assert sorted(pass_names()) == sorted(DEFAULT_PASS_QUEUE)

    def test_retime_fills_bubble(self):
        result = PassPipeline(["retime-prefetch"]).run(
            bubbly_schedule(), make_hw()
        )
        assert result.accepted == ("retime-prefetch",)
        assert result.makespan < result.baseline_makespan
        decision = result.decisions[0]
        assert decision.accepted and decision.reason == ""
        assert "accepted" in decision.summary()

    def test_coalesce_merges_chain(self):
        result = PassPipeline(["coalesce-transfers"]).run(
            chain_schedule(), make_hw()
        )
        assert result.accepted == ("coalesce-transfers",)
        assert len(result.schedule) == 2
        assert result.makespan == result.baseline_makespan
        assert result.remap_op(0) == result.remap_op(2) == 0
        assert result.remap_op(3) == 1

    def test_noop_on_nothing_to_rewrite(self):
        s = Schedule()
        s.compute(1.0, "a")
        s.compute(1.0, "b", deps=[0])
        result = PassPipeline().run(s, make_hw())
        assert result.accepted == ()
        assert {d.status for d in result.decisions} == {"no-op"}
        assert result.op_map is None
        assert result.schedule is s

    def test_raising_pass_rejected_with_reason(self):
        result = PassPipeline([RaisingPass()]).run(bubbly_schedule(), make_hw())
        (decision,) = result.decisions
        assert decision.status == "rejected"
        assert "pass raised: boom" in decision.reason

    def test_conservation_violation_rejected(self):
        result = PassPipeline([DropOpPass()]).run(bubbly_schedule(), make_hw())
        (decision,) = result.decisions
        assert decision.status == "rejected"
        assert decision.reason.startswith("conservation:")
        assert result.schedule is not None and len(result.schedule) == 4

    def test_makespan_regression_rejected(self):
        s = Schedule()
        t = s.transfer_in(2.0, "w")
        s.compute(1.0, "a")
        s.compute(1.0, "b", deps=[t])
        result = PassPipeline([SlowdownPass()]).run(s, make_hw())
        (decision,) = result.decisions
        assert decision.status == "rejected"
        assert "makespan regressed" in decision.reason

    def test_composed_op_map_remaps_through_all_passes(self):
        s = Schedule()
        a = s.transfer_in(1.0, "wa")
        b = s.transfer_in(1.0, "wb", deps=[a])
        s.compute(1.0, "use", deps=[b])
        s.transfer_in(3.0, "idle")
        result = PassPipeline().run(s, make_hw())
        # Whatever was accepted, every original op maps somewhere valid.
        for op in range(4):
            assert 0 <= result.remap_op(op) < len(result.schedule)
        payload = result.to_dict()
        assert payload["optimized"]["num_ops"] == len(result.schedule)
        assert len(payload["passes"]) == len(DEFAULT_PASS_QUEUE)


class TestPassDifferential:
    def test_default_queue_contract_holds(self):
        diff = run_pass_differential(bubbly_schedule(), make_hw())
        assert diff.ok, [str(v) for v in diff.violations]
        assert diff.pipeline.makespan <= diff.pipeline.baseline_makespan
        payload = diff.to_dict()
        assert payload["violations"] == []

    def test_registry_instances_are_fresh_per_pipeline(self):
        a, b = PassPipeline(), PassPipeline()
        assert a.passes[0] is not b.passes[0]
        assert PASSES.get("coalesce-transfers") is type(a.passes[0])


class TestBubblesFastPath:
    def test_lazy_view_matches_materialized_scan(self):
        """The array-backed gap scan gives bit-identical bubbles on the
        executor's timeline and on the per-op reference's."""
        s = Schedule()
        s.compute(0.25, "head")
        t0 = s.transfer_in(1.5, "w0")
        s.compute(0.5, "attn", deps=[t0], phase=PHASE_ATTENTION)
        t1 = s.transfer_in(2.0, "e0")
        s.compute(0.5, "exp", deps=[t1], phase=PHASE_EXPERT)
        timeline = Executor(make_hw()).run(s.freeze())
        assert not timeline.executed_is_materialized
        fast = analyze_bubbles(timeline)
        assert not timeline.executed_is_materialized  # stayed lazy
        reference = analyze_bubbles(reference_run(s, make_hw()))
        assert fast == reference  # bitwise: dataclass equality on floats
        assert fast.inter_layer > 0 and fast.intra_layer > 0


# --- Property suite: every registered pass is safe on random schedules ---

RESOURCE_POOL = (GPU, H2D, "h2d2", "disk")


@st.composite
def small_schedules(draw):
    n = draw(st.integers(2, 12))
    s = Schedule()
    for op in range(n):
        resource = draw(st.sampled_from(RESOURCE_POOL))
        duration = draw(
            st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False)
        )
        deps = draw(
            st.lists(st.integers(0, op - 1), max_size=3, unique=True)
        ) if op else []
        phase = draw(
            st.sampled_from(("other", PHASE_ATTENTION, PHASE_EXPERT))
        )
        s.add(resource, duration, f"op{op}", deps=deps, phase=phase)
    return s


class TestPassProperties:
    @given(small_schedules())
    @settings(max_examples=60, deadline=None)
    def test_every_registered_pass_is_safe(self, s):
        """Each pass either improves (invariant-clean, makespan <= baseline)
        or is rejected/no-op with a recorded reason — never a bad accept."""
        hw = make_hw()
        for name in pass_names():
            diff = run_pass_differential(s, hw, passes=[name])
            assert diff.ok, (name, [str(v) for v in diff.violations])
            (decision,) = diff.pipeline.decisions
            if decision.accepted:
                assert diff.pipeline.makespan <= diff.pipeline.baseline_makespan
            elif decision.status == "rejected":
                assert decision.reason
            else:
                assert decision.status == "no-op"

    @given(small_schedules())
    @settings(max_examples=30, deadline=None)
    def test_default_queue_composition_is_safe(self, s):
        diff = run_pass_differential(s, make_hw())
        assert diff.ok, [str(v) for v in diff.violations]
        assert len(diff.pipeline.schedule) <= len(s)
