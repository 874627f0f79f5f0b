"""Tests for the repro.validation subsystem.

The harness must (a) pass on genuine simulator output, (b) *fail* on
deliberately corrupted artifacts — a checker that cannot catch a seeded
bug proves nothing — and (c) drive a clean fuzzing campaign end to end,
including the CLI entry point.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.cluster import ClusterConfig, ClusterSimulator, build_cluster, make_router
from repro.core.engine import KlotskiSystem
from repro.errors import OutOfMemoryError
from repro.runtime.executor import Executor, ExecutorConfig
from repro.runtime.schedule import GPU, MemEffect, Schedule
from repro.runtime.timeline import Timeline
from repro.serving.requests import ArrivalConfig, generate_requests
from repro.serving.server import BatchingConfig
from repro.validation import (
    FuzzConfig,
    FuzzReport,
    check_cluster,
    check_timeline,
    diff_timelines,
    run_differential,
    run_fuzz,
)
from repro.validation.differential import reference_run
from tests.conftest import TINY_MOE, small_hardware
from tests.test_executor import make_hw


def small_schedule() -> Schedule:
    s = Schedule()
    w = s.transfer_in(2.0, "w", allocs=[MemEffect("vram", "w", 64)])
    a = s.compute(1.0, "a", deps=[w])
    s.compute(0.5, "b", deps=[a], frees=[MemEffect("vram", "w", 64)])
    s.transfer_out(0.25, "out", deps=[a])
    return s


def run_reference(schedule, capacities=None) -> Timeline:
    return reference_run(schedule, make_hw(), capacities=capacities)


class TestTimelineInvariants:
    def test_clean_timeline_passes(self):
        s = small_schedule()
        for t in (run_reference(s), Executor(make_hw()).run(s)):
            assert check_timeline(s, t) == []

    def test_real_pipeline_passes(self, small_scenario):
        built = KlotskiSystem().build(small_scenario)
        timeline = Executor(small_scenario.hardware).run(built.schedule)
        assert check_timeline(built.schedule, timeline) == []

    def test_causality_violation_detected(self):
        s = small_schedule()
        t = run_reference(s)
        # Pull op 1's start before its dependency's end.
        t.starts[1] = 0.5
        names = {v.invariant for v in check_timeline(s, t)}
        assert "causality" in names

    def test_resource_overlap_detected(self):
        s = Schedule()
        s.compute(2.0, "a")
        s.compute(2.0, "b")
        t = run_reference(s)
        # Make op 1 start while op 0 still owns the GPU.
        t.starts[1], t.ends[1] = 1.0, 3.0
        names = {v.invariant for v in check_timeline(s, t)}
        assert "resource-exclusivity" in names

    def test_duration_mismatch_detected(self):
        s = small_schedule()
        t = run_reference(s)
        t.ends[2] += 0.125
        names = {v.invariant for v in check_timeline(s, t)}
        assert "duration" in names

    def test_busy_time_and_makespan_mismatch_detected(self):
        s = small_schedule()
        t = run_reference(s)
        t.busy_time[GPU] += 1.0
        t.makespan += 1.0
        names = {v.invariant for v in check_timeline(s, t)}
        assert {"busy-time", "makespan"} <= names

    def test_memory_peak_mismatch_detected(self):
        s = small_schedule()
        t = run_reference(s)
        t.memory_peak["vram"] = 1
        names = {v.invariant for v in check_timeline(s, t)}
        assert "memory-peak" in names

    def test_negative_memory_level_detected(self):
        s = Schedule()
        s.compute(1.0, "a", frees=[MemEffect("vram", "ghost", 64)])
        t = Executor(make_hw(), ExecutorConfig(check_memory=False)).run(s)
        names = {v.invariant for v in check_timeline(s, t)}
        assert "memory-conservation" in names

    def test_capacity_overflow_detected_when_unchecked(self):
        s = Schedule()
        s.compute(1.0, "a", allocs=[MemEffect("vram", "big", 100)])
        t = Executor(make_hw(), ExecutorConfig(check_memory=False)).run(s)
        violations = check_timeline(s, t, capacities={"vram": 10})
        assert "capacity" in {v.invariant for v in violations}

    def test_op_count_mismatch_detected(self):
        s = small_schedule()
        t = run_reference(s)
        t.starts, t.ends = t.starts[:-1], t.ends[:-1]
        assert "op-count" in {v.invariant for v in check_timeline(s, t)}


def tiny_cluster_run():
    requests = generate_requests(
        ArrivalConfig(rate_per_s=4.0, prompt_len_mean=16, gen_len=2, seed=9), 10
    )
    replicas = build_cluster(
        TINY_MOE,
        [small_hardware(), small_hardware()],
        BatchingConfig(batch_size=2, group_batches=2, max_wait_s=2.0),
        prompt_len=16,
        gen_len=2,
        seed=1,
    )
    simulator = ClusterSimulator(
        replicas, make_router("least-outstanding"), ClusterConfig(slo_s=60.0)
    )
    return simulator.run(requests), requests


class TestClusterInvariants:
    def test_clean_report_passes(self):
        report, requests = tiny_cluster_run()
        assert check_cluster(report, requests) == []

    def test_lost_request_detected(self):
        report, requests = tiny_cluster_run()
        report.records.pop()
        names = {v.invariant for v in check_cluster(report, requests)}
        assert "request-conservation" in names

    def test_double_dispatch_detected(self):
        report, requests = tiny_cluster_run()
        report.records.append(report.records[0])
        names = {v.invariant for v in check_cluster(report, requests)}
        assert "double-dispatch" in names

    def test_unknown_request_detected(self):
        report, requests = tiny_cluster_run()
        names = {v.invariant for v in check_cluster(report, requests[:-1])}
        assert "request-conservation" in names

    def test_makespan_regression_detected(self):
        report, requests = tiny_cluster_run()
        report.makespan_s = 0.001
        names = {v.invariant for v in check_cluster(report, requests)}
        assert "accounting" in names

    def test_overlapping_groups_detected(self):
        import dataclasses

        report, requests = tiny_cluster_run()
        # Shift one group's interval into the middle of another group on
        # the same replica.
        by_replica = {}
        for i, record in enumerate(report.records):
            by_replica.setdefault(record.replica_id, []).append(i)
        victim = next(ids for ids in by_replica.values() if len(ids) >= 2)
        a, b = report.records[victim[0]], report.records[victim[-1]]
        if (a.start_s, a.completion_s) == (b.start_s, b.completion_s):
            pytest.skip("need two distinct groups on one replica")
        mid = (a.start_s + a.completion_s) / 2
        report.records[victim[-1]] = dataclasses.replace(
            b, start_s=mid, completion_s=mid + (b.completion_s - b.start_s)
        )
        names = {v.invariant for v in check_cluster(report, requests)}
        assert "replica-serialization" in names

    def test_double_booked_identical_intervals_detected(self):
        import dataclasses

        report, requests = tiny_cluster_run()
        # Collapse every record on one replica onto a single interval while
        # the replica's stats still report multiple executed groups: the
        # set-of-intervals view alone would dedupe this to "one group".
        stats = next(s for s in report.replicas if s.groups >= 2)
        target = [
            i for i, r in enumerate(report.records) if r.replica_id == stats.replica_id
        ]
        first = report.records[target[0]]
        for i in target[1:]:
            report.records[i] = dataclasses.replace(
                report.records[i],
                start_s=first.start_s,
                completion_s=first.completion_s,
            )
        names = {v.invariant for v in check_cluster(report, requests)}
        assert "replica-serialization" in names


class TestDifferential:
    def test_engines_agree_on_pipeline(self, small_scenario):
        built = KlotskiSystem().build(small_scenario)
        result = run_differential(built.schedule, small_scenario.hardware)
        assert result.ok and not result.oom
        assert result.timeline is not None and result.reference is not None

    def test_consistent_oom_is_ok(self):
        s = Schedule()
        s.compute(1.0, "a", allocs=[MemEffect("vram", "big", 1 << 40)])
        result = run_differential(s, make_hw(), capacities={"vram": 1 << 20})
        assert result.oom and result.ok

    def test_diff_detects_divergence(self):
        s = small_schedule()
        a, b = run_reference(s), run_reference(s)
        b.starts[1] += 0.5
        b.ends[1] += 0.5
        diffs = diff_timelines(a, b)
        assert diffs and "op 1" in diffs[0]

    def test_diff_detects_makespan_and_busy(self):
        s = small_schedule()
        a, b = run_reference(s), run_reference(s)
        b.makespan += 1.0
        b.busy_time[GPU] += 1.0
        diffs = "\n".join(diff_timelines(a, b))
        assert "makespan" in diffs and "busy[gpu]" in diffs

    def test_single_engine_oom_reported(self, monkeypatch):
        s = Schedule()
        s.compute(1.0, "a", allocs=[MemEffect("vram", "big", 1 << 30)])

        real = Executor._replay_memory_compiled

        def no_oom(self, *args, **kwargs):
            try:
                return real(self, *args, **kwargs)
            except OutOfMemoryError:
                return {}, {}

        monkeypatch.setattr(Executor, "_replay_memory_compiled", no_oom)
        result = run_differential(s, make_hw(), capacities={"vram": 1})
        assert not result.ok
        assert "only the reference engine raised OOM" in result.diffs[0]


class TestFuzz:
    def test_campaign_is_clean_and_deterministic(self):
        report = run_fuzz(FuzzConfig(cases=12, seed=2026))
        assert report.ok, report.summary()
        assert report.cases == 12
        assert report.pipeline_cases + report.cluster_cases == 12
        again = run_fuzz(FuzzConfig(cases=12, seed=2026))
        assert report.to_dict() == again.to_dict()

    def test_chaos_campaign_is_clean_and_deterministic(self):
        report = run_fuzz(FuzzConfig(cases=4, seed=11, chaos=True))
        assert report.ok, report.summary()
        assert report.cluster_cases == 4 and report.pipeline_cases == 0
        again = run_fuzz(FuzzConfig(cases=4, seed=11, chaos=True))
        assert report.to_dict() == again.to_dict()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FuzzConfig(cases=-1)
        with pytest.raises(ValueError):
            FuzzConfig(cluster_every=0)

    def test_report_summary_lists_failures(self):
        report = FuzzReport(cases=1, violations=["boom"], diffs=["drift"])
        text = report.summary()
        assert not report.ok
        assert "VIOLATION boom" in text and "DIFF drift" in text


class TestValidateCLI:
    def test_validate_ok(self, capsys):
        assert main(["validate", "--fuzz", "6", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "zero invariant violations" in out

    def test_validate_json(self, capsys):
        assert main(["validate", "--fuzz", "4", "--seed", "3", "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["command"] == "validate"
        assert envelope["schema_version"] == 1
        payload = envelope["result"]
        assert payload["ok"] is True
        assert payload["cases"] == 4
        assert payload["failures"] == []

    def test_validate_chaos_cli(self, capsys):
        assert main(["validate", "--chaos", "3", "--seed", "5", "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        payload = envelope["result"]
        assert payload["ok"] is True
        assert payload["cluster_cases"] == 3
        assert payload["pipeline_cases"] == 0

    def test_failure_payload_carries_replayable_config(self):
        """Every recorded failure embeds a from_dict-able config blob."""
        from repro.api import RunConfig

        report = FuzzReport(seed=7)
        config = RunConfig()
        report.record(
            "pipeline case 0", config, violations=["boom"], near_oom_cap=123
        )
        assert not report.ok
        blob = report.to_dict()["failures"][0]
        assert blob["violations"] == ["boom"]
        assert blob["near_oom_cap"] == 123
        assert RunConfig.from_dict(blob["config"]) == config
        # The blob survives a JSON round trip (it is what --json prints).
        assert json.loads(json.dumps(blob))["config"] == config.to_dict()
