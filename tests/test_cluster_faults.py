"""Fault-injection suite: determinism, conservation, retries, shedding.

The tentpole properties of :mod:`repro.cluster.faults`:

* **determinism** — a faulted run is a pure function of (config, seed,
  request stream): hypothesis drives random fault models and the report
  must reproduce byte-for-byte, counters included;
* **golden safety** — an *inactive* ``FaultConfig`` (and ``faults=None``)
  keeps the simulator on the fault-free path, bit-identical to a run
  with no fault config at all;
* **conservation** — every request terminates exactly once as
  ``completed`` | ``shed`` | ``failed`` under arbitrary fault plans
  (:func:`repro.validation.check_cluster`);
* **retry semantics** — attempts are bounded by ``max_attempts``,
  backoff is deterministic and monotone when the multiplier dominates
  the jitter, and a retry budget is never exceeded;
* **failover / shedding / breaker / billing** — targeted deterministic
  scenarios for drain requeues, SLO-class-aware admission control,
  circuit breaking, and per-replica up-time cost.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    FaultConfig,
    RetryPolicy,
    build_cluster,
    compile_fault_plan,
)
from repro.cluster.routers import make_router
from repro.serving.requests import Request
from repro.serving.scheduler import ContinuousScheduler, GroupScheduler
from repro.serving.server import BatchingConfig
from repro.systems import InferenceSystem
from repro.validation import check_cluster
from tests.conftest import TINY_MOE, small_hardware


class StubSystem(InferenceSystem):
    """Analytic group timings: fast, deterministic, workload-sensitive."""

    name = "stub"

    def run(self, scenario):
        wl = scenario.workload
        total = 0.05 * wl.num_batches + 0.0005 * wl.prompt_len + 0.01 * wl.gen_len
        return SimpleNamespace(
            metrics=SimpleNamespace(total_time_s=total, prefill_time_s=total / 2)
        )


def build_requests(spec) -> list[Request]:
    requests, now = [], 0.0
    for i, item in enumerate(spec):
        gap, prompt, gen = item[:3]
        slo_class = item[3] if len(item) > 3 else "standard"
        now += gap
        requests.append(
            Request(
                request_id=i,
                arrival_s=now,
                prompt_len=prompt,
                gen_len=gen,
                slo_class=slo_class,
            )
        )
    return requests


def build_fleet(n_replicas: int, *, batch_size=2, group_batches=2, max_wait=5.0):
    return build_cluster(
        TINY_MOE,
        [small_hardware() for _ in range(n_replicas)],
        BatchingConfig(
            batch_size=batch_size,
            group_batches=group_batches,
            max_wait_s=max_wait,
        ),
        system_factory=StubSystem,
        prompt_len=32,
        gen_len=2,
        seed=0,
    )


def simulate(
    spec,
    n_replicas: int,
    faults: FaultConfig | None,
    retry: RetryPolicy | None = None,
    router: str = "least-outstanding",
    engine: str = "serial",
    scheduler: str = "group",
):
    requests = build_requests(spec)
    simulator = ClusterSimulator(
        build_fleet(n_replicas),
        make_router(router),
        ClusterConfig(slo_s=30.0, scheduler=scheduler),
        faults=faults,
        retry=retry,
    )
    return simulator.run(requests, engine=engine), requests


# (gap, prompt_len, gen_len) triples; short gaps keep queues contended.
request_stream = st.lists(
    st.tuples(
        st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False),
        st.integers(1, 96),
        st.integers(1, 4),
    ),
    min_size=1,
    max_size=24,
)

# Brutal rates: streams span tens of seconds, so hundreds-per-hour makes
# faults near-certain while the configs stay valid.
fault_configs = st.builds(
    FaultConfig,
    seed=st.integers(0, 2**31 - 1),
    crash_rate_per_hour=st.sampled_from([0.0, 120.0, 600.0]),
    crash_downtime_s=st.floats(0.5, 10.0, allow_nan=False),
    straggler_rate_per_hour=st.sampled_from([0.0, 120.0, 600.0]),
    straggler_duration_s=st.floats(1.0, 10.0, allow_nan=False),
    straggler_factor=st.floats(1.1, 4.0, allow_nan=False),
    transient_failure_prob=st.sampled_from([0.0, 0.1, 0.4]),
    breaker_threshold=st.integers(0, 4),
    breaker_cooldown_s=st.floats(1.0, 10.0, allow_nan=False),
    shed_queue_depth=st.sampled_from([0, 2, 6]),
    shed_slack_s=st.sampled_from([0.0, 5.0, 30.0]),
)

retry_policies = st.builds(
    RetryPolicy,
    max_attempts=st.integers(1, 4),
    backoff_base_s=st.floats(0.01, 1.0, allow_nan=False),
    backoff_multiplier=st.floats(1.0, 3.0, allow_nan=False),
    jitter_frac=st.floats(0.0, 0.3, allow_nan=False),
    retry_budget=st.sampled_from([0, 1, 10]),
    seed=st.integers(0, 2**31 - 1),
)


@given(spec=request_stream, faults=fault_configs, retry=retry_policies,
       n=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_faulted_runs_conserve_requests(spec, faults, retry, n):
    report, requests = simulate(spec, n, faults, retry)
    violations = check_cluster(report, requests)
    assert not violations, "\n".join(map(str, violations))
    terminal = sorted(r.request.request_id for r in report.records)
    assert terminal == [r.request_id for r in requests]
    for record in report.records:
        assert record.outcome in ("completed", "shed", "failed")
        assert record.attempts <= retry.max_attempts


@given(spec=request_stream, faults=fault_configs, retry=retry_policies,
       n=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_same_seed_reproduces_report_and_counters(spec, faults, retry, n):
    first, _ = simulate(spec, n, faults, retry)
    second, _ = simulate(spec, n, faults, retry)
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        second.to_dict(), sort_keys=True
    )
    assert first.counters == second.counters


@given(spec=request_stream, n=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_inactive_fault_config_is_bit_identical_to_fault_free(spec, n, seed):
    """Empty plan ⇒ the fault-free path, byte for byte (golden safety)."""
    plain, _ = simulate(spec, n, None)
    inactive, _ = simulate(spec, n, FaultConfig(seed=seed))
    assert json.dumps(plain.to_dict(), sort_keys=True) == json.dumps(
        inactive.to_dict(), sort_keys=True
    )


@given(spec=request_stream, faults=fault_configs)
@settings(max_examples=15, deadline=None)
def test_fast_engines_fall_back_identically_under_faults(spec, faults):
    serial, _ = simulate(spec, 2, faults, engine="serial")
    batched, _ = simulate(spec, 2, faults, engine="batched")
    assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
        batched.to_dict(), sort_keys=True
    )


@given(policy=retry_policies, rid=st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_backoff_is_deterministic_and_bounded(policy, rid):
    for attempt in range(1, policy.max_attempts + 1):
        base = policy.backoff_base_s * policy.backoff_multiplier ** (attempt - 1)
        delay = policy.backoff_s(rid, attempt)
        assert delay == policy.backoff_s(rid, attempt)  # deterministic
        assert base <= delay <= base * (1.0 + policy.jitter_frac) + 1e-12


@given(policy=retry_policies, rid=st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_backoff_is_monotone_when_growth_dominates_jitter(policy, rid):
    if policy.backoff_multiplier < 1.0 + policy.jitter_frac:
        return  # jitter may locally reorder delays; only the bound holds
    delays = [
        policy.backoff_s(rid, attempt)
        for attempt in range(1, policy.max_attempts + 1)
    ]
    assert delays == sorted(delays)


@given(spec=request_stream, budget=st.integers(1, 5))
@settings(max_examples=20, deadline=None)
def test_retry_budget_is_respected(spec, budget):
    faults = FaultConfig(transient_failure_prob=1.0, breaker_threshold=0)
    retry = RetryPolicy(max_attempts=10, backoff_base_s=0.01,
                        retry_budget=budget)
    report, requests = simulate(spec, 1, faults, retry)
    assert report.counters["retries_scheduled"] <= budget
    assert not check_cluster(report, requests)


def test_compile_fault_plan_is_deterministic_and_validates_ids():
    config = FaultConfig(seed=7, crash_rate_per_hour=300.0,
                         straggler_rate_per_hour=300.0)
    first = compile_fault_plan(config, 3, 100.0)
    assert first.events == compile_fault_plan(config, 3, 100.0).events
    assert not first.empty
    with pytest.raises(ValueError):
        compile_fault_plan(FaultConfig(joins=((1.0, 5),)), 3, 100.0)


def test_transient_oracle_is_deterministic():
    plan = compile_fault_plan(
        FaultConfig(seed=3, transient_failure_prob=0.5), 2, 10.0
    )
    draws = [plan.transient_fails(rid, seq) for rid in (0, 1) for seq in range(20)]
    again = [plan.transient_fails(rid, seq) for rid in (0, 1) for seq in range(20)]
    assert draws == again
    assert any(draws) and not all(draws)


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(lambda sim: sim.run, id="simulator"),
        pytest.param(lambda sim: GroupScheduler(sim).run, id="group-scheduler"),
        pytest.param(
            lambda sim: ContinuousScheduler(sim).run, id="continuous-scheduler"
        ),
    ],
)
def test_fleet_reuse_raises(entry):
    # Every entry point shares the one event loop, and with it the guard:
    # a second stream on the same fleet would build on dirty replica state.
    simulator = ClusterSimulator(
        build_fleet(2), make_router("round-robin"), ClusterConfig(slo_s=30.0)
    )
    requests = build_requests([(0.0, 32, 2), (0.5, 32, 2)])
    entry(simulator)(requests)
    with pytest.raises(RuntimeError, match="already served"):
        entry(simulator)(requests)


def test_used_replicas_raise_even_on_a_fresh_simulator():
    replicas = build_fleet(1)
    requests = build_requests([(0.0, 32, 2)])
    ClusterSimulator(
        replicas, make_router("round-robin"), ClusterConfig(slo_s=30.0)
    ).run(requests)
    fresh = ClusterSimulator(
        replicas, make_router("round-robin"), ClusterConfig(slo_s=30.0)
    )
    with pytest.raises(RuntimeError, match="already served"):
        fresh.run(requests)


def test_drain_requeues_backlog_to_survivors():
    # Replica 1 drains immediately: every request must complete on 0.
    faults = FaultConfig(drains=((0.0, 1),))
    spec = [(0.2, 32, 2)] * 8
    report, requests = simulate(spec, 2, faults, router="round-robin")
    assert not check_cluster(report, requests)
    completed = [r for r in report.records if r.outcome == "completed"]
    assert len(completed) == len(requests)
    assert {r.replica_id for r in completed} == {0}
    assert report.counters["drains"] == 1


def test_join_brings_capacity_online_late():
    faults = FaultConfig(joins=((5.0, 1),))
    spec = [(0.0, 32, 2)] + [(2.0, 32, 2)] * 7
    report, requests = simulate(spec, 2, faults, router="round-robin")
    assert not check_cluster(report, requests)
    by_replica = {r.replica_id for r in report.records if r.outcome == "completed"}
    assert 1 in by_replica  # the joiner served traffic after t=5
    early = [r for r in report.records if r.dispatch_s < 5.0]
    assert all(r.replica_id == 0 for r in early)


def test_queue_depth_shedding_protects_interactive_class():
    # One replica, simultaneous burst: standard sheds at depth 2,
    # interactive rides the doubled bound.
    faults = FaultConfig(shed_queue_depth=2)
    spec = [(0.0, 32, 2, "standard" if i % 2 else "interactive")
            for i in range(12)]
    report, requests = simulate(spec, 1, faults)
    assert not check_cluster(report, requests)
    shed = [r for r in report.records if r.outcome == "shed"]
    assert shed, "burst never hit the depth bound"
    shed_classes = [r.request.slo_class for r in shed]
    assert shed_classes.count("standard") > shed_classes.count("interactive")


def test_slack_shedding_spares_protected_class():
    faults = FaultConfig(shed_slack_s=0.001)
    spec = [(0.0, 32, 2, "interactive" if i < 4 else "standard")
            for i in range(12)]
    report, requests = simulate(spec, 1, faults)
    assert not check_cluster(report, requests)
    shed = [r for r in report.records if r.outcome == "shed"]
    assert all(r.request.slo_class == "standard" for r in shed)


def test_breaker_opens_after_consecutive_transients():
    faults = FaultConfig(transient_failure_prob=1.0, breaker_threshold=2,
                         breaker_cooldown_s=1000.0)
    retry = RetryPolicy(max_attempts=2, backoff_base_s=0.01)
    report, requests = simulate([(0.1, 32, 2)] * 10, 1, faults, retry)
    assert not check_cluster(report, requests)
    assert report.counters["breaker_trips"] >= 1
    # Every dispatch fails, so nothing ever completes.
    assert all(r.outcome in ("failed", "shed") for r in report.records)


def test_crashed_replica_bills_only_up_time():
    faults = FaultConfig(seed=1, crash_rate_per_hour=1200.0,
                         crash_downtime_s=5.0)
    report, requests = simulate([(0.5, 32, 2)] * 16, 2, faults)
    assert not check_cluster(report, requests)
    assert report.counters["crashes"] >= 1
    crashed = [s for s in report.replicas
               if str(s.replica_id) in report.availability["downtime_s"]]
    assert crashed
    for stats in crashed:
        assert stats.up_time_s is not None
        assert stats.up_time_s < report.makespan_s
    assert 0.0 < report.availability["availability"] < 1.0
    assert report.cost_usd() > 0.0


@pytest.mark.parametrize("scheduler", ["group", "continuous"])
def test_drained_replica_bills_until_its_in_flight_work_ends(scheduler):
    # Replica 1 drains while its first work is in flight: it admits
    # nothing more but finishes that work, and bills until it ends.
    faults = FaultConfig(drains=((0.05, 1),))
    report, requests = simulate(
        [(0.0, 32, 2)] * 8, 2, faults, router="round-robin", scheduler=scheduler
    )
    assert not check_cluster(report, requests)
    last = max(r.completion_s for r in report.records if r.replica_id == 1)
    assert last > 0.05
    assert report.replicas[1].up_time_s == last


def test_availability_summary_counts_match_records():
    faults = FaultConfig(seed=2, crash_rate_per_hour=600.0,
                         crash_downtime_s=3.0, transient_failure_prob=0.3)
    retry = RetryPolicy(max_attempts=2, backoff_base_s=0.05)
    report, requests = simulate([(0.3, 32, 2)] * 20, 2, faults, retry)
    assert not check_cluster(report, requests)
    out = report.to_dict()
    assert "availability" in out
    counts = {
        outcome: sum(1 for r in report.records if r.outcome == outcome)
        for outcome in ("completed", "shed", "failed")
    }
    for outcome, expected in counts.items():
        assert report.availability[outcome] == expected
    assert sum(counts.values()) == len(requests)


def test_fault_free_to_dict_has_no_fault_keys():
    """Serialization stays byte-compatible when faults are off."""
    report, _ = simulate([(0.5, 32, 2)] * 4, 2, None)
    out = report.to_dict()
    assert "availability" not in out
    assert all("outcome" not in entry for entry in out["requests"])
    assert all("up_time_s" not in rep for rep in out["replicas"])


def test_metric_arrays_are_cached_and_invalidated():
    report, _ = simulate([(0.5, 32, 2)] * 6, 2, None)
    first = report.latencies()
    assert first is report.latencies()  # cached ndarray identity
    ttfts = report.ttfts()
    assert ttfts is report.ttfts()
    report.records.append(report.records[0])
    assert report.latencies() is not first  # record-count change refreshes
    report.records.pop()
