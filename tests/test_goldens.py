"""Golden-trace regression tests (content-addressed snapshots).

Each case builds one deterministic simulation artifact, invariant-checks
it, summarizes it with :mod:`repro.validation.goldens`, and compares the
content digest against the snapshot committed under ``tests/goldens/``.
A digest move means simulation output changed; if the change is
intentional, refresh with::

    PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import FAULT_PRESETS, RunConfig, run_cluster
from repro.baselines import FlexGenSystem
from repro.cluster import ClusterConfig, ClusterSimulator, build_cluster, make_router
from repro.core.engine import KlotskiOptions, KlotskiSystem
from repro.runtime.executor import Executor
from repro.scenario import Scenario
from repro.serving.requests import ArrivalConfig, assign_hot_experts, generate_requests
from repro.serving.scheduler import ContinuousScheduler
from repro.serving.server import BatchingConfig
from repro.validation import (
    GoldenStore,
    check_cluster,
    check_timeline,
    snapshot_cluster,
    snapshot_fleet,
    snapshot_schedule,
    snapshot_timeline,
)
from repro.routing.workload import Workload
from tests.conftest import SMALL_MIXTRAL, small_hardware


def _scenario(seed: int = 3) -> Scenario:
    return Scenario(
        SMALL_MIXTRAL,
        small_hardware(),
        Workload(batch_size=4, num_batches=3, prompt_len=32, gen_len=4),
        seed=seed,
    )


def _pipeline_snapshots(system) -> dict:
    scenario = _scenario()
    built = system.build(scenario)
    timeline = Executor(scenario.hardware).run(built.schedule)
    violations = check_timeline(built.schedule, timeline)
    assert not violations, "\n".join(map(str, violations))
    return {
        "schedule": snapshot_schedule(built.schedule),
        "timeline": snapshot_timeline(built.schedule, timeline),
    }


def _cluster_snapshot() -> dict:
    model = SMALL_MIXTRAL
    requests = assign_hot_experts(
        generate_requests(
            ArrivalConfig(rate_per_s=2.0, prompt_len_mean=32, gen_len=4, seed=5),
            12,
        ),
        model.num_experts,
        skew=1.2,
        seed=5,
    )
    replicas = build_cluster(
        model,
        [small_hardware(), small_hardware()],
        BatchingConfig(batch_size=2, group_batches=2, max_wait_s=5.0),
        prompt_len=32,
        gen_len=4,
        seed=3,
    )
    simulator = ClusterSimulator(
        replicas, make_router("expert-affinity"), ClusterConfig(slo_s=120.0)
    )
    report = simulator.run(requests)
    violations = check_cluster(report, requests)
    assert not violations, "\n".join(map(str, violations))
    return {"cluster": snapshot_cluster(report)}


def _discipline_snapshot(
    *, scheduler: str, faults: str | None = None, kv_budget_tokens=None
) -> dict:
    """Serial-loop golden for one dispatch discipline, optionally faulted.

    Loaded enough (200 requests at 15 req/s on three replicas) for the
    ``chaos`` preset to crash, slow down, fail dispatches, retry and (in
    the continuous discipline) shed, and for a small KV budget to
    preempt. The full ``to_dict`` digest pins outcomes,
    attempts, availability and the per-class split.
    """
    model = SMALL_MIXTRAL
    classes = ("interactive", "standard", "batch")
    requests = [
        replace(r, slo_class=classes[r.request_id % len(classes)])
        for r in assign_hot_experts(
            generate_requests(
                ArrivalConfig(rate_per_s=15.0, prompt_len_mean=32, gen_len=4, seed=7),
                200,
            ),
            model.num_experts,
            skew=1.2,
            seed=7,
        )
    ]
    replicas = build_cluster(
        model,
        [small_hardware()] * 3,
        BatchingConfig(batch_size=2, group_batches=2, max_wait_s=2.0),
        prompt_len=32,
        gen_len=4,
        seed=3,
        shared_cache={},
    )
    simulator = ClusterSimulator(
        replicas,
        make_router("least-outstanding"),
        ClusterConfig(slo_s=30.0, scheduler=scheduler),
        faults=FAULT_PRESETS.get(faults)() if faults else None,
    )
    if kv_budget_tokens is None:
        report = simulator.run(requests)
    else:
        report = ContinuousScheduler(
            simulator, kv_budget_tokens=kv_budget_tokens
        ).run(requests)
    violations = check_cluster(report, requests)
    assert not violations, "\n".join(map(str, violations))
    return {"cluster": snapshot_cluster(report)}


def _fleet_snapshot(
    *, router: str, arrival: str, engine: str, replicas: int, requests: int
) -> dict:
    """Fleet-scale serving golden: thousands of requests, fast engines.

    The fast engines carry the golden on purpose — the differential
    suite proves them bit-identical to the serial loop, so these pin the
    canonical output at a scale the serial goldens cannot afford, and a
    digest move in either place implicates simulation semantics, not a
    particular engine.
    """
    config = RunConfig.from_dict(
        {
            "scenario": {
                "model": "mixtral-8x7b", "env": "env1", "batch_size": 8,
                "prompt_len": 64, "gen_len": 8, "seed": 11,
            },
            "system": {"name": "klotski", "options": {}},
            "cluster": {
                "replicas": replicas, "envs": ["env1", "env2"],
                "router": router, "group_batches": 2, "max_wait_s": 2.0,
                "slo_s": 60.0, "engine": engine, "jobs": 2,
            },
            "serve": {
                "arrival": arrival, "requests": requests, "rate_per_s": 500.0,
            },
        }
    )
    report = run_cluster(config, shared_cache={})
    return {"fleet": snapshot_fleet(report, stride=997)}


GOLDEN_CASES = {
    "pipeline-klotski-small": lambda: _pipeline_snapshots(KlotskiSystem()),
    "pipeline-klotski-quantized-small": lambda: _pipeline_snapshots(
        KlotskiSystem(KlotskiOptions(quantize=True))
    ),
    "pipeline-flexgen-small": lambda: _pipeline_snapshots(FlexGenSystem()),
    "cluster-affinity-2replica": _cluster_snapshot,
    "cluster-group-chaos-3replica": lambda: _discipline_snapshot(
        scheduler="group", faults="chaos"
    ),
    "cluster-continuous-preempt-3replica": lambda: _discipline_snapshot(
        scheduler="continuous", kv_budget_tokens=100
    ),
    "cluster-continuous-chaos-3replica": lambda: _discipline_snapshot(
        scheduler="continuous", faults="chaos"
    ),
    "fleet-roundrobin-poisson-16replica": lambda: _fleet_snapshot(
        router="round-robin", arrival="poisson", engine="sharded",
        replicas=16, requests=20_000,
    ),
    "fleet-affinity-bursty-8replica": lambda: _fleet_snapshot(
        router="expert-affinity", arrival="bursty", engine="batched",
        replicas=8, requests=20_000,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden(name, update_goldens):
    snapshots = GOLDEN_CASES[name]()
    store = GoldenStore()
    mismatches = []
    for part, snapshot in snapshots.items():
        golden_name = f"{name}.{part}"
        if update_goldens:
            store.save(golden_name, snapshot)
        else:
            mismatches.extend(store.compare(golden_name, snapshot))
    assert not mismatches, (
        "\n".join(mismatches)
        + "\nIf this change is intentional, refresh with: "
        "PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens"
    )


def test_store_reports_missing_golden(tmp_path):
    store = GoldenStore(tmp_path)
    assert store.compare("nope", {"digest": "x"}) != []


def test_store_round_trip_and_diff(tmp_path):
    store = GoldenStore(tmp_path)
    snapshot = {"kind": "timeline", "num_ops": 3, "digest": "abc"}
    store.save("case", snapshot)
    assert store.load("case") == snapshot
    assert store.compare("case", snapshot) == []
    changed = {"kind": "timeline", "num_ops": 4, "digest": "def"}
    diff = store.compare("case", changed)
    assert any("num_ops" in line for line in diff)
