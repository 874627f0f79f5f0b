"""The four benchmark workloads (why each exists: ``BENCHMARK.json``).

Every workload drives the simulator through its public entry points only
(``repro.api.run_pipeline``, ``repro.api.run_cluster``,
``repro.model.evaluation.compare_compression``). One *pass* is the
repeated unit of a run; the process-wide memos are cleared before each
pass, and sharing within a pass stays as in a grid run.

A workload provides:

* ``setup(seed)``: the inputs of a pass, built from the seed alone;
* ``run(inputs, clock)``: one pass, timing each entry-point call through
  ``clock`` (a :class:`clock.Clock`) and returning ``(outputs, attempted,
  failed)``. An operation is one entry-point call. A simulated OOM or a
  simulated request failure is a modelled outcome, returned in the
  outputs; only an exception raised by a call counts as a failed
  operation;
* ``check(inputs, outputs)``: problems with the outputs, as strings;
* ``sim_stats(inputs, outputs)``: the simulated statistics reported as
  ``sim.*`` metrics (deterministic per seed);
* ``digest_payload(outputs)``: every simulated statistic, for the digest;
* ``headline(inputs, host_s, sim)``: the workload's own end-to-end figures
  for the human-readable report, as ``(name, value, unit)`` rows.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter
from pathlib import Path
from statistics import median

EXPECTED_PIPELINE = Path(__file__).with_name("expected_pipeline.json")


def clear_memos() -> None:
    """Reset the process-wide memos through their public clear functions."""
    from repro.cluster.replica import clear_group_timing_memo
    from repro.core.engine import clear_warmup_trace_memo
    from repro.routing.oracle import clear_step_routing_memo

    clear_step_routing_memo()
    clear_warmup_trace_memo()
    clear_group_timing_memo()


def _geomean(values) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


class PaperPipeline:
    """Closed loop, one client: the paper's fig10 headline column."""

    name = "paper-pipeline"
    # (label, model, env, system, passes); bs=64, prompt 512, gen 32, n=15.
    CELLS = (
        ("8x7b-env1/klotski", "mixtral-8x7b", "env1", "klotski", False),
        ("8x7b-env1/klotski(q)", "mixtral-8x7b", "env1", "klotski(q)", False),
        ("8x7b-env1/flexgen", "mixtral-8x7b", "env1", "flexgen", False),
        ("8x7b-env1/moe-infinity", "mixtral-8x7b", "env1", "moe-infinity", False),
        ("8x7b-env1/klotski+passes", "mixtral-8x7b", "env1", "klotski", True),
        ("8x22b-env2/klotski", "mixtral-8x22b", "env2", "klotski", False),
        ("8x22b-env2/klotski(q)", "mixtral-8x22b", "env2", "klotski(q)", False),
        ("8x22b-env2/flexgen", "mixtral-8x22b", "env2", "flexgen", False),
    )

    def setup(self, seed: int):
        from repro.api import RunConfig
        from repro.passes import DEFAULT_PASS_QUEUE

        configs = []
        for _, model, env, system, passes in self.CELLS:
            configs.append(
                RunConfig.from_dict(
                    {
                        "scenario": {
                            "model": model, "env": env, "batch_size": 64,
                            "n": 15, "prompt_len": 512, "gen_len": 32,
                            "seed": seed,
                        },
                        "system": {
                            "name": system,
                            "passes": list(DEFAULT_PASS_QUEUE) if passes else [],
                        },
                    }
                )
            )
        return {"seed": seed, "configs": configs}

    def run(self, inputs, clock):
        from repro.api import run_pipeline

        clear_memos()
        results, failed = [], 0
        for config in inputs["configs"]:
            try:
                result = clock.call(run_pipeline, config)
            except Exception as exc:  # counted as a failed operation
                result, failed = exc, failed + 1
            results.append(result)
        return results, len(results), failed

    def _klotski(self, results):
        return [
            r for (label, *_), r in zip(self.CELLS, results)
            if "/klotski" in label and not isinstance(r, Exception) and not r.oom
        ]

    def check(self, inputs, results) -> list[str]:
        problems = []
        outcomes = []
        for (label, *_), r in zip(self.CELLS, results):
            if isinstance(r, Exception):
                problems.append(f"{label}: raised {type(r).__name__}: {r}")
                outcomes.append(None)
            elif not r.oom and not r.throughput > 0:
                problems.append(f"{label}: non-positive throughput {r.throughput}")
                outcomes.append(None)
            else:
                outcomes.append([bool(r.oom), float(r.throughput)])
        expected = json.loads(EXPECTED_PIPELINE.read_text())
        if expected["cells"] != [c[0] for c in self.CELLS]:
            problems.append(f"{EXPECTED_PIPELINE.name} records other cells")
            return problems
        recorded = expected["seeds"].get(str(inputs["seed"]))
        for i, (label, *_) in enumerate(self.CELLS):
            got = outcomes[i]
            if got is None:
                continue
            if got[0] != expected["oom"][i]:
                problems.append(f"{label}: OOM {got[0]}, recorded {expected['oom'][i]}")
            if recorded is not None and not math.isclose(
                got[1], recorded[i], rel_tol=1e-9
            ):
                problems.append(
                    f"{label}: throughput {got[1]!r}, recorded {recorded[i]!r} "
                    f"for seed {inputs['seed']}"
                )
        return problems

    def sim_stats(self, inputs, results) -> dict[str, float]:
        ok = [r for r in results if not isinstance(r, Exception) and not r.oom]
        klotski = self._klotski(results)
        hits = sum(float(r.prefetcher.stats.hot_hits.sum()) for r in klotski if r.prefetcher)
        total = sum(float(r.prefetcher.stats.hot_total.sum()) for r in klotski if r.prefetcher)
        cells = max(1, len(klotski))
        return {
            "sim.tok_per_s": _geomean(r.throughput for r in ok) if ok else 0.0,
            "sim.generated_tokens": float(sum(r.metrics.generated_tokens for r in ok)),
            "sim.gpu_idle_frac": sum(
                r.metrics.gpu_idle_s / r.metrics.total_time_s for r in klotski
            ) / cells,
            "sim.prefetch_hot_accuracy": hits / total if total else 0.0,
            "sim.ops_per_cell": sum(len(r.build.schedule) for r in klotski) / cells,
        }

    def digest_payload(self, results):
        payload = []
        for (label, *_), r in zip(self.CELLS, results):
            if isinstance(r, Exception):
                payload.append([label, "raised", type(r).__name__])
                continue
            entry = [label, r.oom, r.oom_reason]
            if r.metrics is not None:
                entry.append(dataclasses.asdict(r.metrics))
                entry.append(len(r.build.schedule))
            if r.prefetcher is not None:
                entry.append(r.prefetcher.stats.hot_hits.tolist())
                entry.append(r.prefetcher.stats.hot_total.tolist())
            payload.append(entry)
        return payload

    def headline(self, inputs, host_s, sim):
        return [
            ("sim_tok_per_host_s", sim["sim.generated_tokens"] / host_s, "tok/s"),
            ("sim_tok_per_s", sim["sim.tok_per_s"], "tok/s"),
        ]


class Fleet:
    """Open loop in simulated time: Poisson arrivals to a fleet of eight
    Klotski Mixtral-8x7B/env1 replicas."""

    def __init__(self, name, *, scheduler, requests, rate):
        self.name = name
        self.scheduler, self.requests, self.rate = scheduler, requests, rate

    def setup(self, seed: int):
        from repro.api import RunConfig, build_requests

        config = RunConfig.from_dict(
            {
                "scenario": {
                    "model": "mixtral-8x7b", "env": "env1", "batch_size": 16,
                    "prompt_len": 64, "gen_len": 16, "seed": seed,
                },
                "system": {"name": "klotski"},
                "cluster": {
                    "replicas": 8, "router": "expert-affinity",
                    "group_batches": 2, "max_wait_s": 60.0, "slo_s": 120.0,
                    "scheduler": self.scheduler, "engine": "serial",
                },
                "serve": {
                    "arrival": "poisson", "requests": self.requests,
                    "rate_per_s": self.rate,
                },
            }
        )
        return {"seed": seed, "config": config, "requests": build_requests(config)}

    def run(self, inputs, clock):
        from repro.api import run_cluster

        clear_memos()
        try:
            report = clock.call(run_cluster, inputs["config"], requests=inputs["requests"])
        except Exception as exc:  # counted as a failed operation
            return exc, 1, 1
        return report, 1, 0

    def check(self, inputs, report) -> list[str]:
        if isinstance(report, Exception):
            return [f"run_cluster raised {type(report).__name__}: {report}"]
        problems = []
        generated = Counter(r.request_id for r in inputs["requests"])
        ended = Counter(rec.request.request_id for rec in report.records)
        if ended != generated:
            lost = sum((generated - ended).values())
            extra = sum((ended - generated).values())
            problems.append(
                f"request conservation: {lost} generated requests never ended, "
                f"{extra} extra terminal records"
            )
        outcomes = Counter(rec.outcome for rec in report.records)
        unknown = set(outcomes) - {"completed", "failed", "shed"}
        if unknown:
            problems.append(f"unknown terminal outcomes {sorted(unknown)}")
        return problems

    def sim_stats(self, inputs, report) -> dict[str, float]:
        if isinstance(report, Exception):
            return {}
        completed = report.completed_records()
        waits = [rec.queueing_s for rec in completed]
        return {
            "sim.tok_per_s": report.throughput,
            "sim.ttft_p50_s": report.percentile_ttft(50),
            "sim.ttft_p99_s": report.percentile_ttft(99),
            "sim.latency_p99_s": report.percentile_latency(99),
            "sim.slo_attainment": report.slo_attainment,
            "sim.queue_wait_p50_s": median(waits) if waits else 0.0,
            "sim.utilization": sum(
                s.utilization(report.makespan_s) for s in report.replicas
            ) / len(report.replicas),
            "sim.expert_miss_share": report.expert_misses / max(1, len(completed)),
            "sim.max_queue_depth": float(max(s.max_queue_depth() for s in report.replicas)),
        }

    def digest_payload(self, report):
        if isinstance(report, Exception):
            return ["raised", type(report).__name__]
        return {
            "records": [
                [rec.request.request_id, rec.replica_id, rec.dispatch_s, rec.start_s,
                 rec.completion_s, rec.ttft_s, rec.outcome, rec.attempts]
                for rec in report.records
            ],
            "replicas": [
                [s.replica_id, s.requests, s.groups, s.busy_s, s.expert_misses,
                 s.max_queue_depth()]
                for s in report.replicas
            ],
            "makespan_s": report.makespan_s,
            "counters": report.counters,
            "availability": report.availability,
        }

    def headline(self, inputs, host_s, sim):
        return [
            ("sim_req_per_host_s", len(inputs["requests"]) / host_s, "req/s"),
            ("sim_ttft_p50_s", sim.get("sim.ttft_p50_s", 0.0), "s"),
            ("sim_ttft_p99_s", sim.get("sim.ttft_p99_s", 0.0), "s"),
            ("sim_latency_p99_s", sim.get("sim.latency_p99_s", 0.0), "s"),
            ("sim_slo_attainment", sim.get("sim.slo_attainment", 0.0), "share"),
        ]


class CompressEval:
    """Closed loop over ``compare_compression`` on a scaled Mixtral."""

    name = "compress-eval"
    # The quality bound benchmarks/test_extensions.py asserts.
    MAX_DEGRADATION = 0.25

    def setup(self, seed: int):
        from repro.model.config import MIXTRAL_8X7B

        return {"seed": seed, "model": MIXTRAL_8X7B.scaled(1 / 64, name="mixtral-mini")}

    def run(self, inputs, clock):
        from repro.model.evaluation import compare_compression

        clear_memos()
        try:
            report = clock.call(
                compare_compression,
                inputs["model"], seed=inputs["seed"], n_sequences=3, seq_len=32,
            )
        except Exception as exc:  # counted as a failed operation
            return exc, 1, 1
        return report, 1, 0

    def check(self, inputs, report) -> list[str]:
        if isinstance(report, Exception):
            return [f"compare_compression raised {type(report).__name__}: {report}"]
        problems = []
        for name in ("base", "quantized", "streaming"):
            ppl = getattr(report, name).perplexity
            if not math.isfinite(ppl):
                problems.append(f"{name} perplexity is {ppl}")
        degradation = report.quantization_degradation()
        if not abs(degradation) < self.MAX_DEGRADATION:
            problems.append(
                f"quantization degradation {degradation:.4f} exceeds "
                f"{self.MAX_DEGRADATION}"
            )
        return problems

    def sim_stats(self, inputs, report) -> dict[str, float]:
        if isinstance(report, Exception):
            return {}
        return {
            "compression.quant_ppl_ratio": report.quantized.perplexity
            / report.base.perplexity,
        }

    def digest_payload(self, report):
        if isinstance(report, Exception):
            return ["raised", type(report).__name__]
        return [dataclasses.asdict(getattr(report, n)) for n in ("base", "quantized", "streaming")]

    def headline(self, inputs, host_s, sim):
        return [
            ("compress_call_s", host_s, "s"),
            ("quant_ppl_ratio", sim.get("compression.quant_ppl_ratio", 0.0), "ratio"),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        PaperPipeline(),
        Fleet("fleet-group", scheduler="group", requests=100_000, rate=5.0),
        # Past the continuous discipline's capacity (~5 req/s here) so the
        # replica queues stay deep (~600) on every seed. Near or under
        # capacity, and with bursty arrivals, the decode-step count and
        # so the host time swing by tens of percent from seed to seed.
        Fleet("fleet-continuous", scheduler="continuous", requests=30_000, rate=6.0),
        CompressEval(),
    )
}
