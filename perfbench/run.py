"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-pipeline --seed 1 --seconds 20 --trace 0

``--trace 0`` times whole passes with no instrumentation and prints the
end-to-end metrics. ``--trace 1`` alternates an untraced and a traced
pass (set-up included) and prints the per-layer metrics, the simulated
statistics and the tracing overhead. Both modes check every pass's
outputs, and the human-readable lines before the last one give the
workload's own headline figures, the sim digest and the environment.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Results and, in trace mode, every recorded span are also written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from clock import REFERENCE_S, Clock, reference_seconds

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"

# Set-up is repeated at least this many times, and until this much time
# has gone into it, so that its median is not one sample's noise.
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 0.3, 10_000


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def timed_setup(workload, seed: int):
    """Median raw and calibrated seconds of one set-up over repeated
    set-ups, and the last set-up's inputs."""
    before = reference_seconds()
    times, spent = [], 0.0
    while len(times) < SETUP_MAX_REPS and (
        len(times) < SETUP_MIN_REPS or spent < SETUP_MIN_S
    ):
        t0 = perf_counter()
        inputs = workload.setup(seed)
        times.append(perf_counter() - t0)
        spent += times[-1]
    reference = (before + reference_seconds()) / 2
    return median(times), median(times) * REFERENCE_S / reference, inputs


class PassLog:
    """Outputs checks and operation counts over a run's passes."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.digest = None
        self.sim: dict[str, float] = {}

    def add(self, inputs, outputs, attempted, failed, label) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems += [f"{label}: {p}" for p in self.workload.check(inputs, outputs)]
        found = digest(self.workload.digest_payload(outputs))
        if self.digest is None:
            self.digest = found
            self.sim = self.workload.sim_stats(inputs, outputs)
        elif found != self.digest:
            self.problems.append(f"{label}: sim digest differs from the first pass")


def untraced_run(workload, seed, seconds):
    setup_raw_s, setup_s, inputs = timed_setup(workload, seed)
    log, host, calibrated, clock = PassLog(workload), [], [], Clock()
    start = perf_counter()
    while True:
        gc.collect()
        host_before, calibrated_before = clock.host_s, clock.calibrated_s
        outputs, attempted, failed = workload.run(inputs, clock)
        host.append(clock.host_s - host_before)
        calibrated.append(clock.calibrated_s - calibrated_before)
        log.add(inputs, outputs, attempted, failed, f"pass {len(host)}")
        del outputs  # no pass runs with an earlier pass's outputs alive
        if perf_counter() - start >= seconds:
            break
    host_pass_s = median(host)
    metrics = {
        "host_pass_cal_s": median(calibrated),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_ok_share": 1.0 - log.failed / log.attempted,
    }
    headline = [
        ("host_pass_s (raw)", host_pass_s, "s"),
        ("setup_s (raw)", setup_raw_s, "s"),
        *workload.headline(inputs, host_pass_s, log.sim),
    ]
    extra = {"passes": len(host), "host_s": host, "calibrated_s": calibrated}
    return metrics, log, headline, extra


def _share(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def layer_metrics(tracer, run_id, counters) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    incl, own, calls = tracer.layer_seconds(run_id)
    c = counters.get
    ops = tracer.counts.get((run_id, "runtime.execute"), 0)
    steps = c("cluster.decode_steps", 0)
    passes_decided = c("passes.accepted", 0) + c("passes.rejected", 0) + c("passes.no-op", 0)
    return {
        "systems.build_s": own.get("systems.build", 0.0),
        "core.prefetcher_s": incl.get("core.prefetcher", 0.0),
        "core.placement_s": incl.get("core.placement", 0.0),
        "routing.step_routing_s": incl.get("routing.step_routing", 0.0),
        "routing.memo_hit_share": _share(
            c("memo.step_routing.hit", 0),
            c("memo.step_routing.hit", 0) + c("memo.step_routing.miss", 0),
        ),
        "runtime.freeze_s": incl.get("runtime.freeze", 0.0),
        "runtime.execute_s": incl.get("runtime.execute", 0.0),
        "runtime.ops": float(ops),
        "runtime.execute_ns_per_op": _share(incl.get("runtime.execute", 0.0) * 1e9, ops),
        "runtime.metrics_s": incl.get("runtime.metrics", 0.0),
        "passes.run_s": incl.get("passes.run", 0.0),
        "passes.accept_share": _share(c("passes.accepted", 0), passes_decided),
        "api.build_requests_s": incl.get("api.build_requests", 0.0),
        "api.build_fleet_s": incl.get("api.build_fleet", 0.0),
        "cluster.simulate_s": incl.get("cluster.simulate", 0.0),
        "cluster.route_s": incl.get("cluster.route", 0.0),
        "cluster.replica_s": incl.get("cluster.replica", 0.0),
        "cluster.report_s": incl.get("cluster.report", 0.0),
        "cluster.group_timing_memo_hit_share": _share(
            c("memo.group_timing.hit", 0),
            c("memo.group_timing.hit", 0) + c("memo.group_timing.miss", 0),
        ),
        "cluster.full_group_share": _share(
            c("cluster.full_group_dispatches", 0), c("cluster.dispatched_groups", 0)
        ),
        "serving.scheduler_run_s": incl.get("serving.scheduler_run", 0.0),
        "serving.decode_steps": float(steps),
        "serving.admitted_requests": float(c("cluster.admitted_requests", 0)),
        "serving.preemptions": float(c("cluster.preemptions", 0)),
        "serving.us_per_decode_step": _share(
            incl.get("serving.scheduler_run", 0.0) * 1e6, steps
        ),
        "model.synthesize_s": incl.get("model.synthesize", 0.0),
        "model.synthesize_calls": float(calls.get("model.synthesize", 0)),
        "model.forward_s": incl.get("model.forward", 0.0),
        "compression.quantize_s": incl.get("compression.quantize", 0.0),
        "compression.quantize_calls": float(calls.get("compression.quantize", 0)),
        "compression.dequantize_s": incl.get("compression.dequantize", 0.0),
        "trace.spans": float(sum(calls.values())),
    }


def _setup_and_pass(workload, seed, log, label, tracer=None):
    """One set-up plus one pass; returns their calibrated host seconds.
    With ``tracer``, both run traced, and so does reading the pass's
    simulated statistics (``cluster.report``)."""
    gc.collect()
    clock = Clock()
    if tracer is not None:
        tracer.install()
    try:
        inputs = clock.call(workload.setup, seed)
        outputs, attempted, failed = workload.run(inputs, clock)
        if tracer is not None:
            workload.sim_stats(inputs, outputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    log.add(inputs, outputs, attempted, failed, label)
    return clock.calibrated_s


def traced_run(workload, seed, seconds):
    from repro.obs import counters_snapshot
    from tracing import Tracer

    tracer = Tracer()
    log, untraced, traced, layers = PassLog(workload), [], [], []
    start = perf_counter()
    while True:
        it = len(traced) + 1
        untraced.append(_setup_and_pass(workload, seed, log, f"untraced pass {it}"))
        tracer.run_id = f"{workload.name}/seed{seed}/pass{it}"
        before = counters_snapshot()
        traced.append(_setup_and_pass(workload, seed, log, f"traced pass {it}", tracer))
        after = counters_snapshot()
        delta = {k: v - before.get(k, 0) for k, v in after.items()}
        layers.append(layer_metrics(tracer, tracer.run_id, delta))
        if perf_counter() - start >= seconds:
            break

    metrics = {name: median(m[name] for m in layers) for name in layers[0]}
    metrics.update(log.sim)
    metrics["trace.untraced_s"] = median(untraced)
    metrics["trace.overhead_s"] = median(traced) - median(untraced)
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / median(untraced)
    extra = {"passes": len(traced), "untraced_s": untraced, "traced_s": traced}
    return metrics, log, [], extra, tracer.spans


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import repro.api  # noqa: F401  (import cost is reported, not timed per pass)
    import_s = perf_counter() - t0
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    env = environment(args.seed)
    spans = None
    if args.trace:
        metrics, log, headline, extra, spans = traced_run(workload, args.seed, args.seconds)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        # A simulated statistic the workload does not model reads 0, as
        # an idle layer's time does.
        for name in units:
            if name.startswith(("sim.", "compression.quant_ppl")):
                metrics.setdefault(name, 0.0)
    else:
        metrics, log, headline, extra = untraced_run(workload, args.seed, args.seconds)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    print(f"workload {workload.name}: {why}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"import_s {import_s:.4f} s; passes {extra['passes']}")
    for name, value, unit in headline:
        print(f"  {name:<28} {value:>16.6g} {unit}")
    if not args.trace:
        print(f"  {'ops_failed_share':<28} {log.failed / log.attempted:>16.6g} share")
    for name in sorted(units):
        print(f"  {name:<36} {metrics[name]:>16.6g} {units[name]}")
    print(f"sim digest {log.digest}")
    print(
        "simulated OOMs and simulated request failures are modelled outcomes; "
        "only an exception raised by an entry-point call counts as failed"
    )
    for problem in log.problems:
        print(f"CHECK FAILED {problem}")

    result = {
        "correct": not log.problems,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(
            {
                **result,
                "workload": workload.name,
                "environment": env,
                "sim_digest": log.digest,
                "sim": log.sim,
                "headline": [list(row) for row in headline],
                "problems": log.problems,
                **extra,
            },
            indent=1,
        )
    )
    if spans is not None:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            fh.write('["name","start_ns","end_ns","parent","run_id"]\n')
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
