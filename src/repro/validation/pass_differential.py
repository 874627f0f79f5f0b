"""Pass differential: prove optimized schedules are the same work, faster.

The optimizer pipeline (:mod:`repro.passes`) already gates each step;
this harness independently re-proves the end-to-end contract for a
whole pipeline run, from the outside:

* **conservation** — the composed ``op_map`` is a partition of the
  original ops, and every output op conserves its group's resource,
  duration (bitwise sequential sum), phase, and memory-effect multiset;
* **invariants** — the final timeline is ``check_timeline``-clean;
* **monotonicity** — the final makespan never exceeds the baseline's.

Surfaced as ``repro.cli validate --passes`` (golden schedules + fuzzed
cases) and used by the property-based pass-safety test suite.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass

from repro.hardware.spec import GB, GiB, ComputeSpec, HardwareSpec, LinkSpec
from repro.model.config import ModelConfig
from repro.passes import PassPipeline, PipelineResult
from repro.passes.rewrite import OpMap
from repro.runtime.schedule import RESOURCES, Schedule
from repro.validation.invariants import Violation, check_timeline


def _effects_by_op(schedule: Schedule) -> dict[int, Counter]:
    effects: dict[int, Counter] = {}
    for op, kind, pool, tensor, nbytes in zip(
        schedule._ev_op, schedule._ev_kind, schedule._ev_pool,
        schedule._ev_tensor, schedule._ev_nbytes,
    ):
        effects.setdefault(op, Counter())[(kind, pool, tensor, nbytes)] += 1
    return effects


def check_conservation(
    original: Schedule, optimized: Schedule, op_map: OpMap | None
) -> list[Violation]:
    """Check that ``optimized`` conserves the op multiset of ``original``.

    Args:
        original: the pre-pass schedule.
        optimized: a candidate or final rewritten schedule.
        op_map: new op id -> original op ids (None means identity).

    Returns:
        Violations (empty when the rewrite conserves everything).
    """
    if op_map is None:
        op_map = tuple((i,) for i in range(len(original)))
    violations: list[Violation] = []
    n = len(original)
    if len(op_map) != len(optimized):
        return [
            Violation(
                "conservation",
                f"op_map has {len(op_map)} groups for "
                f"{len(optimized)} output ops",
            )
        ]
    seen = [False] * n
    for group in op_map:
        for member in group:
            if not 0 <= member < n or seen[member]:
                violations.append(
                    Violation(
                        "conservation",
                        f"original op {member} missing or duplicated in op_map",
                    )
                )
                return violations
            seen[member] = True
    if not all(seen):
        missing = seen.index(False)
        return [
            Violation(
                "conservation", f"original op {missing} dropped by the rewrite"
            )
        ]

    old_effects = _effects_by_op(original)
    new_effects = _effects_by_op(optimized)
    for new_id, group in enumerate(op_map):
        head = group[0]
        if optimized._res[new_id] != original._res[head] or any(
            original._res[m] != original._res[head] for m in group
        ):
            violations.append(
                Violation(
                    "conservation",
                    f"output op {new_id} changed resource "
                    f"({RESOURCES[optimized._res[new_id]]} vs group of "
                    f"{RESOURCES[original._res[head]]})",
                )
            )
        duration = 0.0
        for m in group:
            duration += original._dur[m]
        if optimized._dur[new_id] != duration:
            violations.append(
                Violation(
                    "conservation",
                    f"output op {new_id} duration {optimized._dur[new_id]!r}"
                    f" != group sum {duration!r}",
                )
            )
        if optimized._phases[new_id] != original._phases[head]:
            violations.append(
                Violation(
                    "conservation",
                    f"output op {new_id} changed phase "
                    f"{original._phases[head]!r} -> "
                    f"{optimized._phases[new_id]!r}",
                )
            )
        if len(group) == 1 and (
            optimized._layers[new_id] != original._layers[head]
            or optimized._batches[new_id] != original._batches[head]
        ):
            violations.append(
                Violation(
                    "conservation",
                    f"output op {new_id} changed layer/batch attribution",
                )
            )
        merged = Counter()
        for m in group:
            merged.update(old_effects.get(m, ()))
        if new_effects.get(new_id, Counter()) != merged:
            violations.append(
                Violation(
                    "conservation",
                    f"output op {new_id} changed its memory-effect multiset",
                )
            )
    return violations


@dataclass
class PassDifferentialResult:
    """A pipeline run plus its independently re-proved contract.

    Attributes:
        pipeline: the :class:`~repro.passes.PipelineResult` under test.
        violations: contract violations found by the re-proof (empty
            when the run is clean).
    """

    pipeline: PipelineResult
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        payload = self.pipeline.to_dict()
        payload["violations"] = [str(v) for v in self.violations]
        return payload


def run_pass_differential(
    schedule: Schedule,
    hardware: HardwareSpec,
    *,
    passes=None,
    capacities: dict[str, int] | None = None,
) -> PassDifferentialResult:
    """Run the pass pipeline and re-prove its end-to-end contract.

    Args:
        schedule: the baseline schedule to optimize.
        hardware: the machine it targets.
        passes: pass queue (default: :data:`repro.passes.DEFAULT_PASS_QUEUE`).
        capacities: pool-capacity override for execution.

    Returns:
        The pipeline result plus any contract violations.
    """
    pipeline = PassPipeline(passes)
    result = pipeline.run(schedule, hardware, capacities=capacities)
    violations = check_conservation(schedule, result.schedule, result.op_map)
    violations.extend(check_timeline(result.schedule, result.timeline))
    if result.makespan > result.baseline_makespan:
        violations.append(
            Violation(
                "pass-monotonicity",
                f"optimized makespan {result.makespan!r} exceeds baseline "
                f"{result.baseline_makespan!r}",
            )
        )
    for decision in result.decisions:
        if decision.status == "rejected" and not decision.reason:
            violations.append(
                Violation(
                    "pass-provenance",
                    f"pass {decision.name} rejected without a recorded reason",
                )
            )
    return PassDifferentialResult(pipeline=result, violations=violations)


# The golden pipeline recipe (tests/test_goldens.py pins its schedules and
# tests/conftest.py shares it as a fixture): a mid-size MoE whose weights
# do NOT fit the small GPU below, forcing real offloading decisions
# without full Mixtral-scale op counts.
SMALL_MIXTRAL = ModelConfig(
    name="small-mixtral",
    hidden_size=1024,
    intermediate_size=3584,
    num_layers=8,
    num_heads=16,
    num_kv_heads=4,
    num_experts=8,
    top_k=2,
    vocab_size=8192,
)

# The golden pipeline systems.
GOLDEN_PASS_SYSTEMS = ("klotski", "klotski(q)", "flexgen")


def small_hardware() -> HardwareSpec:
    """A machine proportioned like Env1 but sized for :data:`SMALL_MIXTRAL`."""
    return HardwareSpec(
        name="small-env",
        gpu=ComputeSpec("small-gpu", 4e12, 100 * GB, kernel_overhead_s=100e-6),
        cpu=ComputeSpec("small-cpu", 0.1e12, 10 * GB, kernel_overhead_s=5e-6),
        vram_bytes=1 * GiB,
        dram_bytes=32 * GiB,
        disk_bytes=200 * GB,
        pcie_h2d=LinkSpec("h2d", 2 * GB),
        pcie_d2h=LinkSpec("d2h", 2 * GB),
        disk_link=LinkSpec("disk", 0.5 * GB, latency_s=80e-6),
    )


def golden_pass_configs() -> list:
    """The golden pipeline recipe as replayable config blobs.

    :data:`SMALL_MIXTRAL` on :func:`small_hardware`, expressed as inline
    model/hardware specs so the CLI needs no test fixtures.

    Returns:
        One :class:`~repro.api.RunConfig` per golden pipeline system.
    """
    from repro.api import RunConfig, ScenarioConfig, SystemConfig

    scenario = ScenarioConfig(
        model=dataclasses.asdict(SMALL_MIXTRAL),
        env=dataclasses.asdict(small_hardware()),
        batch_size=4, n=3, prompt_len=32, gen_len=4, seed=3,
    )
    return [
        RunConfig(scenario=scenario, system=SystemConfig(name))
        for name in GOLDEN_PASS_SYSTEMS
    ]


def run_golden_pass_cases(report, *, passes=None) -> None:
    """Pass-differential over the golden pipeline schedules.

    Folds one case per golden system into ``report`` (a
    :class:`~repro.validation.fuzz.FuzzReport`), tagged so a failure
    names the system; the recorded config blob replays it.

    Args:
        report: accumulator updated in place.
        passes: pass-queue override (default: the default queue).
    """
    from repro.api import build_scenario, build_system

    for config in golden_pass_configs():
        scenario = build_scenario(config.scenario)
        system = build_system(config.system)
        report.cases += 1
        report.pipeline_cases += 1
        schedule = system.build(scenario).schedule
        diff = run_pass_differential(schedule, scenario.hardware, passes=passes)
        report.record(
            f"golden system={system.name} [passes]",
            config,
            violations=[str(v) for v in diff.violations],
            passes=list(diff.pipeline.accepted),
        )
