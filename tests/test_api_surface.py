"""Public-API snapshot: `repro.api`'s surface is frozen on purpose.

The declarative config layer is the contract every entry point (and
every downstream plugin) builds on, so accidental surface changes —
a renamed export, a reordered dataclass field, a changed signature —
must fail CI loudly. Intentional changes update ``EXPECTED_SURFACE``
in the same commit (and ``docs/api.md`` alongside it).
"""

from __future__ import annotations

import dataclasses
import inspect

import repro.api as api

EXPECTED_SURFACE = {
    "ARRIVALS": "Registry",
    "ClusterConfig": "dataclass(replicas, envs, router, router_options, "
                     "group_batches, max_wait_s, slo_s, partition_experts, "
                     "expert_slots_per_replica, prompt_quantum, engine, "
                     "jobs, faults, retry, scheduler)",
    "FAULT_PRESETS": "Registry",
    "HARDWARE_PRESETS": "Registry",
    "fault_preset_names": "def() -> 'list[str]'",
    "register_fault_preset": "def(name: 'str') -> 'Callable'",
    "MODEL_PRESETS": "Registry",
    "PASSES": "Registry",
    "ROUTERS": "Registry",
    "SCHEDULERS": "Registry",
    "Registry": "class",
    "RegistryError": "class",
    "RunConfig": "dataclass(scenario, system, cluster, serve)",
    "SCHEMA_VERSION": "int",
    "SYSTEMS": "Registry",
    "ScenarioConfig": "dataclass(model, env, batch_size, n, prompt_len, "
                      "gen_len, seed, skew, correlation, prefill_token_cap)",
    "ServeConfig": "dataclass(arrival, arrival_options, requests, rate_per_s, "
                   "hot_experts)",
    "SystemConfig": "dataclass(name, options, passes)",
    "add_scenario_flags": "def(parser: 'argparse.ArgumentParser') -> 'None'",
    "add_set_flag": "def(parser: 'argparse.ArgumentParser') -> 'None'",
    "apply_overrides": "def(tree: 'dict', overrides: 'list[str]') -> 'dict'",
    "arrival_names": "def() -> 'list[str]'",
    "build_fleet": "def(run: 'RunConfig', *, shared_cache: 'dict | None' = None)"
                   " -> 'list'",
    "build_requests": "def(run: 'RunConfig') -> 'list'",
    "build_scenario": "def(config: 'ScenarioConfig')",
    "build_system": "def(config: 'SystemConfig | str')",
    "canonical_json": "def(value) -> 'str'",
    "hardware_preset_names": "def() -> 'list[str]'",
    "is_scenario_cell": "def(params: 'dict') -> 'bool'",
    "model_preset_names": "def() -> 'list[str]'",
    "normalize_cell_params": "def(runner: 'str', params: 'dict') -> 'dict'",
    "pass_names": "def() -> 'list[str]'",
    "register_arrivals": "def(name: 'str') -> 'Callable'",
    "register_hardware_preset": "def(name: 'str', spec) -> 'None'",
    "register_model_preset": "def(config) -> 'None'",
    "register_pass": "def(name: 'str') -> 'Callable'",
    "register_router": "def(name: 'str') -> 'Callable'",
    "register_scheduler": "def(name: 'str') -> 'Callable'",
    "register_system": "def(name: 'str') -> 'Callable'",
    "router_names": "def() -> 'list[str]'",
    "scheduler_names": "def() -> 'list[str]'",
    "run_cluster": "def(run: 'RunConfig', *, shared_cache: 'dict | None' = None,"
                   " requests: 'list | None' = None, engine: 'str | None' ="
                   " None, jobs: 'int | None' = None)",
    "run_config_from_args": "def(args, *, n: 'int' = 1, system: 'str' = "
                            "'klotski', system_options: 'dict | None' = None)"
                            " -> 'RunConfig'",
    "run_pipeline": "def(run: 'RunConfig')",
    "scenario_dict_from_args": "def(args, *, n: 'int' = 1) -> 'dict'",
    "scenario_from_cell_params": "def(params: 'dict') -> 'ScenarioConfig'",
    "stable_hash": "def(value) -> 'str'",
    "system_names": "def() -> 'list[str]'",
}

# The built-in registry contents are part of the contract too: removing
# or renaming an entry breaks serialized configs in the wild.
EXPECTED_REGISTRY_NAMES = {
    "SYSTEMS": [
        "accelerate", "fastgen", "fiddler", "flexgen", "klotski",
        "klotski(q)", "mixtral-offloading", "moe-infinity", "sida",
    ],
    "ROUTERS": ["expert-affinity", "least-outstanding", "round-robin"],
    "SCHEDULERS": ["continuous", "group"],
    "ARRIVALS": ["bursty", "poisson", "trace"],
    "MODEL_PRESETS": [
        "mixtral-8x22b", "mixtral-8x7b", "opt-1.3b", "opt-6.7b",
        "switch-base-128", "switch-base-16", "switch-base-8",
    ],
    "HARDWARE_PRESETS": ["env1", "env2"],
    "FAULT_PRESETS": [
        "chaos", "crashes", "flaky-network", "load-shed", "stragglers",
    ],
    "PASSES": ["coalesce-transfers", "fill-bubbles", "retime-prefetch"],
}


def describe(obj) -> str:
    """One-line structural fingerprint of an exported object."""
    if dataclasses.is_dataclass(obj) and inspect.isclass(obj):
        fields = ", ".join(f.name for f in dataclasses.fields(obj))
        return f"dataclass({fields})"
    if inspect.isclass(obj):
        return "class"
    if callable(obj):
        try:
            return f"def{inspect.signature(obj)}"
        except (TypeError, ValueError):
            return "callable"
    return type(obj).__name__


def test_exported_names_match_snapshot():
    assert sorted(api.__all__) == sorted(EXPECTED_SURFACE)


def test_signatures_match_snapshot():
    actual = {name: describe(getattr(api, name)) for name in api.__all__}
    assert actual == EXPECTED_SURFACE


def test_no_undeclared_exports_are_relied_on():
    for name in api.__all__:
        assert hasattr(api, name), name


def test_builtin_registry_entries_are_pinned():
    for registry_name, expected in EXPECTED_REGISTRY_NAMES.items():
        registry = getattr(api, registry_name)
        # Supersets are fine (plugins may register more); removals break
        # serialized configs and must be deliberate.
        missing = set(expected) - set(registry.names())
        assert not missing, f"{registry_name} lost entries: {sorted(missing)}"


def test_schema_version_is_stable():
    assert api.SCHEMA_VERSION == 1


def test_json_envelope_and_manifest_keys_are_pinned(capsys):
    """The ``--json`` envelope is a wire contract like the API surface.

    Downstream tooling parses these keys; adding one is an extension,
    but removing/renaming must fail here (and update ``MANIFEST_KEYS``
    deliberately).
    """
    import json

    from repro.cli import main
    from repro.obs import MANIFEST_KEYS

    assert main(["experiments", "list", "--json"]) == 0
    envelope = json.loads(capsys.readouterr().out)
    assert tuple(envelope) == ("command", "schema_version", "result", "manifest")
    assert tuple(envelope["manifest"]) == MANIFEST_KEYS
    assert MANIFEST_KEYS == (
        "command", "config_hash", "seed", "version", "wall_s",
        "counters", "gauges",
    )
