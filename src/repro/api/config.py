"""The declarative configuration tree: one typed surface for every run.

A :class:`RunConfig` fully describes one evaluation: the
:class:`ScenarioConfig` (model x hardware x workload x routing
statistics), the :class:`SystemConfig` (which registered inference
system, with what options), and — for serving runs — a
:class:`ClusterConfig` (fleet shape and router) plus a
:class:`ServeConfig` (arrival process and hot-expert tagging).

The contract, checked once and centrally:

* **strict, round-tripping serialization** — ``from_dict(to_dict(c)) == c``
  for every config; unknown keys are rejected with typo suggestions
  ("did you mean 'batch_size'?") instead of being silently ignored;
* **one schema-driven parser** — every node (the four sections, inline
  model and hardware specs, the inline fault and retry dicts) is built
  by :func:`_build` from its dataclass's type hints, so a field's type,
  default and serialization live only in its declaration, and type
  mismatches are reported at every depth;
* **aggregated validation** — every problem in the tree is collected
  into one :class:`~repro.errors.ConfigValidationError` report, so one
  fix cycle sees all the damage;
* **registry-backed resolution** — models, environments, systems,
  routers, and arrival processes are referenced by registry name (or,
  for models/hardware, an inline spec dict), so a plugin registered with
  ``@register_system`` is immediately constructible from JSON.

Because serialization is canonical (:mod:`repro.api.canonical`), a
``RunConfig``'s dict form doubles as a content address: the experiment
cache, golden traces, and fuzzer replay blobs all hash it directly.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
from dataclasses import dataclass, field
from typing import get_args, get_origin, get_type_hints

from repro.api.registry import (
    ARRIVALS,
    FAULT_PRESETS,
    HARDWARE_PRESETS,
    MODEL_PRESETS,
    PASSES,
    ROUTERS,
    SCHEDULERS,
    SYSTEMS,
    suggest,
    unknown_name_message,
)
from repro.errors import ConfigError, ConfigValidationError

SCHEMA_VERSION = 1

# Scenario keys shared with the flat experiment-cell parameter dialect
# (see to_cell_params/from_cell_params). Order matters: it is the
# emission order of the legacy dialect, which cache keys hash.
_CELL_KEYS = ("model", "env", "batch_size", "n", "prompt_len", "gen_len", "seed")

_HOT_EXPERT_MODES = ("auto", "zipf", "pin", "none")


class Errors:
    """Collects ``path: message`` strings across a config tree."""

    def __init__(self):
        self.items: list[str] = []

    def add(self, path: str, message: str) -> None:
        """Record one problem at ``path`` (empty path: top level)."""
        self.items.append(f"{path}: {message}" if path else message)

    def raise_if_any(self, what: str) -> None:
        """Raise one aggregated :class:`ConfigValidationError`."""
        if self.items:
            raise ConfigValidationError(what, self.items)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _check_keys(data: dict, known, path: str, errors: Errors) -> None:
    """Reject unknown keys with a close-match suggestion."""
    for key in data:
        if key in known:
            continue
        guess = suggest(key, known)
        hint = f"; did you mean {guess!r}?" if guess else ""
        errors.add(
            _join(path, str(key)),
            f"unknown key{hint} (known: {', '.join(sorted(known))})",
        )


# Sentinel: the value failed its type check (the reason is recorded).
_BAD = object()


@functools.cache
def _schema(cls) -> dict:
    """``cls``'s dataclass fields mapped to their resolved type hints."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _type_name(hint) -> str:
    """The JSON-facing name of a schema type (for mismatch messages)."""
    origin = get_origin(hint)
    if origin is tuple:
        return "list"
    if origin is types.UnionType:
        return " or ".join(_type_name(arm) for arm in get_args(hint))
    return hint.__name__


def _plain(value):
    """A plain-JSON deep copy: dicts are copied, tuples become lists."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _parse(value, hint, path: str, errors: Errors):
    """Check one JSON value against a schema type.

    Ints widen to float, bools are not ints, ``X | Y`` takes the first
    arm that fits, ``tuple[...]`` takes a list (checked per item at
    ``path[i]``), and a dataclass type is built by :func:`_build`.

    Returns:
        The parsed value, or ``_BAD`` once the mismatch is recorded.
    """
    origin = get_origin(hint)
    if origin is types.UnionType:
        for arm in get_args(hint):
            out = _parse(value, arm, path, Errors())
            if out is not _BAD:
                return out
    elif origin is tuple:
        if isinstance(value, (list, tuple)):
            args = get_args(hint)
            hints = [args[0]] * len(value) if args[-1] is Ellipsis else args
            if len(hints) != len(value):
                errors.add(path, f"expected {len(hints)} items, got {len(value)}")
                return _BAD
            items = [
                _parse(item, item_hint, f"{path}[{i}]", errors)
                for i, (item, item_hint) in enumerate(zip(value, hints))
            ]
            return _BAD if any(item is _BAD for item in items) else tuple(items)
    elif dataclasses.is_dataclass(hint):
        out = _build(hint, value, path, errors)
        return _BAD if out is None else out
    elif hint is dict:
        if isinstance(value, dict):
            return _plain(value)
    elif hint is bool:
        if isinstance(value, bool):
            return value
    elif hint is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return int(value)
    elif hint is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    elif hint is str:
        if isinstance(value, str):
            return value
    else:
        raise TypeError(f"no parser for schema type {hint!r}")
    errors.add(path, f"expected {_type_name(hint)}, got {type(value).__name__}")
    return _BAD


def _build(cls, data, path: str, errors: Errors):
    """Strictly build dataclass ``cls`` from a plain dict.

    Unknown keys and mistyped fields are recorded at their paths; a bad
    field keeps its default so the caller's validation still sees the
    rest. A constructor error (``__post_init__``, a missing required
    field) is recorded only when the dict had no other error.

    Returns:
        The instance, or None when it could not be constructed.
    """
    schema = _schema(cls)
    before = len(errors.items)
    if not isinstance(data, dict):
        errors.add(path, f"expected dict, got {type(data).__name__}")
        data = {}
    _check_keys(data, schema, path, errors)
    kwargs = {}
    for key, value in data.items():
        if key in schema:
            out = _parse(value, schema[key], _join(path, key), errors)
            if out is not _BAD:
                kwargs[key] = out
    try:
        return cls(**kwargs)
    except (ConfigError, ValueError, TypeError) as exc:
        if len(errors.items) == before:
            errors.add(path, str(exc))
        return None


def _resolve_model(model, path: str, errors: Errors):
    """Resolve a model reference (preset name or inline spec dict)."""
    from repro.model.config import ModelConfig

    if isinstance(model, str):
        if model in MODEL_PRESETS:
            return MODEL_PRESETS.get(model)
        errors.add(
            path, unknown_name_message("model preset", model, MODEL_PRESETS.names())
        )
        return None
    return _build(ModelConfig, model, path, errors)


def _resolve_hardware(env, path: str, errors: Errors):
    """Resolve a hardware reference (preset name or inline spec dict)."""
    from repro.hardware.spec import HardwareSpec

    if isinstance(env, str):
        if env in HARDWARE_PRESETS:
            return HARDWARE_PRESETS.get(env)
        errors.add(
            path,
            unknown_name_message("hardware preset", env, HARDWARE_PRESETS.names()),
        )
        return None
    return _build(HardwareSpec, env, path, errors)


class _Section:
    """The shared strict ``from_dict`` and plain ``to_dict`` of a section.

    Every fact about a field (its type, its default, how it serializes)
    lives in the dataclass field declaration; subclasses add only their
    cross-field ``_validate`` checks.
    """

    # Error-report prefix, and the report title ("<section> config").
    _section = ""

    def to_dict(self) -> dict:
        """Plain-JSON form (the canonical serialization hashes this)."""
        return {key: _plain(getattr(self, key)) for key in _schema(type(self))}

    @classmethod
    def from_dict(
        cls, data: dict, *, path: str | None = None, errors: Errors | None = None
    ):
        """Strictly parse a section dict (unknown keys are errors).

        Args:
            data: the plain dict form.
            path: error-report prefix (default: the section name).
            errors: outer collector; when omitted, problems raise one
                aggregated :class:`~repro.errors.ConfigValidationError`.

        Returns:
            The parsed config (fields with errors keep their defaults so
            validation can continue and report everything).
        """
        own = errors if errors is not None else Errors()
        path = cls._section if path is None else path
        config = _build(cls, data, path, own)
        own.items.extend(f"{p}: {m}" if p else m for p, m in config._validate(path))
        if errors is None:
            own.raise_if_any(f"{cls._section} config")
        return config


@dataclass(frozen=True)
class ScenarioConfig(_Section):
    """One evaluation point, declaratively.

    The single source of the scenario defaults: the CLI flags, the
    experiment-grid cell dialect, and the fuzzer all derive from this
    schema (fields, types, defaults), so they cannot drift apart.

    Attributes:
        model: model preset name, or an inline
            :class:`~repro.model.config.ModelConfig` field dict.
        env: hardware preset name, or an inline
            :class:`~repro.hardware.spec.HardwareSpec` field dict.
        batch_size: sequences per batch.
        n: batches per batch group (the paper's ``n``).
        prompt_len: prompt tokens per sequence.
        gen_len: generated tokens per sequence.
        seed: routing RNG seed (pins the token stream).
        skew: Zipf skew of the synthetic expert-popularity model.
        correlation: inter-layer routing correlation strength.
        prefill_token_cap: cap on sampled prefill tokens per batch.
    """

    model: str | dict = "mixtral-8x7b"
    env: str | dict = "env1"
    batch_size: int = 16
    n: int = 1
    prompt_len: int = 512
    gen_len: int = 8
    seed: int = 0
    skew: float = 1.1
    correlation: float = 0.55
    prefill_token_cap: int = 2048

    _section = "scenario"

    # ---- the flat experiment-cell dialect ---------------------------------

    def to_cell_params(self) -> dict:
        """The flat parameter dict the experiment grids hash.

        Only the keys the legacy dialect carried are emitted (routing
        statistics must be at their defaults), which is what keeps every
        pre-existing cache key and golden trace bit-identical.

        Raises:
            ConfigError: when this config cannot be expressed in the
                flat dialect (inline specs, non-default routing stats).
        """
        defaults = ScenarioConfig()
        if not isinstance(self.model, str) or not isinstance(self.env, str):
            raise ConfigError("cell params require preset names, not inline specs")
        for key in ("skew", "correlation", "prefill_token_cap"):
            if getattr(self, key) != getattr(defaults, key):
                raise ConfigError(
                    f"cell params pin {key} at its default "
                    f"({getattr(defaults, key)}); got {getattr(self, key)}"
                )
        return {key: getattr(self, key) for key in _CELL_KEYS}

    @classmethod
    def from_cell_params(cls, params: dict) -> "ScenarioConfig":
        """Parse the flat cell dialect, ignoring non-scenario keys.

        Args:
            params: a cell parameter dict (may carry extra keys like
                ``system``/``variant``/``mode`` — those belong to the
                cell function, not the scenario).

        Returns:
            The validated scenario config.
        """
        return cls.from_dict(
            {k: params[k] for k in _CELL_KEYS if k in params},
            path="scenario",
        )

    # ---- validation and building ------------------------------------------

    def _field_checks(self, path: str) -> list[tuple[str, str]]:
        """Scalar cross-field checks only (no model/env resolution)."""
        out = []
        checks = (
            ("batch_size", self.batch_size >= 1, "must be >= 1"),
            ("n", self.n >= 1, "must be >= 1"),
            ("prompt_len", self.prompt_len >= 1, "must be >= 1"),
            ("gen_len", self.gen_len >= 1, "must be >= 1"),
            ("prefill_token_cap", self.prefill_token_cap >= 1, "must be >= 1"),
            ("skew", self.skew > 0, "must be positive"),
            ("correlation", 0.0 <= self.correlation <= 1.0, "must be in [0, 1]"),
        )
        for key, ok, message in checks:
            if not ok:
                out.append((_join(path, key), message))
        return out

    def _validate(self, path: str) -> list[tuple[str, str]]:
        out = self._field_checks(path)
        probe = Errors()
        _resolve_model(self.model, _join(path, "model"), probe)
        _resolve_hardware(self.env, _join(path, "env"), probe)
        out.extend(("", item) for item in probe.items)
        return out

    def build(self):
        """Materialize the runtime :class:`~repro.scenario.Scenario`.

        Returns:
            The scenario, with routing statistics pinned as configured.

        Raises:
            ConfigValidationError: when the config is invalid.
        """
        from repro.routing.workload import Workload
        from repro.scenario import Scenario

        errors = Errors()
        errors.items.extend(
            f"{p}: {m}" if p else m for p, m in self._field_checks("scenario")
        )
        # One resolution pass serves validation and construction (the
        # fuzzer materializes inline specs on every case — don't parse
        # them twice).
        model = _resolve_model(self.model, "scenario.model", errors)
        hardware = _resolve_hardware(self.env, "scenario.env", errors)
        errors.raise_if_any("scenario config")
        return Scenario(
            model,
            hardware,
            Workload(self.batch_size, self.n, self.prompt_len, self.gen_len),
            skew=self.skew,
            correlation=self.correlation,
            seed=self.seed,
            prefill_token_cap=self.prefill_token_cap,
        )


@dataclass(frozen=True)
class SystemConfig(_Section):
    """Which registered inference system to run, with what options.

    Attributes:
        name: a :data:`~repro.api.registry.SYSTEMS` registry name.
        options: JSON-safe keyword arguments for the registered factory
            (e.g. ``{"quantize": true}`` for ``klotski``).
        passes: ordered :data:`~repro.api.registry.PASSES` queue applied
            to the built schedule before execution (empty: run the
            schedule as authored — the default, byte-identical to
            configs predating the optimizer).
    """

    name: str = "klotski"
    options: dict = field(default_factory=dict)
    passes: tuple[str, ...] = ()

    _section = "system"

    def to_dict(self) -> dict:
        """Plain-JSON form (``passes`` is omitted when empty so existing
        config hashes and goldens are unchanged by the field's
        existence)."""
        data = super().to_dict()
        if not self.passes:
            del data["passes"]
        return data

    @classmethod
    def from_dict(
        cls, data: dict, *, path: str | None = None, errors: Errors | None = None
    ):
        """Strictly parse a system dict; a bare string is shorthand for
        ``{"name": <string>}`` and a ``passes`` string for its
        comma-separated list."""
        if isinstance(data, str):
            data = {"name": data}
        elif isinstance(data, dict) and isinstance(data.get("passes"), str):
            data = {**data, "passes": [p for p in data["passes"].split(",") if p]}
        return super().from_dict(data, path=path, errors=errors)

    def _validate(self, path: str) -> list[tuple[str, str]]:
        problems = []
        if self.name not in SYSTEMS:
            problems.append(
                (
                    _join(path, "name"),
                    unknown_name_message("system", self.name, SYSTEMS.names()),
                )
            )
        for entry in self.passes:
            if entry not in PASSES:
                problems.append(
                    (
                        _join(path, "passes"),
                        unknown_name_message(
                            "schedule pass", entry, PASSES.names()
                        ),
                    )
                )
        return problems

    def build(self):
        """Instantiate the system through the registry.

        Returns:
            A fresh :class:`~repro.systems.InferenceSystem`.

        Raises:
            ConfigValidationError: unknown name or unsupported options.
        """
        import inspect

        factory = SYSTEMS.get(self.name)
        try:
            system = factory(**self.options)
            if self.passes:
                system.passes = tuple(self.passes)
            return system
        except TypeError:
            # Factories advertise their option names via __config_options__
            # (e.g. the KlotskiOptions fields); otherwise fall back to the
            # signature's explicit parameters.
            accepted = list(getattr(factory, "__config_options__", ()))
            if not accepted:
                try:
                    accepted = sorted(
                        p.name
                        for p in inspect.signature(factory).parameters.values()
                        if p.kind
                        in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
                    )
                except (TypeError, ValueError):
                    accepted = []
            errors = Errors()
            for key in self.options:
                if key not in accepted:
                    guess = suggest(key, accepted)
                    hint = f"; did you mean {guess!r}?" if guess else ""
                    errors.add(
                        f"system.options.{key}",
                        f"not accepted by system {self.name!r}{hint} "
                        f"(accepted: {', '.join(accepted) or 'none'})",
                    )
            if not errors.items:
                errors.add("system.options", f"invalid options for {self.name!r}")
            errors.raise_if_any("system config")


@dataclass(frozen=True)
class ClusterConfig(_Section):
    """Fleet shape and routing policy for multi-replica serving.

    Attributes:
        replicas: fleet size.
        envs: hardware presets (or inline spec dicts) cycled across the
            replicas; empty means every replica uses the scenario's env.
        router: a :data:`~repro.api.registry.ROUTERS` registry name.
        router_options: keyword arguments for the router factory.
        group_batches: batches per dispatched group.
        max_wait_s: partial-group dispatch deadline (seconds).
        slo_s: latency SLO for goodput accounting (seconds).
        partition_experts: shard hot-expert residency across replicas.
        expert_slots_per_replica: residency slots per replica (0 means
            derive from each replica's placement plan).
        prompt_quantum: prompt-length bucket for group-timing memoization.
        engine: simulation engine — ``serial`` (reference event loop),
            ``batched`` (group-granular scan), or ``sharded``
            (multiprocess scan); all three are bit-identical (see
            :func:`repro.validation.run_cluster_differential`). The
            scans need a router that plans its assignment up front
            (round-robin, or expert-affinity with enough slack);
            otherwise they run the serial event loop.
        jobs: worker processes for the sharded engine.
        faults: fault-injection model — a
            :data:`~repro.api.registry.FAULT_PRESETS` name or an inline
            :class:`~repro.cluster.faults.FaultConfig` dict; the empty
            string (default) disables fault injection entirely. Active
            fault configs force the serial event loop regardless of
            ``engine`` (see ``docs/robustness.md``).
        retry: :class:`~repro.cluster.faults.RetryPolicy` overrides as a
            dict (empty: the default policy); only consulted when
            ``faults`` is active.
        scheduler: dispatch discipline — a
            :data:`~repro.api.registry.SCHEDULERS` name. ``group`` (the
            default) dispatches whole batch groups; ``continuous``
            admits and preempts at decode-step boundaries (see
            :mod:`repro.serving.scheduler`). Non-default schedulers
            always run the serial event loop regardless of ``engine``.
    """

    replicas: int = 4
    envs: tuple[str | dict, ...] = ()
    router: str = "least-outstanding"
    router_options: dict = field(default_factory=dict)
    group_batches: int = 2
    max_wait_s: float = 60.0
    slo_s: float = 120.0
    partition_experts: bool = True
    expert_slots_per_replica: int = 0
    prompt_quantum: int = 64
    engine: str = "serial"
    jobs: int = 1
    faults: str | dict = ""
    retry: dict = field(default_factory=dict)
    scheduler: str = "group"

    _section = "cluster"

    def _validate(self, path: str) -> list[tuple[str, str]]:
        from repro.cluster.engines import ENGINES
        from repro.cluster.faults import FaultConfig, RetryPolicy

        out = []
        checks = (
            ("replicas", self.replicas >= 1, "must be >= 1"),
            ("group_batches", self.group_batches >= 1, "must be >= 1"),
            (
                "max_wait_s",
                math.isfinite(self.max_wait_s) and self.max_wait_s > 0,
                "must be finite and positive",
            ),
            (
                "slo_s",
                math.isfinite(self.slo_s) and self.slo_s > 0,
                "must be finite and positive",
            ),
            ("prompt_quantum", self.prompt_quantum >= 1, "must be >= 1"),
            (
                "expert_slots_per_replica",
                self.expert_slots_per_replica >= 0,
                "must be >= 0 (0: derive from placement)",
            ),
            (
                "engine",
                self.engine in ENGINES,
                f"must be one of: {', '.join(ENGINES)}",
            ),
            ("jobs", self.jobs >= 1, "must be >= 1"),
        )
        for key, ok, message in checks:
            if not ok:
                out.append((_join(path, key), message))
        if self.router not in ROUTERS:
            out.append(
                (
                    _join(path, "router"),
                    unknown_name_message("router", self.router, ROUTERS.names()),
                )
            )
        if self.scheduler not in SCHEDULERS:
            out.append(
                (
                    _join(path, "scheduler"),
                    unknown_name_message(
                        "scheduler", self.scheduler, SCHEDULERS.names()
                    ),
                )
            )
        probe = Errors()
        if isinstance(self.faults, str):
            if self.faults and self.faults not in FAULT_PRESETS:
                out.append(
                    (
                        _join(path, "faults"),
                        unknown_name_message(
                            "fault preset", self.faults, FAULT_PRESETS.names()
                        ),
                    )
                )
        else:
            _build(FaultConfig, self.faults, _join(path, "faults"), probe)
        if self.retry:
            _build(RetryPolicy, self.retry, _join(path, "retry"), probe)
        for i, env in enumerate(self.envs):
            _resolve_hardware(env, _join(path, f"envs[{i}]"), probe)
        out.extend(("", item) for item in probe.items)
        return out

    def build_router(self):
        """Instantiate the configured router through the registry."""
        return ROUTERS.get(self.router)(**self.router_options)

    def resolve_faults(self):
        """The configured :class:`~repro.cluster.faults.FaultConfig`.

        Returns:
            The resolved fault config, or ``None`` when ``faults`` is
            the empty string (fault injection disabled).
        """
        from repro.cluster.faults import FaultConfig

        if isinstance(self.faults, str):
            if not self.faults:
                return None
            return FAULT_PRESETS.get(self.faults)()
        errors = Errors()
        faults = _build(FaultConfig, self.faults, "cluster.faults", errors)
        errors.raise_if_any("cluster config")
        return faults

    def build_retry(self):
        """The configured :class:`~repro.cluster.faults.RetryPolicy`.

        Returns:
            The policy built from the ``retry`` overrides, or ``None``
            when no overrides are set (the simulator applies its
            default policy under fault injection).
        """
        from repro.cluster.faults import RetryPolicy

        if not self.retry:
            return None
        errors = Errors()
        retry = _build(RetryPolicy, self.retry, "cluster.retry", errors)
        errors.raise_if_any("cluster config")
        return retry

    def resolve_environments(self, default_env) -> list:
        """One :class:`~repro.hardware.spec.HardwareSpec` per replica.

        Args:
            default_env: the scenario's env reference, used when
                ``envs`` is empty.

        Returns:
            ``replicas`` specs, cycling ``envs`` across the fleet.
        """
        errors = Errors()
        refs = list(self.envs) or [default_env]
        specs = [
            _resolve_hardware(ref, f"cluster.envs[{i}]", errors)
            for i, ref in enumerate(refs)
        ]
        errors.raise_if_any("cluster config")
        return [specs[i % len(specs)] for i in range(self.replicas)]


@dataclass(frozen=True)
class ServeConfig(_Section):
    """The request stream a serving run feeds the fleet.

    Attributes:
        arrival: an :data:`~repro.api.registry.ARRIVALS` registry name
            (``poisson``, ``bursty``, ``trace``).
        arrival_options: overrides merged into the generator parameters
            derived from the scenario (rate, lengths, seed); the
            ``trace`` process reads ``path`` or ``records`` from here.
        requests: stream length.
        rate_per_s: mean arrival rate (bursty runs derive calm/burst
            rates with this mean, matching the CLI convention).
        hot_experts: tagging policy — ``{"mode": "auto"}`` (default;
            Zipf-tag only untagged streams), ``{"mode": "zipf", "skew":
            s, "seed": k}``, ``{"mode": "pin", "expert": e}`` or
            ``{"mode": "none"}``.
    """

    arrival: str = "poisson"
    arrival_options: dict = field(default_factory=dict)
    requests: int = 32
    rate_per_s: float = 2.0
    hot_experts: dict = field(default_factory=dict)

    _section = "serve"

    def _validate(self, path: str) -> list[tuple[str, str]]:
        out = []
        if self.arrival not in ARRIVALS:
            out.append(
                (
                    _join(path, "arrival"),
                    unknown_name_message(
                        "arrival process", self.arrival, ARRIVALS.names()
                    ),
                )
            )
        if self.requests < 1:
            out.append((_join(path, "requests"), "must be >= 1"))
        if self.rate_per_s <= 0:
            out.append((_join(path, "rate_per_s"), "must be positive"))
        mode = self.hot_experts.get("mode", "auto")
        if mode not in _HOT_EXPERT_MODES:
            out.append(
                (
                    _join(path, "hot_experts.mode"),
                    unknown_name_message("mode", mode, _HOT_EXPERT_MODES),
                )
            )
        return out


@dataclass(frozen=True)
class RunConfig:
    """The root of the declarative tree: everything one run needs.

    Attributes:
        scenario: the evaluation point.
        system: the inference system under test.
        cluster: fleet shape, for serving runs (None: single-machine).
        serve: request stream, for serving runs.
    """

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    system: SystemConfig = field(default_factory=SystemConfig)
    cluster: ClusterConfig | None = None
    serve: ServeConfig | None = None

    def to_dict(self) -> dict:
        """Plain-JSON form; None sections are omitted (canonical)."""
        d = {"scenario": self.scenario.to_dict(), "system": self.system.to_dict()}
        if self.cluster is not None:
            d["cluster"] = self.cluster.to_dict()
        if self.serve is not None:
            d["serve"] = self.serve.to_dict()
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Strictly parse a full run dict.

        Every problem anywhere in the tree — unknown keys, type
        mismatches, unknown registry names, cross-field violations — is
        collected and raised as one
        :class:`~repro.errors.ConfigValidationError`.

        Args:
            data: the plain dict form.

        Returns:
            The parsed, validated config.
        """
        errors = Errors()
        if not isinstance(data, dict):
            errors.add("", f"expected a dict, got {type(data).__name__}")
            errors.raise_if_any("run config")
        _check_keys(data, ("scenario", "system", "cluster", "serve"), "", errors)
        scenario = ScenarioConfig.from_dict(
            data.get("scenario", {}), errors=errors
        )
        system = SystemConfig.from_dict(data.get("system", {}), errors=errors)
        cluster = serve = None
        if data.get("cluster") is not None:
            cluster = ClusterConfig.from_dict(data["cluster"], errors=errors)
        if data.get("serve") is not None:
            serve = ServeConfig.from_dict(data["serve"], errors=errors)
        errors.raise_if_any("run config")
        return cls(scenario=scenario, system=system, cluster=cluster, serve=serve)

    def validate(self) -> "RunConfig":
        """Re-run the whole-tree validation; returns self when clean."""
        return RunConfig.from_dict(self.to_dict()) and self
