"""Event-driven multi-replica cluster simulation.

``ClusterSimulator`` drives N :class:`~repro.cluster.replica.Replica`
objects — each wrapping any :class:`~repro.systems.InferenceSystem` on its
own (possibly heterogeneous) hardware — against one shared request stream.

Event model (see :mod:`repro.cluster.events`): one event loop,
:meth:`ClusterSimulator.simulate`, runs every simulation — either
dispatch discipline, faulted or not. Request *arrivals* are read in
order from the arrival-sorted stream and merged against a single
time-ordered heap on the same ``(time, kind, seq)`` key; the heap
carries the fault/control kinds of a compiled
:class:`~repro.cluster.faults.FaultPlan` (crash, recover, join, drain,
straggler windows, retries) and the discipline's own kinds. The loop
owns routing, fleet health, retries, load shedding, terminal records and
availability; the discipline (:mod:`repro.serving.scheduler`) decides
what happens to a routed request. Under the default ``group``
discipline a full group dispatches immediately, otherwise a deadline
event guarantees the partial group dispatches at exactly
``oldest.arrival_s + max_wait_s``. Deadlines are validated lazily, so
stale ones (their group already dispatched) are no-ops. A one-replica
fleet is the single-machine server.

Expert residency: when ``partition_experts`` is on, the fleet pins hot
experts (popularity-rank order, :mod:`repro.routing.popularity`) round-robin
across replicas' VRAM slots, so every hot expert is resident *somewhere*
and the expert-affinity router can exploit it; otherwise each replica keeps
whatever its own placement plan makes resident. All randomness lives in the
request generators — the simulator itself is deterministic, so a fixed seed
reproduces byte-identical reports across router policies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.api.registry import SCHEDULERS
from repro.cluster.engines import ENGINES, run_engine
from repro.cluster.events import (
    ARRIVAL,
    CRASH,
    DRAIN,
    JOIN,
    KIND_PRIORITY,
    RECOVER,
    RETRY,
    SLOW_END,
    SLOW_START,
    EventQueue,
)
from repro.cluster.faults import (
    FaultPlan,
    RetryPolicy,
    compile_fault_plan,
    finalize_availability,
)
from repro.cluster.replica import DispatchedGroup, Replica
from repro.cluster.report import ClusterReport, ReplicaStats, make_record
from repro.cluster.routers import Router
from repro.hardware.spec import HardwareSpec
from repro.model.config import ModelConfig
from repro.obs import count, span
from repro.routing.popularity import zipf_weights
from repro.routing.workload import Workload
from repro.scenario import Scenario
from repro.serving.requests import Request
from repro.serving.server import BatchingConfig

# Counters every faulted run reports, after the discipline's own.
_FAULT_COUNTERS = (
    "crashes",
    "recoveries",
    "joins",
    "drains",
    "straggler_windows",
    "transient_failures",
    "breaker_trips",
    "retries_scheduled",
    "requeued_from_crash",
    "requeued_from_drain",
    "shed_requests",
    "failed_requests",
    "stranded_requests",
)

_ARRIVAL_RANK = KIND_PRIORITY[ARRIVAL]

# Event kinds the loop handles itself; the discipline handles the rest.
_CONTROL_KINDS = frozenset(
    (CRASH, RECOVER, JOIN, DRAIN, SLOW_START, SLOW_END, RETRY)
)


@dataclass(frozen=True)
class ClusterConfig:
    """Fleet-level policy knobs.

    Per-replica knobs (batching, the prompt-length memoization quantum)
    live on :class:`~repro.cluster.replica.Replica` and are set through
    :func:`build_cluster`.

    Attributes:
        slo_s: end-to-end latency bound for goodput accounting.
        partition_experts: shard hot-expert residency across replicas.
        expert_slots_per_replica: residency slots per replica (None:
            derive from each replica's placement).
        scheduler: dispatch discipline — ``"group"`` (group-granular
            dispatch, the default) or any other name registered in
            ``repro.api.SCHEDULERS`` (e.g. ``"continuous"`` for
            iteration-level batching).
    """

    slo_s: float = 120.0  # end-to-end latency bound for goodput accounting
    partition_experts: bool = True  # shard hot-expert residency across replicas
    expert_slots_per_replica: int | None = None  # None: derive from placement
    scheduler: str = "group"  # dispatch discipline (SCHEDULERS registry)

    def __post_init__(self):
        if not (math.isfinite(self.slo_s) and self.slo_s > 0):
            raise ValueError("slo_s must be finite and positive")


def build_cluster(
    model: ModelConfig,
    environments: list[HardwareSpec],
    batching: BatchingConfig,
    *,
    system_factory=None,
    prompt_len: int = 512,
    gen_len: int = 8,
    seed: int = 0,
    prompt_quantum: int = 64,
    shared_cache: dict | None = None,
) -> list[Replica]:
    """Build one replica per environment.

    Group timings are memoized in the process-wide cache shared by every
    replica whose (system, environment, model, seed, batching shape,
    prompt quantum) agree — see
    :func:`repro.cluster.replica.clear_group_timing_memo` — so N-replica
    fleets, and successive fleets in one process, never re-simulate an
    identical group.

    Args:
        model: model preset served by every replica.
        environments: one hardware spec per replica (heterogeneous OK).
        batching: group-formation policy shared by the fleet.
        system_factory: called once per replica (default: Klotski); pass
            a list of factories for a mixed-system fleet.
        prompt_len: mean prompt length used for group timing.
        gen_len: generated tokens per request.
        seed: scenario routing seed.
        prompt_quantum: prompt-length bucket for timing memoization.
        shared_cache: group-timing cache shared by the fleet (default:
            the process-wide memo; pass a dict to isolate this fleet,
            e.g. for determinism checks).

    Returns:
        The list of replicas, ready for :class:`ClusterSimulator`.
    """
    if not environments:
        raise ValueError("at least one environment is required")
    if system_factory is None:
        from repro.core.engine import KlotskiSystem

        system_factory = KlotskiSystem
    factories = (
        system_factory
        if isinstance(system_factory, list)
        else [system_factory] * len(environments)
    )
    if len(factories) != len(environments):
        raise ValueError("need one system factory per environment")
    workload = Workload(
        batching.batch_size, batching.group_batches, prompt_len, gen_len
    )
    return [
        Replica(
            replica_id=i,
            scenario=Scenario(model, env, workload, seed=seed),
            system=factory(),
            batching=batching,
            prompt_quantum=prompt_quantum,
            shared_cache=shared_cache,
        )
        for i, (env, factory) in enumerate(zip(environments, factories))
    ]


class ClusterSimulator:
    """Route one request stream across a fleet of replicas.

    Args:
        replicas: the fleet (at least one :class:`Replica`).
        router: request-routing policy.
        config: fleet-level knobs (default :class:`ClusterConfig`).
        faults: optional :class:`~repro.cluster.faults.FaultConfig`; when
            active, its compiled plan drives the fault branches of the
            event loop.
        retry: optional :class:`~repro.cluster.faults.RetryPolicy` used
            under fault injection (default policy when omitted).

    While :meth:`simulate` runs, the simulator also holds the run state
    the dispatch disciplines read and update: ``plan`` (the compiled
    fault plan, None when fault-free), ``report``, ``counters``,
    ``attempts`` (dispatch attempts per request id), the per-replica
    ``epoch``, ``up``, ``draining`` and ``last_end`` lists, and ``push``
    (schedule an event).
    """

    def __init__(
        self,
        replicas: list[Replica],
        router: Router,
        config: ClusterConfig | None = None,
        *,
        faults=None,
        retry=None,
    ):
        if not replicas:
            raise ValueError("at least one replica is required")
        self.replicas = replicas
        self.router = router
        self.config = config or ClusterConfig()
        self.faults = faults
        self.retry = retry
        self._consumed = False
        self._assign_residency()

    def _assign_residency(self) -> None:
        """Pin expert residency per replica before any traffic flows."""
        if not self.config.partition_experts:
            for replica in self.replicas:
                replica.resident_experts = replica.derive_resident_experts()
            return
        # Popularity-mass partition: expert index == popularity rank (the
        # convention of assign_hot_experts). Experts are assigned hottest
        # first to the replica with the least accumulated popularity mass
        # and a free slot, so no replica owns a disproportionate share of
        # the traffic its affinity attracts.
        slots = []
        for replica in self.replicas:
            explicit = self.config.expert_slots_per_replica
            slots.append(
                explicit
                if explicit is not None
                else max(1, len(replica.derive_resident_experts()))
            )
        assigned: list[set[int]] = [set() for _ in self.replicas]
        mass = [0.0] * len(self.replicas)
        num_experts = min(r.scenario.model.num_experts for r in self.replicas)
        weights = zipf_weights(num_experts, self.replicas[0].scenario.skew)
        for expert in range(num_experts):
            open_replicas = [
                i for i, a in enumerate(assigned) if len(a) < slots[i]
            ]
            if not open_replicas:
                break
            target = min(open_replicas, key=lambda i: (mass[i], i))
            assigned[target].add(expert)
            mass[target] += float(weights[expert])
        for replica, experts in zip(self.replicas, assigned):
            replica.resident_experts = frozenset(experts)

    # ---- event loop -------------------------------------------------------

    def run(
        self,
        requests: list[Request],
        *,
        engine: str = "serial",
        jobs: int = 1,
    ) -> ClusterReport:
        """Simulate the stream to completion and aggregate the report.

        Args:
            requests: the request stream (any order; sorted internally).
            engine: ``serial`` (the reference event loop), ``batched``
                (group-granular per-replica scan), or ``sharded`` (the
                scans across a ``multiprocessing`` pool). The fast
                engines produce bit-identical reports — see
                :mod:`repro.cluster.engines` and
                :func:`repro.validation.run_cluster_differential`.
            jobs: worker processes for the sharded engine (ignored
                otherwise).

        Raises:
            RuntimeError: on fleet reuse. Replica state (queues, groups,
                busy time) accumulates across runs and silently corrupts
                the second report, so a simulator serves exactly one
                stream — build a fresh fleet (:func:`build_cluster` /
                ``repro.api.build_fleet``) per run.

        Every run goes through the ``config.scheduler`` discipline of
        ``repro.api.SCHEDULERS`` and the one event loop,
        :meth:`simulate`, unless a fast engine can take it. The fast
        engines model only the fault-free group discipline under a
        router that plans its assignment up front; any other
        fast-engine request runs the serial loop instead, counted as
        ``cluster.engine.scheduler_fallback``,
        ``cluster.engine.fault_fallback`` or
        ``cluster.engine.router_fallback``.
        """
        if engine not in ENGINES:
            raise ValueError(
                f"unknown cluster engine {engine!r}; choose from {ENGINES}"
            )
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        with span(
            "cluster.run",
            {
                "replicas": len(self.replicas),
                "requests": len(requests),
                "engine": engine,
            },
        ):
            if engine != "serial":
                if self.config.scheduler != "group":
                    count("cluster.engine.scheduler_fallback")
                elif self.faults is not None and self.faults.active():
                    count("cluster.engine.fault_fallback")
                else:
                    srt = sorted(requests, key=lambda r: r.arrival_s)
                    plan = self.router.plan_assignments(srt, self.replicas)
                    if plan is None:
                        count("cluster.engine.router_fallback")
                    else:
                        self._claim()
                        return run_engine(
                            self, srt, plan, jobs=jobs if engine == "sharded" else 1
                        )
            return SCHEDULERS.get(self.config.scheduler)(self).run(requests)

    def _claim(self) -> None:
        """Mark the fleet as serving; raise if it already served a stream."""
        if self._consumed or any(
            r.groups or r.queue or r.busy_s or r.queue_depth_timeline
            for r in self.replicas
        ):
            raise RuntimeError(
                "this fleet has already served a stream: replica state "
                "(queues, groups, busy time) accumulates across run() "
                "calls and would corrupt the report — build a fresh "
                "fleet per run (build_cluster / repro.api.build_fleet)"
            )
        self._consumed = True

    def _fault_plan(self, requests: list[Request]) -> FaultPlan | None:
        """Compile this run's fault schedule (None when fault-free).

        Crash and straggler windows are sampled up to one downtime, one
        slowdown window and a minute past the last arrival.
        """
        faults = self.faults
        if faults is None or not faults.active():
            return None
        last = max((r.arrival_s for r in requests), default=0.0)
        horizon = (
            last + faults.crash_downtime_s + faults.straggler_duration_s + 60.0
        )
        return compile_fault_plan(faults, len(self.replicas), horizon)

    def simulate(self, requests: list[Request], discipline) -> ClusterReport:
        """Run the cluster event loop under one dispatch discipline.

        The loop owns what every discipline shares: the event heap,
        routing, fleet health and crash epochs, every fault kind, the
        transient-failure oracle and circuit breakers, retries, load
        shedding, terminal records, the stranded-request flush,
        availability and the counters. ``discipline`` (a
        :class:`repro.serving.scheduler.Scheduler`) supplies what
        differs: how a routed request is dispatched, its own event
        kinds, what a crash aborts, and the per-replica work counts.

        Args:
            requests: the request stream (any order; sorted internally).
            discipline: the dispatch discipline driving this run.

        Returns:
            The aggregated :class:`ClusterReport`; under fault injection
            it carries availability metrics and every request terminates
            exactly once as ``completed``, ``shed`` or ``failed``.

        Raises:
            RuntimeError: on fleet reuse (see :meth:`run`).
        """
        self._claim()
        replicas = self.replicas
        n = len(replicas)
        plan = self.plan = self._fault_plan(requests)
        self.discipline = discipline
        self.report = report = ClusterReport(
            router=self.router.name, slo_s=self.config.slo_s
        )
        stream = sorted(requests, key=lambda r: r.arrival_s)
        total = len(stream)
        events = EventQueue()
        self.push = events.push
        self.counters = counters = dict.fromkeys(
            ("arrivals", *discipline.counter_names), 0
        )
        self.attempts: dict[int, int] = {}
        # Per-replica state, indexed by replica_id. A crash bumps the
        # replica's epoch; events stamped with an older one are stale.
        self.epoch = [0] * n
        self.up = [True] * n
        self.draining = [False] * n
        self.last_end = [0.0] * n  # end of the replica's last finished work
        self._crash_open: list[float | None] = [None] * n
        self._down_windows: list[list[tuple[float, float]]] = [
            [] for _ in range(n)
        ]
        self._join_s = [0.0] * n
        self._drain_s: list[float | None] = [None] * n
        self._dispatch_seq = [0] * n  # transient-oracle ordinal
        self._consec_fail = [0] * n
        self._breaker_until = [0.0] * n
        if plan is not None:
            counters.update(dict.fromkeys(_FAULT_COUNTERS, 0))
            self._retry_policy = self.retry or RetryPolicy()
            for t, rid in plan.config.joins:
                self.up[rid] = False  # the JOIN event brings it up
                self._join_s[rid] = t
            for t, kind, rid, value in plan.events:
                events.push(t, kind, (rid, value))

        # Arrivals never enter the heap: the loop reads them in order from
        # the sorted stream and merges each against the heap head on the
        # canonical key. No heap event has the ARRIVAL rank, so time or rank
        # always decides the comparison and the sequence number never does.
        route, control, on_event = self._route, self._control, discipline.on_event
        pop, peek = events.pop, events.peek
        next_arrival = 0
        while next_arrival < total or events:
            if next_arrival < total:
                request = stream[next_arrival]
                now = request.arrival_s
                if not events or (now, _ARRIVAL_RANK, next_arrival) < peek():
                    next_arrival += 1
                    route(request, now)
                    continue
            now, _, _, kind, payload = pop()
            if kind in _CONTROL_KINDS:
                control(kind, payload, now)
            else:
                on_event(kind, payload, now)
        counters["arrivals"] = total

        # Defensive flush: the loop should drain every queue and batch;
        # anything left is a conservation bug surfaced as a counted
        # terminal record rather than a silently lost request.
        for replica in replicas:
            stranded = replica.queue + discipline.abort(replica)
            replica.queue.clear()
            for request in stranded:
                self._terminal(request, replica.free_at, "failed", replica.replica_id)
                counters["stranded_requests"] = counters.get("stranded_requests", 0) + 1
            replica.slow_factor = 1.0

        # The last terminal event, not replica free_at: a crash sets
        # free_at to its recovery time, which may outlive all traffic.
        report.makespan_s = max(
            (r.completion_s for r in report.records), default=0.0
        )
        discipline.finish(report, requests)
        report.replicas = [
            self._replica_stats(r, *discipline.served(r)) for r in replicas
        ]
        if plan is not None:
            # A drained replica still finishes its in-flight work, so it
            # bills until the later of the drain and its last finished work.
            finalize_availability(
                report,
                self._crash_open,
                self._down_windows,
                self._join_s,
                [
                    None if drained is None else max(drained, self.last_end[rid])
                    for rid, drained in enumerate(self._drain_s)
                ],
                counters["retries_scheduled"],
            )
        report.counters = counters
        for name, value in counters.items():
            count(f"cluster.{name}", value)
        # The discipline refers back to the simulator; dropping this edge
        # of the cycle frees the fleet's run state as soon as the caller
        # lets go, not at the next cyclic garbage collection.
        self.discipline = None
        return report

    def _route(self, request: Request, now: float) -> None:
        """Pick a replica for ``request`` and hand it to the discipline.

        Fault-free runs route over the whole fleet. Under faults the
        router sees only healthy replicas (up, not draining, breaker
        closed), and admission control may shed the request instead.
        """
        plan = self.plan
        if plan is None:
            with span("cluster.route"):
                replica = self.router.choose(request, self.replicas, now)
        else:
            up, draining, breaker = self.up, self.draining, self._breaker_until
            healthy = [
                rep
                for i, rep in enumerate(self.replicas)
                if up[i] and not draining[i] and breaker[i] <= now
            ]
            if not healthy:
                self._terminal(request, now, "shed", -1)
                return
            with span("cluster.route"):
                replica = self.router.choose(request, healthy, now)
            cfg = plan.config
            protected = request.slo_class == cfg.shed_protect_class
            if (
                cfg.shed_queue_depth
                and len(replica.queue)
                >= cfg.shed_queue_depth * (2 if protected else 1)
            ) or (
                self.discipline.sheds_on_slack
                and cfg.shed_slack_s > 0
                and not protected
                and replica.free_at - now > cfg.shed_slack_s
            ):
                self._terminal(request, now, "shed", replica.replica_id)
                return
        self.discipline.enqueue(replica, request, now)

    def _terminal(self, request: Request, now: float, outcome: str, rid: int) -> None:
        """Record a ``shed`` or ``failed`` end for ``request`` at ``now``."""
        self.report.records.append(
            make_record(
                request,
                rid,
                now,
                now,
                now,
                0.0,
                outcome,
                self.attempts.get(request.request_id, 0),
            )
        )
        key = "shed_requests" if outcome == "shed" else "failed_requests"
        self.counters[key] = self.counters.get(key, 0) + 1

    def retry_or_fail(self, request: Request, now: float, rid: int) -> None:
        """Schedule a backed-off retry of ``request``, or fail it.

        A request fails once it has used ``max_attempts`` dispatch
        attempts or the run's retry budget is spent.
        """
        retry = self._retry_policy
        done = self.attempts.get(request.request_id, 0)
        if done >= retry.max_attempts or (
            retry.retry_budget > 0
            and self.counters["retries_scheduled"] >= retry.retry_budget
        ):
            self._terminal(request, now, "failed", rid)
            return
        self.counters["retries_scheduled"] += 1
        self.push(now + retry.backoff_s(request.request_id, done), RETRY, request)

    def transient_fails(self, replica: Replica, now: float) -> bool:
        """Draw the transient-failure oracle for one dispatch on ``replica``.

        Advances the replica's dispatch ordinal. A failure counts toward
        opening its circuit breaker; a success resets the streak.
        """
        rid = replica.replica_id
        seq = self._dispatch_seq[rid]
        self._dispatch_seq[rid] = seq + 1
        if not self.plan.transient_fails(rid, seq):
            self._consec_fail[rid] = 0
            return False
        cfg = self.plan.config
        self.counters["transient_failures"] += 1
        self._consec_fail[rid] += 1
        if cfg.breaker_threshold and self._consec_fail[rid] >= cfg.breaker_threshold:
            self._breaker_until[rid] = now + cfg.breaker_cooldown_s
            self._consec_fail[rid] = 0
            self.counters["breaker_trips"] += 1
        return True

    def _control(self, kind: str, payload, now: float) -> None:
        """Apply one fault/control event: retry, health or slowdown."""
        if kind == RETRY:
            self._route(payload, now)
            return
        rid, value = payload
        replica = self.replicas[rid]
        counters = self.counters
        if kind == CRASH:
            if not self.up[rid] or self.draining[rid]:
                return  # stale: replica already down or leaving
            self.up[rid] = False
            self._crash_open[rid] = now
            counters["crashes"] += 1
            self.epoch[rid] += 1
            inflight = self.discipline.abort(replica)
            queued = self._evict(replica, now)
            replica.free_at = value  # the recovery time
            counters["requeued_from_crash"] += len(inflight) + len(queued)
            # In-flight work consumed its dispatch attempt; queued work
            # did not and re-routes immediately through the router.
            for request in inflight:
                self.retry_or_fail(request, now, rid)
            for request in queued:
                self._route(request, now)
        elif kind == RECOVER:
            if self._crash_open[rid] is None:
                return
            self.up[rid] = True
            self._down_windows[rid].append((self._crash_open[rid], now))
            self._crash_open[rid] = None
            counters["recoveries"] += 1
        elif kind == JOIN:
            self.up[rid] = True
            replica.free_at = max(replica.free_at, now)
            counters["joins"] += 1
        elif kind == DRAIN:
            if self.draining[rid]:
                return
            self.draining[rid] = True
            self._drain_s[rid] = now
            counters["drains"] += 1
            queued = self._evict(replica, now)
            counters["requeued_from_drain"] += len(queued)
            for request in queued:
                self._route(request, now)
        elif kind == SLOW_START:
            replica.slow_factor = value
            counters["straggler_windows"] += 1
        else:  # SLOW_END
            replica.slow_factor = 1.0

    @staticmethod
    def _evict(replica: Replica, now: float) -> list[Request]:
        """Empty ``replica``'s queue and return what it held."""
        queued = replica.queue[:]
        replica.queue.clear()
        replica.sample_queue_depth(now, 0)
        return queued

    @staticmethod
    def _record(
        report: ClusterReport,
        replica: Replica,
        group: DispatchedGroup,
        attempts: dict | None = None,
    ) -> None:
        for request in group.requests:
            report.records.append(
                make_record(
                    request,
                    replica.replica_id,
                    group.dispatch_s,
                    group.start_s,
                    group.completion_s,
                    group.start_s + group.prefill_s - request.arrival_s,
                    "completed",
                    1 if attempts is None else attempts[request.request_id],
                )
            )

    @staticmethod
    def _replica_stats(replica: Replica, requests: int, groups: int) -> ReplicaStats:
        return ReplicaStats(
            replica_id=replica.replica_id,
            hardware=replica.hardware_name,
            system=replica.system_name,
            requests=requests,
            groups=groups,
            busy_s=replica.busy_s,
            expert_misses=replica.expert_misses,
            resident_experts=tuple(sorted(replica.resident_experts)),
            queue_depth_timeline=list(replica.queue_depth_timeline),
        )
