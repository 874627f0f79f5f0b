"""Cluster dispatch disciplines: group-granular and iteration-level.

Every cluster simulation runs the one event loop of
:meth:`~repro.cluster.simulator.ClusterSimulator.simulate`, which owns
routing, fleet health, faults, retries, shedding and the report. A
:class:`Scheduler` subclass plugs into it and supplies only what
differs between disciplines: how a routed request is dispatched, its own
event kinds, what a crash aborts, and the per-replica work counts.

The default ``group`` discipline (:class:`GroupScheduler`) is
*group-granular*: a batch group is formed, dispatched, and holds its
replica's execution slot until every member finishes — the
straightforward serving shape of the paper's throughput-oriented design.
:class:`ContinuousScheduler` is the iteration-level alternative
popularized by Orca/vLLM: replicas advance in *decode steps*, and at
every step boundary the scheduler

* **admits** queued requests into the running batch (SLO-class priority:
  interactive tenants are admitted first, FIFO within a class),
* **preempts** running requests when the KV-cache budget is exceeded
  (non-protected classes first, latest-admitted first, ties by request
  id; a preempted request re-enters the queue front with its generation
  progress discarded — squash-and-replay), and
* **completes** requests the moment their last token is generated,
  instead of at the end of their group.

The KV budget is sized from the model's cache footprint
(:meth:`~repro.model.config.ModelConfig.kv_bytes`) against the replica's
usable VRAM, with :class:`~repro.model.kvcache.StreamingConfig` sink+window
retention honored when the replica's system enables sparse attention
(a streaming request's footprint saturates at ``sinks + window``).

Event model: one new kind, :data:`~repro.cluster.events.DECODE_STEP`,
rides the existing ``(time, kind-priority, seq)`` heap. It is ranked
*after* every other kind so all arrivals and retries stamped at time *t*
are routed before the boundary at *t* admits. Step results (token
increments, first-token stamps, completions) are committed when the
boundary event pops and its epoch still matches the replica's — a crash
mid-step bumps the epoch, so the step's work is discarded and its
in-flight requests retry, which is what makes preempt-then-crash-then-
retry sequences conserve requests exactly once.

Faults come from the shared loop: crash/recover, join/drain, straggler
windows, transient admission failures with circuit breakers, retries
with seeded backoff, and depth-based load shedding behave as in the
group discipline. Deadline-slack shedding does not apply: with per-step
admission a replica's backlog horizon is one decode step, so the slack
signal the group discipline sheds on does not exist.

Per-request records keep the causality contract of
:func:`repro.validation.check_cluster`: ``dispatch_s == start_s`` is the
admission boundary, ``completion_s`` the final step's end, and ``ttft_s``
the end of the admission step (prefill happens within it). Requests on
one replica legitimately overlap in time, so the checker skips the
replica-serialization invariant for continuous reports and bounds
``busy_s`` by the makespan instead.

Everything is deterministic: same seed, same stream, same report —
bit for bit — which the group-vs-continuous conservation differential
(:func:`repro.validation.run_scheduler_differential`) relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.registry import register_scheduler
from repro.cluster.events import COMPLETION, DEADLINE, DECODE_STEP
from repro.cluster.report import ClusterReport, make_record
from repro.obs import span
from repro.serving.requests import Request

_EPS = 1e-9

# Fraction of usable VRAM the derived KV budget may occupy — the rest
# holds weights and activations. Tests that need to force preemption
# pass an explicit ``kv_budget_tokens`` instead of tuning this.
KV_FRACTION = 0.5

# Default per-class latency targets as multiples of the fleet ``slo_s``:
# interactive tenants are held to half the fleet bound, batch tenants
# get double. Unknown classes fall back to 1x.
SLO_CLASS_TARGETS = {"interactive": 0.5, "standard": 1.0, "batch": 2.0}


@dataclass
class _Active:
    """One request currently in a replica's running batch."""

    request: Request
    admitted_s: float
    first_token_s: float | None = None
    generated: int = 0


def _streaming(replica):
    """The replica system's sink+window retention policy, if enabled."""
    options = getattr(replica.system, "options", None)
    sparse = getattr(options, "sparse_attention", None)
    if sparse is None:
        return None
    return sparse.streaming()


def _footprint(streaming, tokens: int) -> int:
    """KV tokens a request holds after materializing ``tokens`` total."""
    if streaming is None:
        return int(tokens)
    return streaming.retained_tokens(tokens)


class Scheduler:
    """Base class for registry-backed cluster dispatch disciplines.

    A discipline plugs into the one cluster event loop,
    :meth:`~repro.cluster.simulator.ClusterSimulator.simulate`, which
    owns routing, fleet health, faults, retries, shedding and the
    report. It is instantiated per run as ``cls(simulator)`` and
    supplies only what differs between disciplines: the hooks below.

    Attributes:
        counter_names: the discipline's own report counters, in order.
        sheds_on_slack: whether deadline-slack shedding applies (it
            needs a backlog horizon longer than one step).
    """

    name = "base"
    counter_names: tuple[str, ...] = ()
    sheds_on_slack = True

    def __init__(self, sim):
        self.sim = sim

    def run(self, requests: list[Request]) -> ClusterReport:
        """Simulate ``requests`` through the shared loop under this discipline."""
        return self.sim.simulate(requests, self)

    def enqueue(self, replica, request: Request, now: float) -> None:
        """Queue a routed request on ``replica`` and schedule its dispatch."""
        raise NotImplementedError

    def on_event(self, kind: str, payload, now: float) -> None:
        """Handle one of the discipline's own event kinds."""
        raise NotImplementedError

    def abort(self, replica) -> list[Request]:
        """Drop ``replica``'s in-flight work (crash or end-of-run flush).

        Returns the requests that had consumed a dispatch attempt.
        """
        return []

    def served(self, replica) -> tuple[int, int]:
        """``(requests, groups)`` reported in the replica's stats."""
        return sum(len(g.requests) for g in replica.groups), len(replica.groups)

    def finish(self, report: ClusterReport, requests: list[Request]) -> None:
        """Stamp discipline-specific fields on the assembled report."""


@register_scheduler("group")
class GroupScheduler(Scheduler):
    """Group-granular dispatch: a batch group holds its replica to the end.

    A replica dispatches its queue head as one group once the group is
    full, or when the oldest request's batching wait expires (a
    ``DEADLINE`` event, validated lazily). The group finishes at its
    ``COMPLETION`` event. Fault-free runs record a group's requests at
    dispatch; faulted runs record them at completion, since a crash may
    still abort the group. The fast engines of
    :mod:`repro.cluster.engines` reproduce the fault-free discipline bit
    for bit.
    """

    name = "group"
    counter_names = (
        "full_group_dispatches",
        "deadline_dispatches",
        "dispatched_groups",
        "completions",
    )

    def __init__(self, sim):
        super().__init__(sim)
        # Dispatched, not yet completed groups (tracked only under faults).
        self.pending: list[list] = [[] for _ in sim.replicas]

    def enqueue(self, replica, request: Request, now: float) -> None:
        replica.enqueue(request, now)
        if replica.group_ready():
            self._dispatch(replica, now, "full_group_dispatches")
            return
        # Retried requests may re-enqueue long after their batching
        # deadline; clamping to `now` keeps event time monotone (a plain
        # arrival's deadline is always >= its arrival time).
        deadline = request.arrival_s + replica.batching.max_wait_s
        self.sim.push(deadline if deadline >= now else now, DEADLINE, replica)

    def on_event(self, kind: str, payload, now: float) -> None:
        sim = self.sim
        if kind == DEADLINE:
            replica = payload
            if (
                sim.up[replica.replica_id]
                and replica.queue
                and replica.oldest_deadline() <= now + _EPS
            ):
                self._dispatch(replica, now, "deadline_dispatches")
            return
        replica, group, epoch = payload  # COMPLETION
        rid = replica.replica_id
        if epoch != sim.epoch[rid]:
            return  # the group was aborted by a crash
        sim.counters["completions"] += 1
        replica.complete(group)
        sim.last_end[rid] = now
        if sim.plan is not None:
            self.pending[rid].remove(group)
            sim._record(sim.report, replica, group, sim.attempts)

    def _dispatch(self, replica, now: float, trigger: str) -> None:
        sim = self.sim
        rid = replica.replica_id
        if sim.plan is not None:
            members = replica.queue[: replica.batching.group_capacity]
            for request in members:
                sim.attempts[request.request_id] = (
                    sim.attempts.get(request.request_id, 0) + 1
                )
            if sim.transient_fails(replica, now):
                del replica.queue[: len(members)]
                replica.sample_queue_depth(now, len(replica.queue))
                for request in members:
                    sim.retry_or_fail(request, now, rid)
                return
        sim.counters[trigger] += 1
        with span("cluster.dispatch", {"replica": rid}):
            group = replica.dispatch(now)
        sim.push(group.completion_s, COMPLETION, (replica, group, sim.epoch[rid]))
        if sim.plan is None:
            sim._record(sim.report, replica, group)
        else:
            self.pending[rid].append(group)

    def abort(self, replica) -> list[Request]:
        aborted = self.pending[replica.replica_id]
        if not aborted:
            return []
        self.pending[replica.replica_id] = []
        aborted_ids = {id(g) for g in aborted}
        replica.groups = [g for g in replica.groups if id(g) not in aborted_ids]
        for g in aborted:
            replica.busy_s -= g.completion_s - g.start_s
            replica.inflight -= len(g.requests)
            replica.expert_misses -= g.expert_misses
        return [request for g in aborted for request in g.requests]

    def finish(self, report: ClusterReport, requests: list[Request]) -> None:
        counters = self.sim.counters
        counters["dispatched_groups"] = (
            counters["full_group_dispatches"] + counters["deadline_dispatches"]
        )


@register_scheduler("continuous")
class ContinuousScheduler(Scheduler):
    """Iteration-level admission, preemption, and completion.

    Args:
        sim: the :class:`~repro.cluster.simulator.ClusterSimulator`.
        kv_budget_tokens: explicit per-replica KV budget (tokens);
            ``None`` derives it from the replica's usable VRAM and the
            model's per-token KV bytes. Tests use a tiny explicit budget
            to exercise preemption deterministically.

    Step-timing model, calibrated once per replica from the memoized
    group timing of the reference workload shape (so the underlying
    pipeline simulation is probed exactly once):

    * ``decode_ref_s`` — decode time per step at full batch capacity,
      ``(total_s - prefill_s) / gen_ref``; a step over ``B`` running
      requests costs ``decode_ref_s * B / capacity``.
    * ``prefill_tok_s`` — prefill throughput; a boundary that admits
      requests adds their summed prompt tokens at this rate (chunked
      prefill piggybacking on the step), plus the expert-fetch penalty
      for newly admitted hot experts without residency.

    Both scale with the fault layer's straggler ``slow_factor``.
    """

    name = "continuous"
    counter_names = (
        "admitted_requests",
        "decode_steps",
        "preemptions",
        "completions",
    )
    # With per-step admission a replica's backlog horizon is one decode
    # step, so the slack signal the group discipline sheds on is absent.
    sheds_on_slack = False

    def __init__(self, sim, *, kv_budget_tokens: int | None = None):
        super().__init__(sim)
        self.kv_budget_tokens = kv_budget_tokens

    def _kv_budget(self, replica, streaming) -> int:
        if self.kv_budget_tokens is not None:
            return max(1, int(self.kv_budget_tokens))
        scenario = replica.scenario
        per_token = max(1, scenario.model.kv_bytes(1))
        derived = int(scenario.hardware.usable_vram() * KV_FRACTION) // per_token
        # Never derive a budget smaller than one reference request: the
        # scheduler force-admits into an empty batch regardless, but a
        # sub-request budget would preempt every concurrent admission.
        workload = scenario.workload
        floor = _footprint(streaming, workload.prompt_len + workload.gen_len)
        return max(derived, floor, 1)

    def run(self, requests: list[Request]) -> ClusterReport:
        """Calibrate step timing per replica, then run the shared loop.

        Args:
            requests: the request stream (any order; sorted internally).

        Returns:
            The continuous-discipline :class:`ClusterReport`.
        """
        replicas = self.sim.replicas
        n = len(replicas)
        # Per-replica calibration (one group-timing probe each, memoized).
        self.caps = [r.batching.group_capacity for r in replicas]
        self.streamings = [_streaming(r) for r in replicas]
        self.budgets = [
            self._kv_budget(r, s) for r, s in zip(replicas, self.streamings)
        ]
        self.decode_ref = []
        self.prefill_tok_s = []
        self.fetch_s = []
        for replica in replicas:
            workload = replica.scenario.workload
            gen_ref = max(workload.gen_len, 1)
            timing = replica._group_timing(
                replica.batching.group_batches,
                workload.prompt_len,
                workload.gen_len,
            )
            self.decode_ref.append(
                max(timing.total_s - timing.prefill_s, _EPS) / gen_ref
            )
            self.prefill_tok_s.append(
                replica.batching.group_capacity
                * max(workload.prompt_len, 1)
                / max(timing.prefill_s, _EPS)
            )
            self.fetch_s.append(replica.expert_fetch_time_s())
        # Per-replica scheduler state, indexed by replica_id.
        self.running: list[list[_Active]] = [[] for _ in range(n)]
        self.step_pending = [False] * n
        self.steps = [0] * n  # committed decode steps (ReplicaStats.groups)
        self.completed_on = [0] * n
        return super().run(requests)

    def enqueue(self, replica, request: Request, now: float) -> None:
        replica.enqueue(request, now)
        rid = replica.replica_id
        if not self.step_pending[rid]:
            # A kick: a boundary at `now` with no step work (admitted is
            # None), so every same-time arrival is routed before
            # admission runs — DECODE_STEP ranks last at any timestamp.
            self.step_pending[rid] = True
            self.sim.push(now, DECODE_STEP, (rid, self.sim.epoch[rid], 0.0, 0, None))

    def on_event(self, kind: str, payload, now: float) -> None:
        rid, epoch, duration, misses, admitted = payload  # DECODE_STEP
        if epoch != self.sim.epoch[rid]:
            return  # step aborted by a crash
        self.step_pending[rid] = False
        if admitted is not None:
            self._commit_step(rid, now, duration, misses, admitted)
        self._boundary(self.sim.replicas[rid], now)

    def _boundary(self, replica, now: float) -> None:
        """Preempt, admit, and schedule the next decode step."""
        sim = self.sim
        rid = replica.replica_id
        if self.step_pending[rid] or not sim.up[rid]:
            return
        plan = sim.plan
        protect_class = (
            plan.config.shed_protect_class if plan is not None else "interactive"
        )
        attempts = sim.attempts
        state = self.running[rid]
        streaming = self.streamings[rid]
        budget = self.budgets[rid]
        queue_touched = False

        def used_tokens() -> int:
            return sum(
                _footprint(streaming, e.request.prompt_len + e.generated)
                for e in state
            )

        # Deterministic preemption under KV pressure: non-protected
        # classes first, latest-admitted first, ties by request id;
        # never preempt the last running request. Progress is
        # discarded and the victim rejoins the queue *front*.
        while len(state) > 1 and used_tokens() > budget:
            ranked = sorted(
                range(len(state)),
                key=lambda i: (
                    state[i].request.slo_class == protect_class,
                    -i,
                    -state[i].request.request_id,
                ),
            )
            victim = state.pop(ranked[0])
            sim.counters["preemptions"] += 1
            attempts[victim.request.request_id] = (
                attempts.get(victim.request.request_id, 1) - 1
            )
            replica.queue.insert(0, victim.request)
            queue_touched = True

        # Admission: protected class first, FIFO within a class,
        # head-of-line blocking on the KV budget (an empty batch
        # force-admits its head so oversized requests cannot starve).
        admitted: list[_Active] = []
        if not sim.draining[rid] and replica.queue:
            candidates = [
                r for r in replica.queue if r.slo_class == protect_class
            ] + [r for r in replica.queue if r.slo_class != protect_class]
            used = used_tokens()
            cap = self.caps[rid]
            for request in candidates:
                if len(state) >= cap:
                    break
                footprint = _footprint(streaming, request.prompt_len)
                if state and used + footprint > budget:
                    break
                replica.queue.remove(request)
                queue_touched = True
                used += footprint
                entry = _Active(request, now)
                state.append(entry)
                admitted.append(entry)
                attempts[request.request_id] = attempts.get(request.request_id, 0) + 1

        # Transient admission failure: the same per-dispatch oracle and
        # breaker as the group discipline, drawn per admitting boundary.
        if admitted and plan is not None and sim.transient_fails(replica, now):
            for entry in admitted:
                state.remove(entry)
                sim.retry_or_fail(entry.request, now, rid)
            admitted = []

        if queue_touched:
            replica.sample_queue_depth(now, len(replica.queue))
        replica.inflight = len(state)
        if not state:
            return
        sim.counters["admitted_requests"] += len(admitted)
        missing = {
            e.request.hot_expert
            for e in admitted
            if e.request.hot_expert is not None
            and e.request.hot_expert not in replica.resident_experts
        }
        duration = (
            self.decode_ref[rid] * (len(state) / self.caps[rid])
            + sum(e.request.prompt_len for e in admitted) / self.prefill_tok_s[rid]
            + len(missing) * self.fetch_s[rid]
        ) * replica.slow_factor
        self.step_pending[rid] = True
        replica.free_at = now + duration
        sim.push(
            now + duration,
            DECODE_STEP,
            (rid, sim.epoch[rid], duration, len(missing), admitted),
        )

    def _commit_step(self, rid: int, now: float, duration, misses, admitted) -> None:
        sim = self.sim
        replica = sim.replicas[rid]
        state = self.running[rid]
        sim.counters["decode_steps"] += 1
        self.steps[rid] += 1
        replica.busy_s += duration
        replica.expert_misses += misses
        sim.last_end[rid] = now
        for entry in admitted:
            entry.first_token_s = now
        finished = [
            entry
            for entry in state
            if entry.generated + 1 >= max(entry.request.gen_len, 1)
        ]
        for entry in state:
            entry.generated += 1
        for entry in finished:
            state.remove(entry)
            self.completed_on[rid] += 1
            sim.counters["completions"] += 1
            sim.report.records.append(
                make_record(
                    entry.request,
                    rid,
                    entry.admitted_s,
                    entry.admitted_s,
                    now,
                    entry.first_token_s - entry.request.arrival_s,
                    "completed",
                    sim.attempts.get(entry.request.request_id, 1),
                )
            )
        replica.inflight = len(state)

    def abort(self, replica) -> list[Request]:
        rid = replica.replica_id
        self.step_pending[rid] = False
        victims = self.running[rid]
        self.running[rid] = []
        replica.inflight = 0
        return [entry.request for entry in victims]

    def served(self, replica) -> tuple[int, int]:
        rid = replica.replica_id
        return self.completed_on[rid], self.steps[rid]

    def finish(self, report: ClusterReport, requests: list[Request]) -> None:
        report.scheduler = self.name
        report.slo_class_targets = {
            cls: self.sim.config.slo_s * SLO_CLASS_TARGETS.get(cls, 1.0)
            for cls in sorted({r.slo_class for r in requests})
        }
