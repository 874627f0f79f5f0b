"""Discrete-event core of the cluster simulator.

Every event kind is ordered by the canonical ``(time, kind, seq)`` key.
One binary heap carries all of them except arrivals, which the cluster
loop reads in order from its arrival-sorted stream and merges against
the heap head on the same key (no heap event has the ``ARRIVAL`` rank,
so an arrival never ties with one):

* ``ARRIVAL``   — a request enters the cluster and is routed to a replica;
* ``DEADLINE``  — a queued request's batching wait bound expires, forcing
  dispatch of a partial group (``oldest.arrival_s + max_wait_s``);
* ``COMPLETION`` — a dispatched batch group finishes on its replica;
* fault/control kinds (``CRASH``/``RECOVER``/``JOIN``/``DRAIN``/
  ``SLOW_START``/``SLOW_END``/``RETRY``) — scheduled by a compiled
  :class:`~repro.cluster.faults.FaultPlan` and by the retry policy.

Simultaneous events (equal timestamps) order by kind first — completions
before arrivals before deadlines — then FIFO by sequence number within a
kind. The kind ranking encodes the simulator's instantaneous semantics:
a group finishing at time *t* releases its replica's load before any
request arriving at *t* is routed (so load-aware routers see the freed
capacity), and an arrival at *t* may complete a group before a deadline
at *t* forces a partial dispatch. Before this key existed the tie order
depended on heap insertion history, which made the serial loop's output
incomparable to the batched/sharded engines that schedule the same
events in a different order (see :mod:`repro.cluster.engines`).

Deadline events are scheduled eagerly (one per enqueued request) and
validated lazily when popped: a stale deadline — its request already
dispatched — is a no-op. This keeps the queue O(N log N) without the
bookkeeping of cancellable timers.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, NamedTuple

ARRIVAL = "arrival"
DEADLINE = "deadline"
COMPLETION = "completion"

# Fault-injection event kinds (see :mod:`repro.cluster.faults`). They
# ride the same heap with the same canonical key, so a fault schedule is
# deterministic for a fixed seed exactly like the request schedule.
CRASH = "crash"  # replica fail-stop; in-flight groups abort
RECOVER = "recover"  # crashed replica rejoins the healthy set
JOIN = "join"  # autoscale-up: replica starts serving at this time
DRAIN = "drain"  # autoscale-down: stop admitting, requeue backlog
SLOW_START = "slow-start"  # straggler window opens (service-time multiplier)
SLOW_END = "slow-end"  # straggler window closes
RETRY = "retry"  # a backed-off request re-enters routing

# Iteration-level scheduling (see :mod:`repro.serving.scheduler`): one
# event per decode-step boundary on a replica. Ranked after every other
# kind so that all arrivals/retries stamped at *t* are routed before the
# step boundary at *t* admits from the queue.
DECODE_STEP = "decode-step"

# Canonical same-timestamp ranking (see module docstring). The batched
# scan ranks each group's dispatching event (a filling arrival or a
# deadline) by it and merges groups on the same key, which is what makes
# its reports byte-identical to the serial loop's.
# Fault/control events sit between completions and arrivals: a group
# finishing at *t* still lands first, then the fleet's health changes,
# then backed-off retries re-route, and only then are new arrivals at
# *t* routed — so routers always see the post-fault healthy set.
KIND_PRIORITY = {
    COMPLETION: 0,
    CRASH: 1,
    RECOVER: 2,
    JOIN: 3,
    DRAIN: 4,
    SLOW_START: 5,
    SLOW_END: 6,
    RETRY: 7,
    ARRIVAL: 8,
    DEADLINE: 9,
    DECODE_STEP: 10,
}


class Event(NamedTuple):
    """One scheduled simulator event; ordering key is (time, kind, seq).

    A plain tuple, so the heap compares events in C. ``seq`` is unique
    within a queue, so ``kind`` and ``payload`` are never compared.

    Attributes:
        time: simulation timestamp (seconds).
        priority: kind rank within a timestamp (:data:`KIND_PRIORITY`).
        seq: FIFO tie-breaker within a (timestamp, kind) class.
        kind: event type (ARRIVAL / DEADLINE / COMPLETION / ...).
        payload: event-specific data (request, replica id, ...).
    """

    time: float
    priority: int
    seq: int
    kind: str
    payload: Any = None


class EventQueue:
    """Time-ordered event heap with (kind, FIFO) tie-breaking."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()

    def push(self, time: float, kind: str, payload: Any = None) -> None:
        heapq.heappush(
            self._heap,
            Event(time, KIND_PRIORITY[kind], next(self._counter), kind, payload),
        )

    def pop(self) -> Event:
        return heapq.heappop(self._heap)

    def peek(self) -> Event:
        """The next event :meth:`pop` would return (queue must be non-empty)."""
        return self._heap[0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
