"""Schedule IR: the op DAG that schedulers hand to the executor.

A :class:`Schedule` is an ordered list of ops. Each op runs on one named
resource (``gpu``, ``cpu``, ``h2d``, ``d2h``, ``disk``); ops on the same
resource execute FIFO in issue order, which models CUDA streams: the four
streams of the paper's implementation (§8 — weight prefetch, on-demand
expert transfer, KV-cache load, KV-cache store) map to issue order on the
``h2d``/``d2h`` resources, and ``sync()`` points become dependency edges.

Ops carry optional memory effects (allocations applied at op start, frees at
op end) so the executor can reconstruct pool usage over simulated time.

Two representations exist:

* the **authoring form** — :meth:`Schedule.add` and friends, plus
  :class:`Op` objects materialized on demand (``schedule.ops``,
  ``schedule[i]``, iteration). Internally the schedule accumulates
  structure-of-arrays columns, so building a multi-million-op DAG never
  allocates per-op objects unless somebody asks for them;
* the **compiled form** — :meth:`Schedule.freeze` returns a
  :class:`CompiledSchedule`: integer resource codes, float64 durations,
  CSR-encoded dependencies, and flat alloc/free event arrays with pool
  codes. The executor's fast path runs directly over these arrays.

Because materialized :class:`Op` objects are a *view*, mutating one does
not write back; memory effects attached after emission must go through
:meth:`Schedule.add_allocs` / :meth:`Schedule.add_frees`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.errors import ScheduleError

GPU = "gpu"
CPU = "cpu"
H2D = "h2d"  # weight-prefetch stream
H2D_OD = "h2d2"  # on-demand expert transfer stream (paper §8's 2nd stream)
D2H = "d2h"
DISK_IO = "disk"
RESOURCES = (GPU, CPU, H2D, H2D_OD, D2H, DISK_IO)
_RESOURCE_CODE = {name: code for code, name in enumerate(RESOURCES)}
RESOURCE_CODES = _RESOURCE_CODE  # public name -> code table (extend_raw input)

# Phases used for bubble attribution.
PHASE_ATTENTION = "attention"
PHASE_GATE = "gate"
PHASE_EXPERT = "expert"
PHASE_TRANSFER = "transfer"
PHASE_KV = "kv"
PHASE_OTHER = "other"

# Event kinds in the compiled memory-effect stream. Frees replay before
# allocs at identical times (free-then-alloc steady-state reuse should not
# double count), so the free kind sorts first.
EV_FREE = 0
EV_ALLOC = 1


@dataclass(frozen=True)
class MemEffect:
    """A memory-pool side effect of an op."""

    pool: str
    tensor_id: str
    nbytes: int  # ignored for frees


@dataclass
class Op:
    """One unit of simulated work (a materialized view of a schedule row)."""

    op_id: int
    resource: str
    duration: float
    label: str
    deps: tuple[int, ...] = ()
    layer: int = -1
    phase: str = PHASE_OTHER
    batch: int = -1
    allocs: tuple[MemEffect, ...] = ()
    frees: tuple[MemEffect, ...] = ()

    def __post_init__(self):
        if self.resource not in _RESOURCE_CODE:
            raise ScheduleError(f"unknown resource {self.resource!r}")
        if self.duration < 0:
            raise ScheduleError("op duration must be non-negative")


class CompiledSchedule:
    """Structure-of-arrays snapshot of a :class:`Schedule`.

    The compiled form is what the executor's fast path consumes: every
    per-op attribute is a parallel numpy array, dependencies are CSR
    encoded, and memory effects are a single flat event stream ordered by
    ``(op, kind)`` — the exact order the per-op reference executor
    replays them in.

    Attributes:
        num_ops: number of ops in the snapshot.
        resources: ``[num_ops]`` int16 resource codes (indices into
            :data:`RESOURCES`).
        durations: ``[num_ops]`` float64 op durations in seconds.
        dep_indptr: ``[num_ops + 1]`` int64 CSR row pointers.
        dep_indices: ``[nnz]`` int64 dependency op ids.
        pool_names: pool-code -> pool-name table for the event stream.
        ev_op / ev_kind / ev_pool / ev_delta: ``[num_events]`` event
            arrays in replay order: owning op id, :data:`EV_FREE` /
            :data:`EV_ALLOC`, pool code, and signed byte delta.
    """

    __slots__ = (
        "num_ops",
        "resources",
        "durations",
        "pool_names",
        "ev_op",
        "ev_kind",
        "ev_pool",
        "ev_delta",
        "_dur_list",
        "_res_list",
        "_deps_list",
        "_dep_indptr",
        "_dep_indices",
        "_schedule",
    )

    def __init__(self, schedule: "Schedule"):
        n = len(schedule)
        self.num_ops = n
        # Snapshot the authoring lists (append-only, so shallow copies are
        # enough to decouple from later schedule growth).
        self._res_list = list(schedule._res)
        self._dur_list = list(schedule._dur)
        self._deps_list = list(schedule._deps)
        self._schedule = schedule
        self._dep_indptr = None
        self._dep_indices = None

        self.resources = np.array(self._res_list, dtype=np.int16)
        self.durations = np.array(self._dur_list, dtype=np.float64)

        # Flatten memory effects into replay order: by op, frees before
        # allocs, attachment order within each (op, kind) group. lexsort is
        # stable, so the trailing append index preserves attachment order.
        ev_op = np.array(schedule._ev_op, dtype=np.int64)
        ev_kind = np.array(schedule._ev_kind, dtype=np.int8)
        ev_nbytes = np.array(schedule._ev_nbytes, dtype=np.int64)
        pool_names: list[str] = []
        pool_codes = {name: i for i, name in enumerate(pool_names)}
        codes = np.empty(len(schedule._ev_pool), dtype=np.int16)
        for i, pool in enumerate(schedule._ev_pool):
            code = pool_codes.get(pool)
            if code is None:
                code = len(pool_names)
                pool_codes[pool] = code
                pool_names.append(pool)
            codes[i] = code
        order = np.lexsort((np.arange(len(ev_op)), ev_kind, ev_op))
        self.ev_op = ev_op[order]
        self.ev_kind = ev_kind[order]
        self.ev_pool = codes[order]
        self.ev_delta = np.where(
            self.ev_kind == EV_ALLOC, ev_nbytes[order], -ev_nbytes[order]
        )
        self.pool_names = tuple(pool_names)

    def _build_csr(self) -> None:
        n = self.num_ops
        counts = np.fromiter(
            (len(d) for d in self._deps_list), dtype=np.int64, count=n
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        if indptr[-1]:
            indices = np.fromiter(
                (d for deps in self._deps_list for d in deps),
                dtype=np.int64,
                count=int(indptr[-1]),
            )
        else:
            indices = np.zeros(0, dtype=np.int64)
        self._dep_indptr = indptr
        self._dep_indices = indices

    @property
    def dep_indptr(self) -> np.ndarray:
        """CSR row pointers of the dependency lists (built on demand)."""
        if self._dep_indptr is None:
            self._build_csr()
        return self._dep_indptr

    @property
    def dep_indices(self) -> np.ndarray:
        """CSR column indices (dependency op ids; built on demand)."""
        if self._dep_indices is None:
            self._build_csr()
        return self._dep_indices


class Schedule:
    """An append-only, dependency-checked op list (structure-of-arrays)."""

    def __init__(self):
        # Per-op columns.
        self._res: list[int] = []
        self._dur: list[float] = []
        self._deps: list[tuple[int, ...]] = []
        self._labels: list[str | None] = []  # None: deferred (label plan)
        self._layers: list[int] = []
        self._phases: list[str] = []
        self._batches: list[int] = []
        # Memory-effect event columns (flat; replay order derived on freeze).
        self._ev_op: list[int] = []
        self._ev_kind: list[int] = []
        self._ev_pool: list[str] = []
        self._ev_tensor: list[str] = []
        self._ev_nbytes: list[int] = []
        # Deferred labels for block-emitted rows: (start, count, patterns,
        # layer, step, tags) renders row i as
        # f"{patterns[i % p]}{tags[i] or ''}:L{layer}[b{batch}]s{step}"
        # (the batch segment is omitted for batch-less rows).
        self._label_plans: list[tuple] = []
        # Caches invalidated on every mutation.
        self._ops_cache: list[Op] | None = None
        self._frozen: CompiledSchedule | None = None

    def __len__(self) -> int:
        return len(self._dur)

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def __getitem__(self, idx: int) -> Op:
        return self.ops[idx]

    @property
    def ops(self) -> list[Op]:
        """Materialized :class:`Op` views, one per row (cached).

        The list is rebuilt after any mutation; treat the objects as
        read-only and attach late memory effects through
        :meth:`add_allocs` / :meth:`add_frees`.
        """
        if self._ops_cache is None:
            allocs: dict[int, list[MemEffect]] = {}
            frees: dict[int, list[MemEffect]] = {}
            for op_id, kind, pool, tensor, nbytes in zip(
                self._ev_op, self._ev_kind, self._ev_pool,
                self._ev_tensor, self._ev_nbytes,
            ):
                target = allocs if kind == EV_ALLOC else frees
                target.setdefault(op_id, []).append(MemEffect(pool, tensor, nbytes))
            labels = self._rendered_labels()
            self._ops_cache = [
                Op(
                    op_id=i,
                    resource=RESOURCES[self._res[i]],
                    duration=self._dur[i],
                    label=labels[i],
                    deps=self._deps[i],
                    layer=self._layers[i],
                    phase=self._phases[i],
                    batch=self._batches[i],
                    allocs=tuple(allocs.get(i, ())),
                    frees=tuple(frees.get(i, ())),
                )
                for i in range(len(self._dur))
            ]
        return self._ops_cache

    def _rendered_labels(self) -> list[str]:
        """Labels with deferred block labels rendered in."""
        if not self._label_plans:
            return self._labels
        labels = list(self._labels)
        for start, count, patterns, layer, step, tags in self._label_plans:
            p = len(patterns)
            for i in range(count):
                kind = patterns[i % p] if tags is None else (
                    f"{patterns[i % p]}{tags[i]}"
                )
                b = self._batches[start + i]
                labels[start + i] = (
                    f"{kind}:L{layer}b{b}s{step}"
                    if b >= 0
                    else f"{kind}:L{layer}s{step}"
                )
        return labels

    def _invalidate(self) -> None:
        self._ops_cache = None
        self._frozen = None

    def add(
        self,
        resource: str,
        duration: float,
        label: str,
        *,
        deps: Iterable[int] = (),
        layer: int = -1,
        phase: str = PHASE_OTHER,
        batch: int = -1,
        allocs: Iterable[MemEffect] = (),
        frees: Iterable[MemEffect] = (),
    ) -> int:
        """Append an op and return its id (usable as a dependency)."""
        code = _RESOURCE_CODE.get(resource)
        if code is None:
            raise ScheduleError(f"unknown resource {resource!r}")
        if duration < 0:
            raise ScheduleError("op duration must be non-negative")
        op_id = len(self._dur)
        if deps:
            dep_tuple = tuple(sorted(set(deps)))
            if dep_tuple[0] < 0 or dep_tuple[-1] >= op_id:
                bad = next(d for d in dep_tuple if not 0 <= d < op_id)
                raise ScheduleError(
                    f"op {op_id} ({label}) depends on unknown op {bad}"
                )
        else:
            dep_tuple = ()
        self._res.append(code)
        self._dur.append(duration)
        self._deps.append(dep_tuple)
        self._labels.append(label)
        self._layers.append(layer)
        self._phases.append(phase)
        self._batches.append(batch)
        if allocs:
            self.add_allocs(op_id, allocs)
        if frees:
            self.add_frees(op_id, frees)
        self._invalidate()
        return op_id

    def extend_raw(
        self,
        resources: list[int],
        durations: list[float],
        deps: list[tuple[int, ...]],
        labels: list[str] | None,
        layers: list[int],
        phases: list[str],
        batches: list[int],
        *,
        label_plan: tuple | None = None,
        label_tags: list | None = None,
    ) -> int:
        """Bulk-append pre-validated rows; returns the first new op id.

        The trusted fast path for block emission (the pipeline builder
        emits a whole attention/gate/expert block per call): ``resources``
        are :data:`RESOURCES` codes and every dep tuple must be sorted,
        deduplicated, and reference earlier ops — exactly what
        :meth:`add` would have produced. Only cheap aggregate checks are
        performed here.

        Pass ``labels=None`` with ``label_plan=(patterns, layer, step)``
        (plus optional per-row ``label_tags``) to defer label string
        construction: row ``i`` renders as
        ``f"{patterns[i % p]}{tag}:L{layer}b{batch}s{step}"`` — without
        the batch segment when the row's batch is negative — only when
        the materialized op view is requested.
        """
        base = len(self._dur)
        k = len(durations)
        if durations and min(durations) < 0:
            raise ScheduleError("op duration must be non-negative")
        self._res.extend(resources)
        self._dur.extend(durations)
        self._deps.extend(deps)
        if labels is None:
            patterns, layer, step = label_plan
            self._labels.extend([None] * k)
            self._label_plans.append((base, k, patterns, layer, step, label_tags))
        else:
            self._labels.extend(labels)
        self._layers.extend(layers)
        self._phases.extend(phases)
        self._batches.extend(batches)
        self._invalidate()
        return base

    def append_row(
        self,
        code: int,
        duration: float,
        label: str,
        deps: tuple[int, ...],
        layer: int,
        phase: str,
        batch: int = -1,
    ) -> int:
        """Append one pre-validated row (single-op :meth:`extend_raw`)."""
        if duration < 0:
            raise ScheduleError("op duration must be non-negative")
        op_id = len(self._dur)
        self._res.append(code)
        self._dur.append(duration)
        self._deps.append(deps)
        self._labels.append(label)
        self._layers.append(layer)
        self._phases.append(phase)
        self._batches.append(batch)
        self._ops_cache = None
        self._frozen = None
        return op_id

    def append_effect(
        self, op_id: int, kind: int, pool: str, tensor_id: str, nbytes: int
    ) -> None:
        """Attach one memory effect (:data:`EV_ALLOC` / :data:`EV_FREE`)."""
        self._ev_op.append(op_id)
        self._ev_kind.append(kind)
        self._ev_pool.append(pool)
        self._ev_tensor.append(tensor_id)
        self._ev_nbytes.append(nbytes)
        self._ops_cache = None
        self._frozen = None

    def add_allocs(self, op_id: int, effects: Iterable[MemEffect]) -> None:
        """Attach allocation effects (applied at op start) to ``op_id``."""
        self._add_effects(op_id, effects, EV_ALLOC)

    def add_frees(self, op_id: int, effects: Iterable[MemEffect]) -> None:
        """Attach free effects (applied at op end) to ``op_id``."""
        self._add_effects(op_id, effects, EV_FREE)

    def _add_effects(
        self, op_id: int, effects: Iterable[MemEffect], kind: int
    ) -> None:
        if not 0 <= op_id < len(self._dur):
            raise ScheduleError(f"no op {op_id} to attach memory effects to")
        for effect in effects:
            self._ev_op.append(op_id)
            self._ev_kind.append(kind)
            self._ev_pool.append(effect.pool)
            self._ev_tensor.append(effect.tensor_id)
            self._ev_nbytes.append(effect.nbytes)
        self._invalidate()

    def compute(self, duration: float, label: str, **kw) -> int:
        return self.add(GPU, duration, label, **kw)

    def cpu_compute(self, duration: float, label: str, **kw) -> int:
        return self.add(CPU, duration, label, **kw)

    def transfer_in(self, duration: float, label: str, *, on_demand: bool = False, **kw) -> int:
        kw.setdefault("phase", PHASE_TRANSFER)
        return self.add(H2D_OD if on_demand else H2D, duration, label, **kw)

    def transfer_out(self, duration: float, label: str, **kw) -> int:
        kw.setdefault("phase", PHASE_TRANSFER)
        return self.add(D2H, duration, label, **kw)

    def disk_read(self, duration: float, label: str, **kw) -> int:
        kw.setdefault("phase", PHASE_TRANSFER)
        return self.add(DISK_IO, duration, label, **kw)

    def validate(self) -> None:
        """Re-verify row sanity checked on :meth:`add` but not on the
        trusted bulk paths (:meth:`extend_raw` / :meth:`append_row`):
        every dependency must reference a strictly earlier op and every
        duration must be non-negative.

        Raises:
            ScheduleError: naming the first offending op.
        """
        if self._dur and min(self._dur) < 0:
            bad = next(i for i, d in enumerate(self._dur) if d < 0)
            raise ScheduleError(
                f"op {bad} has negative duration {self._dur[bad]!r}"
            )
        for op_id, deps in enumerate(self._deps):
            # min/max run at C speed; only a failing op pays for the
            # per-dep scan that names the offender.
            if deps and not (0 <= min(deps) and max(deps) < op_id):
                bad = next(d for d in deps if not 0 <= d < op_id)
                kind = "forward or self" if bad >= op_id else "negative"
                raise ScheduleError(
                    f"op {op_id} has {kind} dependency {bad}"
                )

    def freeze(self) -> CompiledSchedule:
        """Compile to the structure-of-arrays form (cached until mutated).

        Runs :meth:`validate` first, so malformed rows — dangling or
        forward deps, negative durations — fail here with a clear error
        instead of corrupting the executor's replay mid-run.
        """
        if self._frozen is None:
            self.validate()
            self._frozen = CompiledSchedule(self)
        return self._frozen
