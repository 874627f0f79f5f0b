"""Span recording around the public functions of each simulator layer.

The wrappers live here, outside ``src/``: :class:`Tracer` patches the
listed functions and methods for the duration of a traced pass and
restores the originals afterwards, so the untraced passes run the
program exactly as shipped. Spans are plain lists kept in memory
(``[name, start_ns, end_ns, parent_index, run_id]``) and written out by
the caller when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns

NAME, START, END, PARENT, RUN = range(5)


def _ops_of(args, kwargs) -> int:
    """Op count of the schedule passed to ``Executor.run``."""
    schedule = args[1] if len(args) > 1 else kwargs["schedule"]
    num_ops = getattr(schedule, "num_ops", None)
    return int(num_ops) if num_ops is not None else len(schedule)


# (span name, module, attribute path, per-call count function or None).
# A dotted attribute path names a method; every class in the module's
# hierarchy that defines the method itself gets wrapped, so overriding
# subclasses (the routers, the oracles) are covered too.
TARGETS = (
    ("systems.build", "repro.systems", "InferenceSystem.build", None),
    ("core.prefetcher", "repro.core.prefetcher", "ExpertPrefetcher.predict", None),
    ("core.prefetcher", "repro.core.prefetcher", "ExpertPrefetcher.observe", None),
    ("core.prefetcher", "repro.core.prefetcher", "ExpertPrefetcher.warm_up", None),
    ("core.placement", "repro.core.placement", "plan_placement", None),
    ("routing.step_routing", "repro.routing.oracle", "RoutingOracle.step_routing", None),
    ("runtime.freeze", "repro.runtime.schedule", "Schedule.freeze", None),
    ("runtime.execute", "repro.runtime.executor", "Executor.run", _ops_of),
    ("runtime.metrics", "repro.runtime.metrics", "metrics_from_timeline", None),
    ("passes.run", "repro.passes.pipeline", "PassPipeline.run", None),
    ("api.build_requests", "repro.api.run", "build_requests", None),
    ("api.build_fleet", "repro.api.run", "build_fleet", None),
    ("cluster.simulate", "repro.cluster.simulator", "ClusterSimulator.run", None),
    ("cluster.route", "repro.cluster.routers", "Router.choose", None),
    ("cluster.replica", "repro.cluster.replica", "Replica.enqueue", None),
    ("cluster.replica", "repro.cluster.replica", "Replica.dispatch", None),
    ("cluster.replica", "repro.cluster.replica", "Replica.complete", None),
    ("cluster.report", "repro.cluster.report", "ClusterReport.percentile_latency", None),
    ("cluster.report", "repro.cluster.report", "ClusterReport.percentile_ttft", None),
    ("cluster.report", "repro.cluster.report", "ClusterReport.summary", None),
    ("serving.scheduler_run", "repro.serving.scheduler", "ContinuousScheduler.run", None),
    ("model.synthesize", "repro.model.transformer", "MoETransformer.__init__", None),
    ("model.forward", "repro.model.transformer", "MoETransformer.forward", None),
    ("compression.quantize", "repro.compression.quantization", "quantize", None),
    ("compression.dequantize", "repro.compression.quantization", "dequantize", None),
)


class Tracer:
    """Records spans for :data:`TARGETS` while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], int] = {}
        self.run_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, perf_counter_ns(), 0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(record)
            if counter is not None:
                key = (self.run_id, name)
                counts[key] = counts.get(key, 0) + counter(args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = perf_counter_ns()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap every target; module-level functions are rebound in every
        loaded ``repro`` module that imported them by name."""
        for name, module_name, path, counter in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                base = getattr(module, cls_name)
                for cls in _hierarchy(base):
                    if attr in cls.__dict__:
                        self._patch(cls, attr, self._wrap(name, cls.__dict__[attr], counter))
            else:
                original = getattr(module, path)
                wrapper = self._wrap(name, original, counter)
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("repro") and (
                        loaded.__dict__.get(path) is original
                    ):
                        self._patch(loaded, path, wrapper)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_seconds(self, run_id: str) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: inclusive seconds, self seconds and call count.

        Inclusive time sums only outermost spans of a name (a span nested
        inside a span of the same name, e.g. a ``super()`` call, is not
        counted twice). Self time is a span's duration minus the time its
        child spans cover.
        """
        inclusive: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        children_ns: dict[int, int] = {}
        spans = self.spans
        indices = [i for i, s in enumerate(spans) if s[RUN] == run_id]
        for i in indices:
            s = spans[i]
            if s[PARENT] >= 0:
                children_ns[s[PARENT]] = children_ns.get(s[PARENT], 0) + s[END] - s[START]
        for i in indices:
            name, start, end, parent, _ = spans[i]
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + (end - start - children_ns.get(i, 0)) / 1e9
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][NAME] != name:
                ancestor = spans[ancestor][PARENT]
            if ancestor < 0:
                inclusive[name] = inclusive.get(name, 0.0) + (end - start) / 1e9
        return inclusive, own, calls


def _hierarchy(base: type) -> list[type]:
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen
