"""Exception types shared across the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """Raised when a model, hardware, or engine configuration is invalid."""


class ConfigValidationError(ConfigError):
    """One aggregated report of every problem found in a config tree.

    ``repro.api`` validates declarative configs breadth-first and raises a
    single instance carrying *all* errors (``errors`` attribute, one
    ``path: message`` string each) instead of failing on the first, so a
    user fixing a config sees the whole damage report at once.
    """

    def __init__(self, what: str, errors: list[str]):
        self.errors = list(errors)
        lines = "\n".join(f"  - {e}" for e in self.errors)
        super().__init__(
            f"invalid {what} ({len(self.errors)} error"
            f"{'s' if len(self.errors) != 1 else ''}):\n{lines}"
        )


class OutOfMemoryError(ReproError):
    """Raised when a memory pool cannot satisfy an allocation request.

    Mirrors a CUDA/host OOM: schedulers are expected to either avoid it by
    planning placements within capacity, or surface it to the caller, as the
    paper reports for Fiddler / MoE-Infinity at large batch sizes.
    """

    def __init__(self, pool: str, requested: int, available: int):
        self.pool = pool
        self.requested = requested
        self.available = available
        super().__init__(
            f"out of memory in pool '{pool}': requested {requested} bytes, "
            f"available {available} bytes"
        )


class PlanningError(ReproError):
    """Raised when the I/O-compute planner cannot find a feasible plan."""


class ScheduleError(ReproError):
    """Raised when a schedule is malformed (unknown deps, bad resources...)."""
