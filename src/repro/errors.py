"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single base class at API boundaries.

Every :class:`ReproError` subclass carries a class-level ``retryable``
flag — the failure taxonomy the batch pipeline's retry policy is driven
by.  *Retryable* errors are infrastructure failures (a crashed or hung
worker) where resubmitting the identical task can plausibly succeed;
everything else is a deterministic property of the task itself (a parse
error, an infeasible mapping, a resource ceiling) and must fail fast —
retrying would only burn the batch's deadline budget reproducing the
same failure.  :func:`is_retryable` extends the classification to
non-repro exceptions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library.

    ``retryable`` is the batch pipeline's failure classification: True
    for infrastructure failures where an identical resubmission can
    succeed, False (the default) for errors deterministic in the task.
    """

    retryable = False


class NetworkError(ReproError):
    """A logic network is malformed (cycles, bad fanin, unknown node ids)."""


class ParseError(ReproError):
    """An input netlist file could not be parsed.

    Attributes
    ----------
    filename:
        Name of the offending file (may be ``"<string>"``).
    lineno:
        1-based line number where the problem was detected, or ``None``.
    """

    def __init__(self, message: str, filename: str = "<string>", lineno=None):
        self.filename = filename
        self.lineno = lineno
        location = filename if lineno is None else f"{filename}:{lineno}"
        super().__init__(f"{location}: {message}")


class UnateConversionError(ReproError):
    """The bubble-pushing pass could not produce a unate network."""


class MappingError(ReproError):
    """Technology mapping failed (e.g. no feasible tuple for a node)."""


class ResourceLimitError(MappingError):
    """A mapping run exceeded a configured resource ceiling.

    Raised by the engine when ``MapperConfig.max_nodes`` /
    ``max_tuples`` is breached (or when the ``resource.exhaust`` fault
    point fires), so pathological inputs degrade into a structured
    error instead of unbounded memory growth.  Carries the partial
    :class:`~repro.pipeline.MappingStats` accumulated up to the breach.
    """

    def __init__(self, message: str, *, stats=None, limit: str = ""):
        super().__init__(message)
        self.stats = stats
        self.limit = limit


class WorkerCrashError(ReproError):
    """A batch worker died mid-task (infrastructure failure: retryable)."""

    retryable = True


class BatchDeadlineError(ReproError):
    """The whole-batch deadline budget expired before the task finished."""


class FlowError(ReproError):
    """A flow pipeline is malformed or a pass breaks its artifact contract."""


class ObsError(ReproError):
    """An observability instrument is misused (metric type/bucket clash)."""


class StructureError(ReproError):
    """A pulldown structure tree is malformed or violates W/H limits."""


class SimulationError(ReproError):
    """A simulator was driven with inconsistent inputs or state."""


class BenchmarkError(ReproError):
    """A benchmark circuit could not be generated or was misconfigured."""


def is_retryable(exc: BaseException) -> bool:
    """Classify an exception for the batch retry policy.

    :class:`ReproError` subclasses answer through their ``retryable``
    attribute.  Outside the hierarchy, only infrastructure-flavoured
    failures (OS-level errors, memory pressure, timeouts) are
    retryable; anything else — pickling failures, type errors, parse
    errors — is deterministic in the task and fails fast.
    """
    if isinstance(exc, ReproError):
        return bool(exc.retryable)
    return isinstance(exc, (OSError, MemoryError, TimeoutError))
