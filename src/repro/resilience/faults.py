"""Deterministic, seedable fault injection for the mapping stack.

A :class:`FaultPlan` is a set of :class:`FaultRule` activations over the
registry of named **fault points** (:data:`FAULT_POINTS`) — the places
the production code is willing to break itself on purpose: a worker
crash, a task hang, cache poisoning, a parse failure, resource
exhaustion, journal corruption, a daemon crash, queue overload, a
tripped pool breaker.  Each site documents the recovery the
rest of the stack must provide, and ``tests/resilience`` drives every
one of them.

Determinism is the design center: whether a rule fires for a given
``(site, key)`` is a pure function of the plan seed and the key (a
SHA-256 fraction compared against the rule's probability), never of
execution order — so a pool run and a serial run of the same batch
inject the *same* faults, and a chaos run is reproducible from its seed
alone.  Retries are modelled explicitly: a rule fires only while the
current attempt number is within its ``max_attempt`` window (default:
first attempt only), which is what lets a chaos run assert that
recovery — not luck — produced the final result.

Activation is global per process (:func:`install` / :func:`uninstall`)
or via the ``REPRO_FAULTS`` environment variable
(:func:`install_from_env`), which batch workers inherit.  When no plan
is installed every injection site reduces to one ``is None`` check —
zero overhead in production.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError

#: Environment variable holding a fault-plan spec (see :func:`plan_from_spec`).
FAULTS_ENV = "REPRO_FAULTS"

#: Metric-name prefix for all resilience counters.
RESILIENCE_PREFIX = "repro_resilience_"


@dataclass(frozen=True)
class FaultPoint:
    """One named injection site and its documented recovery."""

    name: str
    description: str
    #: the degradation path the stack must take when this fault fires
    recovery: str


#: The fault-point registry: every site the stack can break at on purpose.
FAULT_POINTS: Dict[str, FaultPoint] = {
    point.name: point for point in (
        FaultPoint(
            "worker.crash",
            "the executing worker raises WorkerCrashError at task start "
            "(hard=true exits the process, breaking the pool)",
            "classified retryable: exponential backoff + resubmission; "
            "a broken pool is rebuilt and unfinished tasks resubmitted"),
        FaultPoint(
            "task.hang",
            "the task sleeps sleep_s seconds at start, past any "
            "per-task timeout",
            "pool timeout fires; the hung worker's slot is reclaimed by "
            "rebuilding the pool and the task is resubmitted"),
        FaultPoint(
            "cache.poison",
            "a fetched TreeCache template is mutated without updating "
            "its integrity fingerprint",
            "fetch validation detects the mismatch, evicts the entry, "
            "and reports a miss so the DP recomputes the table"),
        FaultPoint(
            "parse.fail",
            "loading the task's circuit raises ParseError",
            "classified non-retryable: the task fails fast with a "
            "structured error result and is never resubmitted"),
        FaultPoint(
            "resource.exhaust",
            "the mapping engine raises ResourceLimitError mid-DP, as a "
            "configured node/tuple ceiling would",
            "the run stops with a structured MappingError carrying the "
            "partial stats; batch reports it as a per-task failure"),
        FaultPoint(
            "journal.corrupt",
            "the job journal flips a byte of the result blob after its "
            "sha256 checksum is recorded, so the row on disk no longer "
            "matches its manifest entry",
            "journal recovery verifies every result checksum, discards "
            "the corrupt blob, and re-enqueues the job so a restarted "
            "daemon recomputes it to the fault-free digest"),
        FaultPoint(
            "service.crash",
            "the serving daemon exits hard (os._exit) right after the "
            "running job's first task completes — a kill -9 mid-batch",
            "the restarted daemon replays the journal, re-enqueues every "
            "queued/running job, and the rerun (execution attempt 2) "
            "produces digests identical to an uninterrupted run"),
        FaultPoint(
            "queue.overload",
            "admission control treats the queue-wait watermark as "
            "breached for this submission",
            "the submit is shed with a retryable 429 carrying "
            "Retry-After; the client backs off and the retried submit "
            "(same idempotency key) is admitted and runs exactly once"),
        FaultPoint(
            "pool.breaker",
            "job execution fails with WorkerCrashError as if the worker "
            "pool kept dying through its rebuilds",
            "consecutive failures open the circuit breaker (retryable "
            "503 at admission); after the reset window a half-open "
            "probe job runs and, on success, closes the breaker"),
    )
}


@dataclass(frozen=True)
class FaultRule:
    """One activation of a fault point inside a plan.

    Attributes
    ----------
    site:
        A :data:`FAULT_POINTS` name.
    p:
        Firing probability; the decision for a given ``(seed, site,
        key)`` is deterministic (hash fraction < p), so ``p=1.0`` means
        "always for matching keys" and fractional values carve a
        reproducible pseudo-random subset.
    match:
        Substring the site key must contain (empty matches every key).
    max_attempt:
        Fire only while the ambient attempt number is <= this; ``None``
        fires on every attempt.  The default (1) makes retries clean,
        so recovery paths can be asserted to actually recover.
    sleep_s:
        Hang duration for ``task.hang``.
    hard:
        For ``worker.crash``: kill the process with ``os._exit`` (a
        real pool-breaking death) instead of raising.
    """

    site: str
    p: float = 1.0
    match: str = ""
    max_attempt: Optional[int] = 1
    sleep_s: float = 0.25
    hard: bool = False

    def __post_init__(self):
        if self.site not in FAULT_POINTS:
            raise ReproError(
                f"unknown fault point {self.site!r}; registered points: "
                f"{', '.join(FAULT_POINTS)}")
        if not 0.0 <= self.p <= 1.0:
            raise ReproError(f"fault rule {self.site}: p={self.p} "
                             f"outside [0, 1]")
        if self.sleep_s < 0:
            raise ReproError(f"fault rule {self.site}: negative sleep_s")


def hash_fraction(seed: int, site: str, key: str) -> float:
    """Deterministic uniform fraction in [0, 1) for one decision."""
    digest = hashlib.sha256(f"{seed}|{site}|{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def backoff_s(seed: int, site: str, key: str, attempt: int, *,
              base_s: float, cap_s: float) -> float:
    """Exponential backoff before retry ``attempt`` (1-based), capped at
    ``cap_s`` and scaled by a deterministic jitter in [0.5, 1.5)."""
    delay = min(cap_s, base_s * 2.0 ** (attempt - 1))
    return delay * (0.5 + hash_fraction(seed, site, f"{key}#{attempt}"))


@dataclass
class FaultPlan:
    """A seeded set of fault rules, installable per process.

    The plan is picklable (the batch runner ships it to pool workers
    through the pool initializer) and carries small per-process mutable
    state: the ambient ``attempt`` number (set by the task executor so
    retry-windowed rules see retries) and per-site fired counters.
    """

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()
    #: ambient attempt number for the currently executing task
    attempt: int = 1
    #: per-site count of faults fired in this process
    fired: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self.rules = tuple(self.rules)

    def with_rule(self, *rules: FaultRule) -> "FaultPlan":
        return replace(self, rules=(*self.rules, *rules),
                       fired=dict(self.fired))

    def decide(self, site: str, key: str) -> Optional[FaultRule]:
        """The rule that fires for ``(site, key)`` now, or None.

        Pure in ``(seed, site, key)`` up to the attempt window: callers
        may probe repeatedly without consuming randomness.
        """
        for rule in self.rules:
            if rule.site != site:
                continue
            if rule.match and rule.match not in key:
                continue
            if (rule.max_attempt is not None
                    and self.attempt > rule.max_attempt):
                continue
            if rule.p >= 1.0 or hash_fraction(self.seed, site, key) < rule.p:
                return rule
        return None

    def record_fired(self, site: str) -> None:
        self.fired[site] = self.fired.get(site, 0) + 1

    def total_fired(self) -> int:
        return sum(self.fired.values())

    def spec(self) -> str:
        """Round-trippable spec string (see :func:`plan_from_spec`)."""
        parts = [f"seed={self.seed}"]
        for rule in self.rules:
            fields_ = []
            if rule.p != 1.0:
                fields_.append(f"p={rule.p}")
            if rule.match:
                fields_.append(f"match={rule.match}")
            if rule.max_attempt != 1:
                fields_.append("max_attempt=" + (
                    "all" if rule.max_attempt is None
                    else str(rule.max_attempt)))
            if rule.sleep_s != 0.25:
                fields_.append(f"sleep_s={rule.sleep_s}")
            if rule.hard:
                fields_.append("hard=true")
            parts.append(rule.site + (":" + ",".join(fields_)
                                      if fields_ else ""))
        return ";".join(parts)


def plan_from_spec(spec: str) -> FaultPlan:
    """Parse a fault-plan spec string.

    Format: semicolon-separated terms; ``seed=N`` sets the plan seed,
    every other term is ``site`` or ``site:k=v,k=v`` with the
    :class:`FaultRule` fields as keys, e.g.::

        seed=7;worker.crash:match=mux;task.hang:sleep_s=0.5,p=0.25
    """
    seed = 0
    rules: List[FaultRule] = []
    for term in spec.split(";"):
        term = term.strip()
        if not term:
            continue
        if term.startswith("seed="):
            seed = int(term[len("seed="):])
            continue
        site, _, argstr = term.partition(":")
        kwargs: Dict[str, object] = {}
        for pair in filter(None, (p.strip() for p in argstr.split(","))):
            key, sep, value = pair.partition("=")
            if not sep:
                raise ReproError(
                    f"fault spec term {term!r}: expected k=v, got {pair!r}")
            if key == "p":
                kwargs["p"] = float(value)
            elif key == "match":
                kwargs["match"] = value
            elif key == "max_attempt":
                kwargs["max_attempt"] = (None if value == "all"
                                         else int(value))
            elif key == "sleep_s":
                kwargs["sleep_s"] = float(value)
            elif key == "hard":
                kwargs["hard"] = value.lower() in ("1", "true", "yes")
            else:
                raise ReproError(
                    f"fault spec term {term!r}: unknown field {key!r}")
        rules.append(FaultRule(site=site.strip(), **kwargs))
    return FaultPlan(seed=seed, rules=tuple(rules))


# ---------------------------------------------------------------------------
# per-process activation
# ---------------------------------------------------------------------------
_ACTIVE: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Make ``plan`` the process's active plan; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    return previous


def uninstall() -> None:
    """Deactivate fault injection in this process."""
    install(None)


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE


def install_from_env(environ=os.environ) -> Optional[FaultPlan]:
    """Install the plan named by ``REPRO_FAULTS`` (None when unset)."""
    spec = environ.get(FAULTS_ENV, "").strip()
    if not spec:
        return None
    plan = plan_from_spec(spec)
    install(plan)
    return plan


# ---------------------------------------------------------------------------
# injection-site API
# ---------------------------------------------------------------------------
def fire(site: str, key: str, tracer=None,
         metrics=None) -> Optional[FaultRule]:
    """Fire ``site`` for ``key`` if the active plan says so.

    Returns the matched rule (the caller performs the fault's behaviour
    — raise, sleep, corrupt) or None.  A firing is counted on the plan
    and emitted as a zero-duration ``fault`` span plus
    ``repro_resilience_*`` counters when obs handles are supplied, so a
    chaos run's trace shows exactly what broke.
    """
    plan = _ACTIVE
    if plan is None:
        return None
    rule = plan.decide(site, key)
    if rule is None:
        return None
    plan.record_fired(site)
    emit_fault(site, key, tracer=tracer, metrics=metrics)
    return rule


def fire_at_attempt(site: str, key: str, attempt: int, tracer=None,
                    metrics=None) -> Optional[FaultRule]:
    """:func:`fire` under an explicit ambient attempt number.

    Task-level sites rely on the executor setting ``plan.attempt``;
    service-level sites (daemon crash, admission shed, breaker trips)
    are windowed by the *job's* execution attempt or the submission's
    shed count instead.  Swapping the ambient attempt around the
    decision is what makes a restarted daemon with the same
    ``REPRO_FAULTS`` env safe: a journal-recovered job runs at attempt
    2, past the default ``max_attempt=1`` window, so the fault fires
    once and recovery can be asserted to actually recover.
    """
    plan = _ACTIVE
    if plan is None:
        return None
    saved = plan.attempt
    plan.attempt = attempt
    try:
        return fire(site, key, tracer=tracer, metrics=metrics)
    finally:
        plan.attempt = saved


def fault_counter(site: str) -> str:
    return f"{RESILIENCE_PREFIX}fault_{site.replace('.', '_')}_total"


def recovery_counter(kind: str) -> str:
    return f"{RESILIENCE_PREFIX}recovery_{kind}_total"


def emit_fault(site: str, key: str, *, tracer=None, metrics=None) -> None:
    """Record one injected fault on the supplied obs handles."""
    if tracer is not None:
        tracer.event(f"fault:{site}", category="fault", site=site, key=key)
    if metrics is not None:
        metrics.counter(
            f"{RESILIENCE_PREFIX}faults_total",
            help="injected faults fired (all sites)").inc()
        metrics.counter(
            fault_counter(site),
            help=f"injected {site} faults fired").inc()


def emit_recovery(kind: str, detail: str = "", *, tracer=None,
                  metrics=None, **attributes) -> None:
    """Record one recovery action (retry, eviction, fallback, ...)."""
    if tracer is not None:
        tracer.event(f"recovery:{kind}", category="recovery", kind=kind,
                     detail=detail, **attributes)
    if metrics is not None:
        metrics.counter(
            f"{RESILIENCE_PREFIX}recoveries_total",
            help="recovery actions taken (all kinds)").inc()
        metrics.counter(
            recovery_counter(kind),
            help=f"{kind} recovery actions taken").inc()
