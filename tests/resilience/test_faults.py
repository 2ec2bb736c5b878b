"""The fault core: registry, rules, plans, determinism, obs emission."""

import pytest

from repro.errors import ReproError
from repro.obs import MetricsRegistry, Tracer
from repro.resilience import (
    FAULT_POINTS,
    FaultPlan,
    FaultRule,
    active_plan,
    fault_counter,
    fire,
    hash_fraction,
    install,
    install_from_env,
    plan_from_spec,
    recovery_counter,
    uninstall,
)

ALL_SITES = ("worker.crash", "task.hang", "parse.fail", "resource.exhaust", "journal.corrupt", "service.crash",
             "queue.overload", "pool.breaker")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
def test_registry_covers_every_documented_site():
    assert tuple(FAULT_POINTS) == ALL_SITES


def test_every_point_documents_its_recovery():
    for point in FAULT_POINTS.values():
        assert point.description
        assert point.recovery


def test_unknown_site_is_rejected():
    with pytest.raises(ReproError, match="unknown fault point"):
        FaultRule("disk.on.fire")


def test_rule_validation():
    with pytest.raises(ReproError, match="outside"):
        FaultRule("task.hang", p=1.5)
    with pytest.raises(ReproError, match="negative sleep_s"):
        FaultRule("task.hang", sleep_s=-1)


# ---------------------------------------------------------------------------
# deterministic decisions
# ---------------------------------------------------------------------------
def test_hash_fraction_is_pure_and_uniformish():
    a = hash_fraction(0, "task.hang", "mux")
    assert a == hash_fraction(0, "task.hang", "mux")
    assert a != hash_fraction(1, "task.hang", "mux")
    assert a != hash_fraction(0, "task.hang", "cm150")
    samples = [hash_fraction(0, "s", str(i)) for i in range(200)]
    assert all(0.0 <= s < 1.0 for s in samples)
    assert 0.3 < sum(samples) / len(samples) < 0.7


def test_decide_is_pure_not_sequence_consuming():
    plan = FaultPlan(seed=3, rules=(FaultRule("parse.fail", p=0.5),))
    first = [plan.decide("parse.fail", f"c{i}") is not None
             for i in range(50)]
    again = [plan.decide("parse.fail", f"c{i}") is not None
             for i in range(50)]
    assert first == again          # probing never consumes randomness
    assert any(first) and not all(first)


def test_match_substring_filters_keys():
    plan = FaultPlan(rules=(FaultRule("parse.fail", match="mux"),))
    assert plan.decide("parse.fail", "mux/soi/area") is not None
    assert plan.decide("parse.fail", "cm150/soi/area") is None


def test_attempt_window_defaults_to_first_attempt_only():
    plan = FaultPlan(rules=(FaultRule("worker.crash"),))
    assert plan.decide("worker.crash", "t") is not None
    plan.attempt = 2
    assert plan.decide("worker.crash", "t") is None


def test_attempt_window_all_fires_on_every_attempt():
    plan = FaultPlan(rules=(FaultRule("worker.crash", max_attempt=None),))
    plan.attempt = 7
    assert plan.decide("worker.crash", "t") is not None


# ---------------------------------------------------------------------------
# spec strings
# ---------------------------------------------------------------------------
def test_spec_round_trip():
    spec = ("seed=7;worker.crash:match=mux,hard=true;"
            "task.hang:p=0.25,sleep_s=0.5,max_attempt=all")
    plan = plan_from_spec(spec)
    assert plan.seed == 7
    crash, hang = plan.rules
    assert crash.site == "worker.crash" and crash.match == "mux"
    assert crash.hard is True
    assert hang.p == 0.25 and hang.sleep_s == 0.5
    assert hang.max_attempt is None
    assert plan_from_spec(plan.spec()).rules == plan.rules


def test_spec_rejects_malformed_terms():
    with pytest.raises(ReproError, match="unknown field"):
        plan_from_spec("task.hang:bogus=1")
    with pytest.raises(ReproError, match="expected k=v"):
        plan_from_spec("task.hang:sleep_s")
    with pytest.raises(ReproError, match="unknown fault point"):
        plan_from_spec("not.a.site")


# ---------------------------------------------------------------------------
# activation and firing
# ---------------------------------------------------------------------------
def test_no_plan_means_no_fire():
    assert active_plan() is None
    assert fire("parse.fail", "anything") is None


def test_install_uninstall_round_trip():
    plan = FaultPlan(rules=(FaultRule("parse.fail"),))
    previous = install(plan)
    try:
        assert active_plan() is plan
        assert fire("parse.fail", "x") is not None
        assert plan.fired == {"parse.fail": 1}
        assert plan.total_fired() == 1
    finally:
        install(previous)
    assert active_plan() is previous


def test_install_from_env(monkeypatch):
    plan = install_from_env({"REPRO_FAULTS": "seed=5;task.hang:sleep_s=1"})
    try:
        assert plan is not None and plan.seed == 5
        assert active_plan() is plan
    finally:
        uninstall()
    assert install_from_env({}) is None


def test_fire_emits_event_span_and_counters():
    plan = FaultPlan(rules=(FaultRule("parse.fail"),))
    install(plan)
    tracer = Tracer()
    metrics = MetricsRegistry()
    try:
        with tracer.span("task:test"):
            assert fire("parse.fail", "mux", tracer, metrics) is not None
    finally:
        uninstall()
    root = tracer.roots[0]
    events = [s for s in root.walk() if s.category == "fault"]
    assert len(events) == 1
    assert events[0].name == "fault:parse.fail"
    assert events[0].attributes["key"] == "mux"
    assert events[0].duration_s == 0.0
    named = metrics.as_dict()
    assert named["repro_resilience_faults_total"]["value"] == 1
    assert named[fault_counter("parse.fail")]["value"] == 1


def test_counter_names_are_prometheus_safe():
    for site in FAULT_POINTS:
        assert "." not in fault_counter(site)
    assert recovery_counter("retry") == "repro_resilience_recovery_retry_total"
