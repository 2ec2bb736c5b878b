"""The unified soidomino-report/3 schema behind map/batch JSON."""

from repro.mapping import map_network
from repro.network import network_from_expression
from repro.obs import (
    REPORT_SCHEMA_VERSION,
    SHARED_REPORT_KEYS,
    MetricsRegistry,
    batch_report,
    flow_report,
)
from repro.pipeline import BatchRunner


def _net():
    return network_from_expression("(a + b) * (c + d) * e")


def _flow_result():
    return map_network(_net(), flow="soi")


def test_flow_report_shared_header_and_aliases():
    result = _flow_result()
    data = flow_report(result, cost_objective="area", digest="abc123")
    for key in SHARED_REPORT_KEYS:
        assert key in data, f"missing shared key {key!r}"
    assert data["schema_version"] == REPORT_SCHEMA_VERSION
    assert data["kind"] == "map"
    assert data["flow"] == "soi"
    # elapsed time lives only under ``timings``; config, cost and the
    # pass records are the report's own payload, not aliases
    assert "elapsed_s" not in data
    assert data["cost"] == result.cost.as_dict()
    assert data["config"]["w_max"] == result.config.w_max
    assert [p["name"] for p in data["passes"]] == [
        r.name for r in result.passes]
    assert data["digest"] == "abc123"
    assert data["cost_objective"] == "area"
    assert data["timings"]["elapsed_s"] == result.elapsed_s
    assert data["trace_summary"]["spans"] == result.trace.span_count()


def test_flow_report_stats_is_the_run_record():
    result = _flow_result()
    data = flow_report(result)
    # the report serializes the run's own stats record
    assert data["stats"] == result.stats.as_dict()
    assert data["stats"]["tuples_kept"] == result.stats.tuples_kept
    assert data["stats"]["bound_skips"] == result.stats.bound_skips


def test_shared_registry_reports_each_run_its_own_stats():
    """Two runs publishing into one registry: each report carries its
    own run's counters, and the registry holds their sum."""
    reg = MetricsRegistry()
    first = map_network(_net(), flow="soi", metrics=reg)
    second = map_network(_net(), flow="soi", metrics=reg)
    assert first.metrics is reg and second.metrics is reg
    for result in (first, second):
        assert flow_report(result)["stats"] == result.stats.as_dict()
    assert first.stats.tuples_created == second.stats.tuples_created > 0
    total = reg.get("repro_mapping_tuples_created_total").value
    assert total == (first.stats.tuples_created
                     + second.stats.tuples_created)


def test_accumulating_stats_publish_each_run_once():
    """A caller-supplied ``stats=`` accumulates across runs by design;
    each run publishes only what it added, so a shared registry and
    each run's private one agree with the run's own counters."""
    from repro.pipeline import MappingStats

    stats = MappingStats()
    shared = MetricsRegistry()
    first = map_network(_net(), flow="soi", stats=stats, metrics=shared)
    once = first.stats.tuples_created
    second = map_network(_net(), flow="soi", stats=stats)
    third = map_network(_net(), flow="soi", stats=stats, metrics=shared)
    assert stats.tuples_created == 3 * once > 0
    created = "repro_mapping_tuples_created_total"
    assert second.metrics.get(created).value == once
    assert shared.get(created).value == 2 * once
    assert third.stats is stats


def test_flow_report_kernel_block_records_routing():
    from repro.mapping import MapperConfig

    result = map_network(_net(), config=MapperConfig(kernel="auto"))
    block = flow_report(result)["kernel"]
    assert block["requested"] == "auto"
    assert block["active"] in ("hybrid", "reference")
    assert set(block) == {"requested", "active", "routed"}
    assert "auto_threshold" not in flow_report(result)["config"]
    assert block["routed"]["soa"] == result.stats.auto_routed_soa
    assert (block["routed"]["reference"]
            == result.stats.auto_routed_reference)
    if block["active"] == "hybrid":  # numpy present: routing was tallied
        routed = block["routed"]["soa"] + block["routed"]["reference"]
        assert 0 < routed <= result.stats.combine_calls


def test_flow_result_as_dict_is_the_unified_report():
    result = _flow_result()
    assert result.as_dict()["schema_version"] == REPORT_SCHEMA_VERSION


def test_batch_report_shared_header_and_entries():
    runner = BatchRunner(max_workers=1)
    tasks = BatchRunner.sweep_tasks(["z4ml"], flows=["soi", "domino"])
    report = runner.run_serial(tasks)
    data = batch_report(report, cost_objective="area")
    for key in SHARED_REPORT_KEYS:
        assert key in data
    assert data["kind"] == "batch"
    assert data["circuit"] == ["z4ml"]
    assert data["flow"] == ["soi", "domino"]
    assert data["ok"] is True
    assert len(data["results"]) == 2
    entry = data["results"][0]
    assert entry["circuit"] == "z4ml"
    assert entry["stats"]["tuples_created"] > 0
    assert entry["timings"]["elapsed_s"] > 0
    # each entry carries its task's record; the aggregate is their merge
    for entry, r in zip(data["results"], report.results):
        assert entry["stats"] == r.stats.as_dict()
    assert data["stats"] == report.total_stats().as_dict()


def test_batch_report_failed_task_has_no_stats():
    runner = BatchRunner(max_workers=1)
    report = runner.run_serial(
        BatchRunner.sweep_tasks(["z4ml", "no-such-circuit"], flows=["soi"]))
    ok, failed = batch_report(report)["results"]
    assert ok["ok"] and ok["stats"]["tuples_created"] > 0
    # a task that never mapped has no counters, not zero counters
    assert not failed["ok"] and failed["stats"] is None


def test_both_kinds_share_the_header_keys():
    flow_keys = set(flow_report(_flow_result()))
    runner = BatchRunner(max_workers=1)
    report = runner.run_serial(
        BatchRunner.sweep_tasks(["z4ml"], flows=["soi"]))
    batch_keys = set(batch_report(report))
    shared = set(SHARED_REPORT_KEYS)
    assert shared <= flow_keys
    assert shared <= batch_keys
