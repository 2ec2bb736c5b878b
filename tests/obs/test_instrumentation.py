"""Trace correctness across the stack: flows, workers, CLI, public API.

The span tree is only useful if its shape is trustworthy: pass spans
must mirror the flow preset that ran, worker trees must survive the
process pool and land under the right parent, and exports must cover
the run's wall time.
"""

import json
import pickle
import re
from pathlib import Path

import pytest

import repro
from repro.mapping import FLOW_PASSES, FLOW_PRESETS, map_network
from repro.network import network_from_expression
from repro.obs import MetricsRegistry, Tracer, stitch
from repro.pipeline import BatchRunner
from repro.pipeline.runner import clear_network_memo, execute_task


def _net():
    return network_from_expression("(a + b) * (c + d) * e + f * g")


@pytest.mark.parametrize("flow", sorted(FLOW_PRESETS))
def test_span_nesting_matches_flow_pass_order(flow):
    result = map_network(_net(), flow=flow)
    root = result.trace
    assert root is not None
    assert root.name == f"flow:{result.circuit.name}"
    assert root.attributes["flow"] == flow
    pass_spans = [c.name for c in root.children if c.category == "pass"]
    ran = [r.name for r in result.passes if r.ran]
    assert pass_spans == ran
    # every pass that ran appears in preset order (skips drop out)
    preset = list(FLOW_PASSES[flow])
    assert pass_spans == [name for name in preset if name in pass_spans]
    # pass spans nest inside the flow span's interval
    for child in root.children:
        assert root.start_s <= child.start_s <= child.end_s <= root.end_s


@pytest.mark.parametrize("flow", sorted(FLOW_PRESETS))
def test_pass_span_durations_are_the_pass_records(flow):
    result = map_network(_net(), flow=flow)
    spans = {c.name: c for c in result.trace.children}
    for record in result.passes:
        if record.ran:
            assert spans[record.name].duration_s == pytest.approx(
                record.elapsed_s)


def test_node_spans_nest_under_dp_map():
    tracer = Tracer(node_span_threshold_s=0.0)  # record every batch
    result = map_network(_net(), flow="soi", tracer=tracer)
    dp = result.trace.find("dp-map")
    level_spans = [c for c in dp.children if c.category == "level"]
    assert len(level_spans) > 1
    assert (sum(s.attributes["nodes"] for s in level_spans)
            == result.stats.nodes_processed)
    assert (sum(s.attributes["candidates"] for s in level_spans)
            == result.stats.tuples_created)
    for span in level_spans:
        assert re.fullmatch(r"level:\d+", span.name)
    # nowhere else in the tree
    strays = [s for s in result.trace.walk()
              if s.category == "level" and s not in level_spans]
    assert strays == []


def test_node_span_threshold_suppresses_fast_nodes():
    blocked = Tracer(node_span_threshold_s=1e9)
    result = map_network(_net(), flow="soi", tracer=blocked)
    assert all(s.category != "level" for s in result.trace.walk())


def test_engine_histograms_are_sampled_into_the_registry():
    tracer = Tracer(sample_every=1, node_span_threshold_s=0.0)
    metrics = MetricsRegistry()
    result = map_network(_net(), flow="soi", tracer=tracer, metrics=metrics)
    hist = metrics.get("repro_mapping_tuples_per_node")
    assert hist is not None
    # per-node samples, read off each batch's per-node counts
    assert hist.count == result.stats.nodes_processed
    assert hist.sum == result.stats.tuples_created
    # one combine-latency sample per kernel batch
    batches = [s for s in result.trace.walk() if s.category == "level"]
    assert metrics.get("repro_mapping_combine_seconds").count == len(batches)


def test_worker_span_tree_survives_pickling_and_stitches(tmp_path):
    task = BatchRunner.sweep_tasks(["z4ml"], flows=["soi"])[0]
    # a memoized z4ml front end from an earlier test would skip "unate"
    clear_network_memo()
    result = pickle.loads(pickle.dumps(execute_task(task)))
    assert result.trace is not None
    assert result.trace.name == f"task:{task.label}"
    assert result.trace.find("dp-map") is not None
    parent = Tracer()
    with parent.span("batch") as root:
        parent.attach(result.trace)
    assert result.trace in root.children
    assert root.children[0].find("unate") is not None


def test_batch_report_trace_groups_tasks_by_circuit():
    runner = BatchRunner(max_workers=2)
    tasks = BatchRunner.sweep_tasks(["z4ml", "mux"],
                                    flows=["soi", "domino"])
    report = runner.run(tasks)
    tree = report.build_trace()
    assert tree.name == "batch"
    circuits = {c.name: c for c in tree.children}
    assert set(circuits) == {"circuit:z4ml", "circuit:mux"}
    for circuit_span in circuits.values():
        assert len(circuit_span.children) == 2  # one per flow
        for task_span in circuit_span.children:
            assert task_span.category == "task"
            assert task_span.find("dp-map") is not None
    # schematic timeline: children laid end-to-end, no overlap
    cursor = 0.0
    for child in tree.children:
        assert child.start_s == pytest.approx(cursor)
        cursor = child.end_s


def test_stitched_tree_pickles_and_survives_a_second_stitch():
    runner = BatchRunner(max_workers=1)
    report = runner.run_serial(
        BatchRunner.sweep_tasks(["z4ml"], flows=["soi"]))
    tree = pickle.loads(pickle.dumps(report.build_trace()))
    again = stitch("outer", [tree])
    assert again.children == [tree]
    assert again.duration_s == pytest.approx(tree.duration_s)


def test_cli_map_trace_covers_wall_time(tmp_path):
    from repro.cli import main

    out = tmp_path / "trace.json"
    assert main(["map", "cm150", "--trace", str(out)]) == 0
    doc = json.loads(out.read_text())
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    flow = [e for e in events if e["name"].startswith("flow:")][0]
    passes = [e for e in events if e["cat"] == "pass"]
    # acceptance: pass spans cover >= 95% of the flow's wall time,
    # nested pass -> node
    assert sum(p["dur"] for p in passes) >= 0.95 * flow["dur"]
    for p in passes:
        assert flow["ts"] <= p["ts"]
        assert p["ts"] + p["dur"] <= flow["ts"] + flow["dur"] + 1.0


def test_cli_map_json_with_trace_keeps_stdout_parseable(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "trace.jsonl"
    assert main(["map", "z4ml", "--json", "--trace", str(out)]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)  # stdout must stay pure JSON
    assert payload["schema_version"] == repro.obs.REPORT_SCHEMA_VERSION
    assert str(out) in captured.err
    assert out.exists()


def test_cli_metrics_subcommand_prometheus_and_json(capsys):
    from repro.cli import main

    assert main(["metrics", "z4ml"]) == 0
    text = capsys.readouterr().out
    assert "# TYPE repro_mapping_tuples_created_total counter" in text
    assert re.search(r"repro_mapping_tuples_created_total \d+", text)
    assert main(["metrics", "z4ml", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["repro_mapping_tuples_created_total"]["kind"] == "counter"


def test_public_obs_api_reexported_from_repro():
    for name in ("Tracer", "Span", "MetricsRegistry", "flow_report",
                 "batch_report", "prometheus_text", "write_trace"):
        assert name in repro.__all__
        assert getattr(repro, name) is getattr(repro.obs, name)
    assert sorted(repro.obs.__all__) == list(repro.obs.__all__)
    for name in repro.obs.__all__:
        assert hasattr(repro.obs, name)


def test_results_expose_trace_uniformly():
    result = map_network(_net(), flow="soi")
    assert hasattr(result, "trace")
    runner = BatchRunner(max_workers=1)
    report = runner.run_serial(
        BatchRunner.sweep_tasks(["z4ml"], flows=["soi"]))
    assert all(hasattr(r, "trace") for r in report.results)
    assert report.results[0].trace is not None


def test_no_bare_print_outside_cli_and_evaluation():
    """src/repro speaks through obs, not print (mirrors ruff's T201)."""
    import ast

    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if rel.parts[0] in ("cli.py", "evaluation", "__main__.py"):
            continue
        if rel.as_posix() == "service/smoke.py":  # the CI drill is a CLI
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                offenders.append(f"{rel}:{node.lineno}")
    assert offenders == []
