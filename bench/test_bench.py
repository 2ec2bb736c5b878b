"""The benchmark's own tests: every workload at toy size, through the
real functions.  Run with ``python -m pytest bench -q``."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench import harness
from bench.compare import verdict
from bench.staged import load_input, staged_task
from bench.workloads import (WORKLOADS, Run, Sizes, pareto_inputs,
                             registry_tasks, seeded_variant)
from repro import map_network, network_from_expression
from repro.bench_suite import random_network
from repro.io import save_blif
from repro.obs import Tracer

TOY = Sizes(registry_circuits=("mux", "z4ml"),
            pareto_circuits=("mux",),
            pareto_limits=(5, 8),
            random_bases=(0,),
            random_shape=(("n_pi", 6), ("n_gates", 16), ("n_po", 2),
                          ("locality", 6), ("depth_target", 6)),
            service_circuits=("mux", "z4ml"),
            service_repeats=2)

SPEC = harness.load_spec()


def toy_run(directory: Path, workload: str, trace: bool = False,
            seed: int = 0) -> Run:
    workdir = directory / "work"
    workdir.mkdir(parents=True)
    with harness.HostSpeed() as host:
        run = Run(workload=workload, seed=seed, seconds=0.0, trace=trace,
                  workdir=workdir, trace_dir=directory / "traces",
                  setup=harness.SetupClock(time.perf_counter()), sizes=TOY,
                  host=host)
        WORKLOADS[workload](run)
    return run


def test_spec_names_the_implemented_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_emits_the_spec_metrics(tmp_path, workload, trace):
    run = toy_run(tmp_path, workload, trace)
    assert run.attempted > 0
    assert (run.wrong, run.failed) == (0, 0), run.notes
    if trace:
        # a misspelt name would silently report 0 for the spec's metric
        assert set(run.metrics) <= {m["name"] for m in SPEC["per_layer"]}
        assert run.metrics["tiling_ratio"] >= 0.95
        assert Path(run.info["trace_file"]).exists()
    else:
        assert set(run.metrics) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(value > 0 for value in run.metrics.values())


@pytest.mark.parametrize("flow", ["domino", "rs", "soi"])
@pytest.mark.parametrize("source", ["cm150", "z4ml", "mappable"])
def test_staged_path_matches_map_network(tmp_path, flow, source):
    if source == "mappable":
        path = tmp_path / "mappable.blif"
        save_blif(network_from_expression("(a + b) * c + d * (e + f)",
                                          name="mappable"), str(path))
        source = str(path)
        assert load_input(source).is_mappable()
    expected = map_network(load_input(source), flow=flow).circuit.digest()
    assert staged_task(Tracer(), source, flow).digest == expected


def test_seed_changes_pareto_inputs_but_not_registry_digests(tmp_path):
    texts = []
    for seed in (0, 1):
        run = Run(workload="pareto-stress", seed=seed, seconds=0.0,
                  trace=False, workdir=tmp_path / f"inputs{seed}",
                  trace_dir=tmp_path, setup=harness.SetupClock(0.0),
                  host=harness.HostSpeed(), sizes=TOY)
        run.workdir.mkdir()
        texts.append(sorted(Path(task.source).read_text()
                            for task in pareto_inputs(run)
                            if task.source.endswith(".blif")))
        registry = toy_run(tmp_path / f"registry{seed}", "registry-serial",
                           seed=seed)
        # wrong == 0: every digest equals the pinned seed digest
        assert (registry.wrong, registry.attempted) == (0, 6)
    assert texts[0] != texts[1]
    orders = [[t.label for t in registry_tasks(Run(
        workload="registry-serial", seed=seed, seconds=0.0, trace=False,
        workdir=tmp_path, trace_dir=tmp_path, setup=harness.SetupClock(0.0),
        host=harness.HostSpeed(), sizes=TOY))] for seed in (0, 1)]
    assert orders[0] != orders[1] and sorted(orders[0]) == sorted(orders[1])


def test_seeded_variants_cost_what_the_original_costs():
    network = random_network("base", n_pi=8, n_gates=30, n_po=2, seed=3,
                             locality=6, depth_target=8)
    expected = map_network(network, flow="soi").cost
    for seed in range(3):
        variant = seeded_variant(network, random.Random(seed), f"v{seed}")
        assert map_network(variant, flow="soi").cost == expected


def test_host_speed_probe_is_stopped_with_its_context():
    with harness.HostSpeed() as host:
        host.sample(3)
        probe = host._probe
    assert probe.poll() is not None  # exited and waited for
    assert len(host.samples) == 3 and host.factor() > 0


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="needs /proc")
def test_peak_rss_counts_processes_it_never_waits_for():
    # like a pool worker under the forkserver: alive while read, and
    # never reaped by this process before the reading
    size_mb = int(harness.peak_rss_mb()) + 64
    child = subprocess.Popen(
        [sys.executable, "-c", f"import time; block = b'x' * ({size_mb} << 20)"
         "; print(flush=True); time.sleep(60)"], stdout=subprocess.PIPE)
    try:
        child.stdout.readline()
        harness.note_peaks(os.getpid())
        assert harness.peak_rss_mb() >= size_mb
    finally:
        child.kill()
        child.wait()
        child.stdout.close()


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0]
    assert verdict(steady, [10.5, 10.6, 10.4, 10.5], "higher", 0.1)[0] \
        == "better"
    assert verdict(steady, [10.1, 9.9, 10.0, 10.05], "higher", 0.1)[0] \
        == "within bound"
    assert verdict(steady, [8.0, 8.1, 7.9, 8.0], "higher", 0.1)[0] \
        == "worse"
    assert verdict([5.0, 9.0, 13.0, 7.0], steady, "lower", 0.1)[0] \
        == "unresolved"
    assert verdict([100, 100], [101, 101], "lower", 0)[0] == "worse"
