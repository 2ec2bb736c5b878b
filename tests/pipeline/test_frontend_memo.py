"""The network memo synthesizes each circuit once per process.

The first task for a circuit runs the synthesis front end inside
``map_network`` and the runner memoizes its ``(unate_network,
unate_report)``; every later task for that circuit — another flow,
config or kernel — maps the memoized network with the front-end passes
skipped.  These tests pin that the shortcut changes no output: runner
digests (serial and pooled, in shuffled order) equal the seed digests,
and mapping every flow from one shared network leaves that network
exactly as the front end pinned it.

The default run covers the small circuits; ``REPRO_EQUIV_FULL=1`` runs
all 28.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest

from repro import BatchRunner, MapperConfig
from repro.bench_suite import circuit_names, load_circuit
from repro.mapping.flows import FRONTEND_PASSES, flow_config, map_network
from repro.pipeline.runner import (
    BatchTask,
    _NETWORK_MEMO,
    clear_network_memo,
    execute_task,
    network_memo_stats,
)
from tests.synth.test_prepared_networks import fingerprint

DATA = Path(__file__).resolve().parents[1] / "data"
FLOWS = ("domino", "rs", "soi")
SMALL_CIRCUITS = ("cm150", "mux", "z4ml", "cordic", "count", "9symml")
CIRCUITS = (tuple(circuit_names()) if os.environ.get("REPRO_EQUIV_FULL")
            else SMALL_CIRCUITS)

try:
    import numpy  # noqa: F401
    KERNELS_UNDER_TEST = ("reference", "soa")
except ImportError:  # pragma: no cover - numpy is installed in CI
    KERNELS_UNDER_TEST = ("reference",)


@pytest.fixture(scope="module")
def seed_digests():
    with open(DATA / "seed_digests.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def prepared_pins():
    with open(DATA / "prepared_networks.json", encoding="utf-8") as fh:
        return json.load(fh)["circuits"]


@pytest.fixture
def cold_memo():
    clear_network_memo()
    yield
    clear_network_memo()


def _seed_key(circuit: str, flow: str) -> str:
    return f"{circuit}/{flow}/{flow_config(flow).ordering}/single"


def _shuffled_tasks():
    tasks = BatchRunner.sweep_tasks(circuits=list(CIRCUITS), flows=FLOWS)
    random.Random(21).shuffle(tasks)
    return tasks


def _assert_seed_digests(report, seed_digests):
    assert report.ok, [r.error for r in report.failures]
    got = {r.task.label: r.digest for r in report.results}
    want = {r.task.label: seed_digests[_seed_key(r.task.circuit,
                                                 r.task.flow)]
            for r in report.results}
    assert got == want


def test_serial_runner_synthesizes_once_per_circuit(cold_memo,
                                                    seed_digests):
    tasks = _shuffled_tasks()
    report = BatchRunner(max_workers=1).run_serial(tasks)
    _assert_seed_digests(report, seed_digests)
    stats = network_memo_stats()
    assert stats["frontend_misses"] == len(CIRCUITS)
    assert stats["frontend_hits"] == len(tasks) - len(CIRCUITS)
    # a warm second round maps every task from the memo
    again = BatchRunner(max_workers=1).run_serial(tasks)
    _assert_seed_digests(again, seed_digests)
    assert network_memo_stats()["frontend_misses"] == len(CIRCUITS)


def test_pool_runner_reproduces_seed_digests(seed_digests):
    tasks = _shuffled_tasks()
    with BatchRunner(max_workers=2) as runner:
        cold = runner.run(tasks)
        warm = runner.run(tasks)
    assert cold.mode == warm.mode == "pool"
    _assert_seed_digests(cold, seed_digests)
    _assert_seed_digests(warm, seed_digests)


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_every_flow_maps_one_unmutated_network(cold_memo, seed_digests,
                                               prepared_pins, circuit):
    """Three flows under both kernels share one memoized unate network,
    and none of them changes it."""
    for kernel in KERNELS_UNDER_TEST:
        for flow in FLOWS:
            result = execute_task(BatchTask(
                circuit, flow=flow, config=MapperConfig(kernel=kernel)))
            assert result.error is None
            assert result.digest == seed_digests[_seed_key(circuit, flow)]
    runs = len(KERNELS_UNDER_TEST) * len(FLOWS)
    stats = network_memo_stats()
    assert (stats["frontend_misses"], stats["frontend_hits"]) == (1, runs - 1)
    unate, report = _NETWORK_MEMO.entry(circuit).prepared
    assert fingerprint(unate, report) == prepared_pins[circuit]


def test_prepared_run_skips_the_front_end():
    network = load_circuit("mux")
    first = map_network(network, flow="soi")
    again = map_network(network, flow="rs",
                        prepared=(first.unate_network, first.unate_report))
    status = {r.name: r.status for r in again.passes}
    assert [status[name] for name in FRONTEND_PASSES] == ["skipped"] * 3
    assert again.unate_network is first.unate_network
    assert again.unate_report is first.unate_report
    assert again.circuit.digest() == map_network(network,
                                                 flow="rs").circuit.digest()
