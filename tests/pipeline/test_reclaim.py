"""Every mapping task's state is freed by reference counting alone.

A finished task must leave no cyclic garbage behind: the DP runs with
the cyclic collector paused (see ``mapping/engine.py``), and a single
cycle through the engine — a kernel holding its engine, a recursive
closure — would keep the whole run's tables, tuples and views alive
until a full collection.  Each case runs one task with the collector
off and asserts that a collection afterwards finds nothing to free.
"""

import gc

import pytest

from repro import MapperConfig, TreeCache
from repro.mapping.kernel import np
from repro.pipeline.runner import (BatchTask, execute_task,
                                   load_network_cached)

CIRCUIT = "mux"

needs_numpy = pytest.mark.skipif(np is None, reason="numpy not installed")


def _unreachable_after(task, cache=None):
    """(objects a collection frees after ``task`` ran, task error)."""
    load_network_cached(task.circuit)   # parse memo filled outside the window
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = execute_task(task, cache=cache)
        error = result.error
        del result
        return gc.collect(), error
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("flow", ["domino", "rs", "soi"])
@pytest.mark.parametrize("kernel", [
    "reference",
    pytest.param("soa", marks=needs_numpy),
    "auto",
])
@pytest.mark.parametrize("pareto, ordering", [
    (False, "paper"),
    (True, "exhaustive"),
], ids=["single", "pareto-exhaustive"])
def test_task_leaves_no_cycles(flow, kernel, pareto, ordering):
    config = MapperConfig(kernel=kernel, pareto=pareto, ordering=ordering)
    unreachable, error = _unreachable_after(
        BatchTask(CIRCUIT, flow=flow, config=config))
    assert error is None
    assert unreachable == 0


def test_tree_cache_cold_and_warm_runs_leave_no_cycles():
    cache = TreeCache()
    task = BatchTask(CIRCUIT, flow="soi")
    cold, error = _unreachable_after(task, cache=cache)
    assert error is None and cold == 0
    hits = cache.hits
    warm, error = _unreachable_after(task, cache=cache)
    assert error is None and warm == 0
    assert cache.hits > hits            # the warm run was served from cache


def test_resource_limit_failure_leaves_no_cycles():
    task = BatchTask(CIRCUIT, flow="soi", config=MapperConfig(max_tuples=50))
    unreachable, error = _unreachable_after(task)
    assert error is not None and error.startswith("ResourceLimitError")
    assert unreachable == 0
