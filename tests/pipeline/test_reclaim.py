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

from repro import MapperConfig
from repro.mapping.kernel import np
from repro.pipeline.runner import (BatchTask, clear_network_memo,
                                   execute_task, load_network_cached,
                                   network_memo_stats)

CIRCUIT = "mux"

needs_numpy = pytest.mark.skipif(np is None, reason="numpy not installed")


def _unreachable_after(task):
    """(objects a collection frees after ``task`` ran, task error)."""
    load_network_cached(task.circuit)   # parse memo filled outside the window
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = execute_task(task)
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


def test_network_memo_cold_and_warm_runs_leave_no_cycles():
    clear_network_memo()
    try:
        task = BatchTask(CIRCUIT, flow="soi")
        cold, error = _unreachable_after(task)
        assert error is None and cold == 0
        warm, error = _unreachable_after(task)
        assert error is None and warm == 0
        # the warm run mapped the memo's prepared network
        assert network_memo_stats()["frontend_hits"] == 1
    finally:
        clear_network_memo()


def test_resource_limit_failure_leaves_no_cycles():
    task = BatchTask(CIRCUIT, flow="soi", config=MapperConfig(max_tuples=50))
    unreachable, error = _unreachable_after(task)
    assert error is not None and error.startswith("ResourceLimitError")
    assert unreachable == 0


def test_dp_tables_are_freed_before_the_pause_closes(monkeypatch):
    """The dp-map pass drops the DP heap while the collector is still off.

    Every table the run builds must be gone — freed by reference
    counting — by the time the pause re-enables the collector, so the
    young collection that follows walks only what the plan keeps.
    """
    import weakref

    import repro.mapping.engine as engine_module
    from repro.mapping.tuples import TupleTable

    tables = []
    init = TupleTable.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tables.append(weakref.ref(self))

    alive_at_enable = []

    class Gc:
        """``gc`` as the pause sees it, checking the tables on enable."""

        def __getattr__(self, name):
            return getattr(gc, name)

        def enable(self):
            alive_at_enable.append(sum(ref() is not None for ref in tables))
            gc.enable()

    monkeypatch.setattr(TupleTable, "__init__", tracked)
    monkeypatch.setattr(engine_module, "gc", Gc())
    gc.enable()
    result = execute_task(BatchTask(CIRCUIT, flow="soi"))
    assert result.error is None
    assert tables
    assert alive_at_enable == [0]
