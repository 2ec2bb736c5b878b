"""``MappingEngine.run_dp`` pauses the cyclic collector and restores it.

The pause covers only the per-node DP loop.  Whatever the collector's
state was before a run is its state after it: on success, on failure,
and when several threads run overlapping DPs (the daemon maps batches
on worker threads), where the collector stays off until the last DP
leaves.
"""

import gc
import threading

import pytest

from repro.bench_suite import load_circuit
from repro.errors import ResourceLimitError
from repro.mapping import MapperConfig, MappingEngine, map_network


@pytest.fixture(autouse=True)
def _restore_gc():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def seen_inside(monkeypatch):
    """Records ``gc.isenabled()`` at every DP node."""
    seen = []
    original = MappingEngine._process_node

    def process_node(self, uid):
        seen.append(gc.isenabled())
        original(self, uid)

    monkeypatch.setattr(MappingEngine, "_process_node", process_node)
    return seen


def test_enabled_before_means_enabled_after(seen_inside):
    gc.enable()
    map_network(load_circuit("mux"), flow="soi")
    assert gc.isenabled()
    assert seen_inside and not any(seen_inside)


def test_disabled_by_the_caller_stays_disabled(seen_inside):
    gc.disable()
    map_network(load_circuit("mux"), flow="soi")
    assert not gc.isenabled()
    assert seen_inside and not any(seen_inside)


def test_state_restored_when_run_dp_raises(seen_inside):
    gc.enable()
    with pytest.raises(ResourceLimitError):
        map_network(load_circuit("mux"), flow="soi",
                    config=MapperConfig(max_tuples=50))
    assert gc.isenabled()
    assert seen_inside and not any(seen_inside)


def test_overlapping_threads_leave_gc_enabled(monkeypatch):
    gc.enable()
    both_inside = threading.Barrier(2, timeout=60)
    first_done = threading.Event()
    seen = {}
    original = MappingEngine._process_node

    def process_node(self, uid):
        name = threading.current_thread().name
        if name not in seen:
            seen[name] = None
            both_inside.wait()
            if name == "second":
                # the first DP has finished and left its pause; the
                # collector must stay off for the one still running
                first_done.wait(60)
            seen[name] = gc.isenabled()
        original(self, uid)

    monkeypatch.setattr(MappingEngine, "_process_node", process_node)
    errors = []

    def run():
        try:
            map_network(load_circuit("mux"), flow="soi")
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    first = threading.Thread(target=run, name="first")
    second = threading.Thread(target=run, name="second")
    first.start()
    second.start()
    first.join(60)
    first_done.set()
    second.join(60)
    assert not first.is_alive() and not second.is_alive()
    assert errors == []
    assert seen == {"first": False, "second": False}
    assert gc.isenabled()
