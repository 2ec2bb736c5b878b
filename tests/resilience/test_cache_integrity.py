"""Cache integrity: a corrupt or faulted entry is a miss, never a result.

``CacheStore`` checksums every payload and evicts a row whose bytes no
longer match; the parsed-network memo records a task's front-end output
only after the task maps, so a fault mid-run leaves nothing half-made
for the next task to reuse.
"""

import sqlite3

import pytest

from repro.bench_suite import load_circuit
from repro.mapping import map_network
from repro.pipeline import CacheStore
from repro.pipeline.runner import (BatchTask, _NETWORK_MEMO,
                                   clear_network_memo, execute_task)
from repro.resilience import FaultPlan, FaultRule, install, uninstall

CIRCUIT = "mux"
KEYS = ("a", "b", "c")


@pytest.fixture
def store(tmp_path):
    s = CacheStore(str(tmp_path / "entries.sqlite"))
    for key in KEYS:
        s.put(key, key.encode() * 8)
    yield s
    s.close()


def _poison_every_row(store):
    with sqlite3.connect(store.path) as conn:
        conn.execute("UPDATE entries SET payload=payload || x'00'")


def test_direct_poisoning_is_detected_and_evicted(store):
    """Rewrite every payload behind the store's back: each get must
    evict the row and miss, and a clean re-put hits again."""
    _poison_every_row(store)
    assert [store.get(key) for key in KEYS] == [None] * len(KEYS)
    assert store.evictions == len(KEYS)
    assert store.stats()["entries"] == 0
    for key in KEYS:
        assert store.put(key, key.encode() * 8)
    evictions_after = store.evictions
    assert [store.get(key) for key in KEYS] == [k.encode() * 8 for k in KEYS]
    assert store.evictions == evictions_after


def test_fault_point_poisoning_recovers_bit_identically():
    clean = map_network(load_circuit(CIRCUIT), flow="soi").circuit.digest()
    clear_network_memo()
    install(FaultPlan(rules=(FaultRule("resource.exhaust"),)))
    try:
        failed = execute_task(BatchTask(CIRCUIT, flow="soi"))
    finally:
        uninstall()
    try:
        assert failed.error is not None
        # the parse is memoized, the interrupted front end output is not
        assert _NETWORK_MEMO.entries[CIRCUIT].prepared is None
        recovered = execute_task(BatchTask(CIRCUIT, flow="soi"))
        assert recovered.digest == clean
        assert _NETWORK_MEMO.frontend_misses == 2
    finally:
        clear_network_memo()


def test_eviction_is_a_miss_not_a_crash(store):
    hits_before = store.hits
    _poison_every_row(store)
    for key in KEYS:
        assert store.get(key) is None
    # every would-be hit was poisoned away: misses, zero new hits
    assert store.hits == hits_before
    assert store.errors == 0
    assert store.stats()["evictions"] == store.evictions


def test_unpoisoned_entries_keep_hitting(store):
    for _round in range(2):
        for key in KEYS:
            assert store.get(key) == key.encode() * 8
    assert store.hits == 2 * len(KEYS)
    assert store.evictions == 0
