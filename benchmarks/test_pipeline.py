"""Batch-pipeline benchmarks: process-pool identity and speedup.

Two claims, each on a multi-circuit sweep of the benchmark registry:

* the pool maps the full suite **bit-identically** to serial execution
  (same ``CircuitCost`` and the same sha256 netlist digest per task);
* pool fan-out beats serial wall clock by >= 1.5x — skipped on
  single-core runners, where there is nothing to fan out to.
"""

import os

import pytest

from repro import BatchRunner
from repro.bench_suite import circuit_names

MULTI_CORE = (os.cpu_count() or 1) >= 2

#: Same REPRO_BENCH_FULL contract as conftest.QUICK_SUBSET.
QUICK_SUBSET = ["cm150", "mux", "z4ml", "cordic", "frg1", "b9", "9symml",
                "apex7", "c880"]


def _sweep_circuits():
    if os.environ.get("REPRO_BENCH_FULL", "1") != "0":
        return circuit_names()
    return QUICK_SUBSET


def test_pool_bit_identical_to_serial(benchmark):
    """Every bench_suite circuit maps identically under both modes."""
    tasks = BatchRunner.sweep_tasks(circuits=_sweep_circuits())
    serial = BatchRunner(max_workers=1).run(tasks)
    workers = 2 if MULTI_CORE else 1

    pooled = benchmark.pedantic(
        lambda: BatchRunner(max_workers=workers).run(tasks),
        rounds=1, iterations=1)

    assert serial.ok and pooled.ok
    for s, p in zip(serial.results, pooled.results):
        assert p.cost == s.cost, f"cost mismatch on {s.task.label}"
        assert p.digest == s.digest, f"netlist mismatch on {s.task.label}"
    benchmark.extra_info.update(
        {"tasks": len(tasks), "pool mode": pooled.mode,
         "serial wall s": round(serial.wall_s, 2),
         "pool wall s": round(pooled.wall_s, 2)})


@pytest.mark.skipif(not MULTI_CORE,
                    reason="speedup needs >= 2 cores to fan out")
def test_pool_speedup_over_serial(benchmark):
    """Process-pool fan-out is >= 1.5x faster than serial wall clock."""
    tasks = BatchRunner.sweep_tasks(circuits=_sweep_circuits())
    serial = BatchRunner(max_workers=1).run(tasks)

    pooled = benchmark.pedantic(
        lambda: BatchRunner().run(tasks),
        rounds=1, iterations=1)

    assert pooled.ok and pooled.mode == "pool"
    speedup = serial.wall_s / pooled.wall_s
    benchmark.extra_info.update(
        {"serial wall s": round(serial.wall_s, 2),
         "pool wall s": round(pooled.wall_s, 2),
         "speedup": round(speedup, 2),
         "workers": os.cpu_count()})
    assert speedup >= 1.5, (
        f"pool {pooled.wall_s:.2f}s vs serial {serial.wall_s:.2f}s "
        f"= {speedup:.2f}x, expected >= 1.5x")
