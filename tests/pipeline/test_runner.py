"""BatchRunner: pool-vs-serial identity, retries, graceful degradation."""

import pytest

from repro import (
    BatchRunner,
    BatchTask,
    ClockWeightedCost,
    MapperConfig,
    soi_domino_map,
)
from repro.bench_suite import circuit_names, load_circuit
from repro.pipeline.runner import (clear_network_memo, execute_task,
                                   network_memo_stats)

SMALL = ["cm150", "mux", "z4ml"]


class TestTaskConstruction:
    def test_sweep_tasks_cross_product(self):
        tasks = BatchRunner.sweep_tasks(
            circuits=SMALL, flows=("domino", "soi"),
            cost_models=(None, ClockWeightedCost(2.0)))
        assert len(tasks) == len(SMALL) * 2 * 2
        assert {t.circuit for t in tasks} == set(SMALL)
        assert {t.flow for t in tasks} == {"domino", "soi"}

    def test_sweep_tasks_defaults_to_full_registry(self):
        tasks = BatchRunner.sweep_tasks()
        assert [t.circuit for t in tasks] == circuit_names()
        assert all(t.flow == "soi" for t in tasks)

    def test_label(self):
        task = BatchTask("mux", flow="rs", cost_model=ClockWeightedCost(2.0))
        assert task.label.startswith("mux/rs/")


class TestExecution:
    def test_serial_matches_direct_flow_calls(self):
        tasks = BatchRunner.sweep_tasks(circuits=SMALL)
        report = BatchRunner(max_workers=1).run(tasks)
        assert report.ok
        assert report.mode == "serial"
        for result, name in zip(report.results, SMALL):
            assert result.cost == soi_domino_map(load_circuit(name)).cost
            assert result.mode == "serial"
            assert result.attempts == 1
            assert result.elapsed_s > 0.0

    def test_pool_matches_serial_bit_identically(self):
        tasks = BatchRunner.sweep_tasks(circuits=SMALL,
                                        flows=("domino", "soi"))
        serial = BatchRunner(max_workers=1).run(tasks)
        pooled = BatchRunner(max_workers=2).run(tasks)
        assert pooled.ok and serial.ok
        assert pooled.mode == "pool"
        for s, p in zip(serial.results, pooled.results):
            assert p.task == s.task
            assert p.cost == s.cost
            assert p.digest == s.digest

    def test_run_serial_forces_serial_mode(self):
        runner = BatchRunner(max_workers=4)
        report = runner.run_serial([BatchTask("mux")])
        assert report.mode == "serial"
        assert report.ok

    def test_config_and_cost_model_travel_with_tasks(self):
        config = MapperConfig(w_max=3, h_max=4)
        task = BatchTask("mux", flow="soi",
                         cost_model=ClockWeightedCost(2.0), config=config)
        result = execute_task(task)
        direct = soi_domino_map(load_circuit("mux"),
                                cost_model=ClockWeightedCost(2.0),
                                config=config)
        assert result.cost == direct.cost

    def test_report_totals(self):
        report = BatchRunner(max_workers=1).run(
            BatchRunner.sweep_tasks(circuits=SMALL))
        total = report.total_stats()
        assert total.tuples_created == sum(
            r.stats.tuples_created for r in report.results)
        assert total.gate_formations > 0
        assert report.task_time_s > 0.0
        assert report.wall_s >= 0.0
        assert "3/3 ok" in repr(report)


class TestFailureHandling:
    def test_error_task_reported_not_raised(self):
        report = BatchRunner(max_workers=1).run(
            [BatchTask("mux"), BatchTask("no_such_circuit")])
        assert not report.ok
        assert len(report.failures) == 1
        failed = report.failures[0]
        assert failed.task.circuit == "no_such_circuit"
        assert failed.cost is None and failed.error
        assert report.results[0].ok  # good tasks unaffected

    def test_unknown_flow_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown flow"):
            BatchRunner(max_workers=1).run([BatchTask("mux", flow="cmos")])

    def test_invalid_runner_parameters(self):
        with pytest.raises(ValueError, match="max_workers"):
            BatchRunner(max_workers=0)
        with pytest.raises(ValueError, match="retries"):
            BatchRunner(retries=-1)

    def test_timeout_degrades_to_serial_fallback(self):
        # An impossible deadline forces every pool attempt to time out;
        # after `retries` resubmissions the runner must still complete
        # every task in-process and flag how it ran.
        tasks = [BatchTask("cm150"), BatchTask("mux")]
        runner = BatchRunner(max_workers=2, timeout_s=1e-6, retries=1)
        report = runner.run(tasks)
        assert report.ok
        fallbacks = [r for r in report.results
                     if r.mode == "serial-fallback"]
        assert fallbacks, "expected at least one task to degrade"
        for r in fallbacks:
            assert r.attempts == 2  # initial attempt + 1 retry
        serial = BatchRunner(max_workers=1).run(tasks)
        assert [r.digest for r in report.results] == \
               [r.digest for r in serial.results]


class TestCacheIntegration:
    def test_serial_runner_shares_one_cache(self):
        # a serial run maps in this process: its tasks share the
        # parsed-network memo, so the second mux task reuses the first's
        # parse and front end
        clear_network_memo()
        try:
            report = BatchRunner(max_workers=1).run(
                [BatchTask("mux"), BatchTask("mux", flow="domino")])
            stats = network_memo_stats()
        finally:
            clear_network_memo()
        assert report.ok
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert stats["frontend_misses"] == 1 and stats["frontend_hits"] == 1

    def test_cache_disabled(self):
        # use_cache=False is accepted and ignored: the DP has no cache
        runner = BatchRunner(max_workers=1, use_cache=False)
        report = runner.run([BatchTask("mux")])
        assert report.ok
        stats = report.results[0].stats
        assert stats.cache_hit_rate == 0.0
        assert not any(key.startswith("cache") for key in stats.as_dict())
        assert report.results[0].digest == \
            BatchRunner(max_workers=1).run([BatchTask("mux")]).results[0].digest

    def test_cache_on_off_same_digests(self, tmp_path):
        # bench/workloads.py still passes use_cache and store_path
        tasks = BatchRunner.sweep_tasks(circuits=SMALL)
        store = str(tmp_path / "cones.sqlite")
        with_cache = BatchRunner(max_workers=1, use_cache=True,
                                 store_path=store).run(tasks)
        without = BatchRunner(max_workers=1, use_cache=False).run(tasks)
        assert [r.digest for r in with_cache.results] == \
               [r.digest for r in without.results]
