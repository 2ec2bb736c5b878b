"""WorkerPool: warm reuse across batches, lifecycle, runner integration."""

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import BatchRunner, WorkerPool
from repro.pipeline.runner import (
    clear_network_memo,
    load_network_cached,
    network_memo_stats,
)

SMALL = ["cm150", "mux", "z4ml"]


def _tasks():
    return BatchRunner.sweep_tasks(circuits=SMALL)


class TestWorkerPoolLifecycle:
    def test_lazy_build_and_warm_reuse(self):
        with WorkerPool(max_workers=2) as pool:
            assert not pool.warm
            assert pool.pools_built == 0
            first, _ = pool.run_tasks(_tasks())
            assert pool.warm
            assert pool.pools_built == 1
            second, _ = pool.run_tasks(_tasks())
            # the second batch rode the same executor: no rebuild
            assert pool.pools_built == 1
            assert pool.rebuilds == 0
            assert pool.runs == 2
        assert pool.closed
        assert not pool.warm

    def test_results_cover_all_tasks_and_match_serial(self):
        tasks = _tasks()
        serial = BatchRunner(max_workers=1).run(tasks)
        with WorkerPool(max_workers=2) as pool:
            results, attempts = pool.run_tasks(tasks)
        assert sorted(results) == list(range(len(tasks)))
        assert all(attempts[i] == 1 for i in range(len(tasks)))
        for i, expected in enumerate(serial.results):
            assert results[i].digest == expected.digest
            assert results[i].cost == expected.cost

    def test_run_after_close_raises(self):
        pool = WorkerPool(max_workers=2)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.run_tasks(_tasks())
        pool.close()  # idempotent

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(max_workers=0)
        with pytest.raises(ValueError):
            WorkerPool(retries=-1)
        with pytest.raises(ValueError):
            WorkerPool(backoff_base_s=-0.1)

    def test_on_result_fires_per_task(self):
        tasks = _tasks()
        seen = []
        with WorkerPool(max_workers=2) as pool:
            pool.run_tasks(tasks, on_result=lambda i, r: seen.append(i))
        assert sorted(seen) == list(range(len(tasks)))


class TestRunnerPoolIntegration:
    def test_runner_keeps_pool_warm_across_runs(self):
        tasks = _tasks()
        with BatchRunner(max_workers=2) as runner:
            first = runner.run(tasks)
            pool = runner.pool
            assert pool is not None and pool.pools_built == 1
            second = runner.run(tasks)
            assert runner.pool is pool
            assert pool.pools_built == 1
            assert pool.runs == 2
        assert first.ok and second.ok
        for a, b in zip(first.results, second.results):
            assert a.digest == b.digest
            assert a.cost == b.cost

    def test_warm_runs_match_fresh_runner(self):
        tasks = _tasks()
        fresh = BatchRunner(max_workers=2).run(tasks)
        with BatchRunner(max_workers=2) as runner:
            runner.run(tasks)
            warm = runner.run(tasks)
        for a, b in zip(fresh.results, warm.results):
            assert a.digest == b.digest
            assert a.cost == b.cost

    def test_shared_pool_between_runners_not_closed(self):
        tasks = _tasks()
        with WorkerPool(max_workers=2) as pool:
            with BatchRunner(pool=pool) as one:
                first = one.run(tasks)
            assert not pool.closed  # runner.close leaves shared pools
            with BatchRunner(pool=pool) as two:
                second = two.run(tasks)
            assert pool.pools_built == 1
            assert pool.runs == 2
        assert first.ok and second.ok
        for a, b in zip(first.results, second.results):
            assert a.digest == b.digest

    def test_serial_runner_builds_no_pool(self):
        with BatchRunner(max_workers=1) as runner:
            report = runner.run(_tasks())
            assert report.mode == "serial"
            assert runner.pool is None


class _DiesOnFirstTask:
    """An executor whose worker dies running the first task before the
    second is submitted: the first future fails with
    ``BrokenProcessPool`` and every later ``submit`` raises it, as a
    broken ``ProcessPoolExecutor`` does."""

    def __init__(self):
        self.submits = 0

    def submit(self, fn, *args):
        self.submits += 1
        if self.submits > 1:
            raise BrokenProcessPool("a child process terminated abruptly")
        future = Future()
        future.set_exception(BrokenProcessPool("worker exited"))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestBrokenSubmit:
    def test_submit_into_broken_executor_rebuilds_the_pool(self,
                                                           monkeypatch):
        """A crash that breaks the executor between two submissions must
        take the rebuild path, not degrade every task to serial."""
        tasks = BatchRunner.sweep_tasks(circuits=["mux", "cm150"])
        serial = BatchRunner(max_workers=1).run(tasks)
        build = WorkerPool._build
        stubs = []

        def first_build_dies(self, plan):
            if not stubs:
                stubs.append(_DiesOnFirstTask())
                return stubs[0]
            return build(self, plan)

        monkeypatch.setattr(WorkerPool, "_build", first_build_dies)
        with BatchRunner(max_workers=2, retries=1,
                         backoff_base_s=0.0) as runner:
            report = runner.run(tasks)
        assert stubs[0].submits == 2
        assert report.ok
        kinds = [e["kind"] for e in report.events]
        assert "pool_rebuild" in kinds
        assert "serial_fallback" not in kinds
        assert all(r.mode == "pool" for r in report.results)
        assert ([r.digest for r in report.results]
                == [r.digest for r in serial.results])


class TestNetworkMemo:
    def test_memo_hits_on_repeat_load(self):
        clear_network_memo()
        try:
            first = load_network_cached("mux")
            again = load_network_cached("mux")
            assert again is first
            stats = network_memo_stats()
            assert stats["hits"] == 1
            assert stats["misses"] == 1
            assert stats["entries"] == 1
        finally:
            clear_network_memo()

    def test_memo_keys_files_by_mtime(self, tmp_path):
        blif = tmp_path / "toy.blif"
        blif.write_text(".model toy\n.inputs a b\n.outputs y\n"
                        ".names a b y\n11 1\n.end\n")
        clear_network_memo()
        try:
            first = load_network_cached(str(blif))
            assert load_network_cached(str(blif)) is first
            # rewriting the file invalidates the memo entry
            blif.write_text(".model toy\n.inputs a b\n.outputs y\n"
                            ".names a b y\n1- 1\n-1 1\n.end\n")
            import os

            os.utime(blif, ns=(1, 1))
            assert load_network_cached(str(blif)) is not first
        finally:
            clear_network_memo()
