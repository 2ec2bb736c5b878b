"""JobSpec validation and JobQueue fairness/priority/quota semantics."""

import json

import pytest

from repro.service import Job, JobQueue, JobSpec, JobSpecError
from repro.service.jobs import CANCELLED, QUEUED, QuotaExceededError


def _job(tenant="default", priority=0):
    return Job(spec=JobSpec(circuits=("mux",), tenant=tenant,
                            priority=priority))


class TestJobSpec:
    def test_from_payload_defaults(self):
        spec = JobSpec.from_payload({"circuits": ["mux", "cm150"]})
        assert spec.circuits == ("mux", "cm150")
        assert spec.flows == ("soi",)
        assert spec.cost == "area"
        assert spec.kernel == "auto"
        assert spec.tenant == "default"
        assert spec.priority == 0

    def test_tasks_match_cli_sweep(self):
        from repro import BatchRunner, MapperConfig

        spec = JobSpec.from_payload(
            {"circuits": ["mux", "cm150"], "flows": ["soi", "domino"]})
        expected = BatchRunner.sweep_tasks(
            circuits=["mux", "cm150"], flows=("soi", "domino"),
            cost_models=[None], config=MapperConfig(kernel="auto"))
        assert [t.label for t in spec.tasks()] == \
            [t.label for t in expected]

    @pytest.mark.parametrize("payload,needle", [
        ("not a dict", "JSON object"),
        ({}, "circuits"),
        ({"circuits": []}, "circuits"),
        ({"circuits": ["mux"], "flows": []}, "flows"),
        ({"circuits": ["mux"], "flows": ["nope"]}, "unknown flow"),
        ({"circuits": ["mux"], "cost": "nope"}, "unknown cost"),
        ({"circuits": ["mux"], "kernel": "nope"}, "unknown kernel"),
        ({"circuits": ["mux"], "k": -1}, "'k'"),
        ({"circuits": ["mux"], "k": 0}, "'k'"),
        ({"circuits": ["mux"], "k": float("nan")}, "'k'"),
        ({"circuits": ["mux"], "k": float("inf")}, "'k'"),
        ({"circuits": ["mux"], "k": 10 ** 400}, "'k'"),
        ({"circuits": ["mux"], "tenant": ""}, "tenant"),
        ({"circuits": ["mux"], "priority": "high"}, "priority"),
        ({"circuits": ["mux"], "bogus": 1}, "unknown job field"),
        ({"circuits": ["mux"], "priority": 2 ** 63}, "priority"),
        ({"circuits": ["mux"], "priority": -2 ** 63 - 1}, "priority"),
    ])
    def test_invalid_payloads(self, payload, needle):
        with pytest.raises(JobSpecError, match=needle):
            JobSpec.from_payload(payload)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_k_rejected(self, literal):
        # Python's json module parses these non-standard literals
        payload = json.loads(f'{{"circuits": ["mux"], "k": {literal}}}')
        with pytest.raises(JobSpecError, match="positive finite"):
            JobSpec.from_payload(payload)


class TestJobQueue:
    def test_fifo_within_tenant(self):
        queue = JobQueue()
        jobs = [_job() for _ in range(3)]
        for job in jobs:
            queue.push(job)
        assert [queue.pop() for _ in range(3)] == jobs
        assert queue.pop() is None

    def test_priority_within_tenant(self):
        queue = JobQueue()
        low, high = _job(priority=0), _job(priority=5)
        queue.push(low)
        queue.push(high)
        assert queue.pop() is high
        assert queue.pop() is low

    def test_round_robin_across_tenants(self):
        queue = JobQueue()
        a1, a2, a3 = (_job("alice") for _ in range(3))
        b1, b2 = (_job("bob") for _ in range(2))
        for job in (a1, a2, a3, b1, b2):
            queue.push(job)
        order = [queue.pop() for _ in range(5)]
        # alice cannot starve bob: strict alternation while both wait
        assert order == [a1, b1, a2, b2, a3]

    def test_priority_does_not_cross_tenants(self):
        queue = JobQueue()
        urgent_a = _job("alice", priority=100)
        plain_a = _job("alice", priority=0)
        plain_b = _job("bob", priority=0)
        queue.push(plain_a)
        queue.push(urgent_a)
        queue.push(plain_b)
        # alice's urgency reorders alice's work, not bob's turn
        assert [queue.pop() for _ in range(3)] == \
            [urgent_a, plain_b, plain_a]

    def test_quota_per_tenant(self):
        queue = JobQueue(max_queued_per_tenant=2)
        queue.push(_job("alice"))
        queue.push(_job("alice"))
        with pytest.raises(QuotaExceededError) as excinfo:
            queue.push(_job("alice"))
        assert excinfo.value.retryable
        queue.push(_job("bob"))  # another tenant is unaffected
        assert queue.queued_count("alice") == 2
        assert queue.queued_count() == 3

    def test_quota_frees_as_jobs_pop(self):
        queue = JobQueue(max_queued_per_tenant=1)
        first = _job("alice")
        queue.push(first)
        with pytest.raises(QuotaExceededError):
            queue.push(_job("alice"))
        assert queue.pop() is first
        queue.push(_job("alice"))  # admitted again

    def test_cancelled_jobs_are_skipped(self):
        queue = JobQueue()
        doomed, live = _job(), _job()
        queue.push(doomed)
        queue.push(live)
        doomed.state = CANCELLED
        assert queue.pop() is live
        assert queue.pop() is None
        assert queue.queued_count() == 0

    def test_async_get_wakes_on_push(self):
        import asyncio

        async def scenario():
            queue = JobQueue()
            job = _job()

            async def producer():
                await asyncio.sleep(0.01)
                queue.push(job)

            asyncio.get_running_loop().create_task(producer())
            return await asyncio.wait_for(queue.get(), timeout=5.0)

        assert asyncio.run(scenario()).state == QUEUED
