"""Admission control: overload shedding, the breaker, client retries."""

import pytest

from repro.resilience import install, plan_from_spec
from repro.service import (
    CircuitBreaker,
    MappingService,
    ServiceClient,
    ServiceError,
    start_in_thread,
)
from repro.service.jobs import (
    JobSpecError,
    OverloadError,
    ServiceUnavailableError,
)


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=2, reset_s=60.0)
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.opens == 1
        assert 0.0 < breaker.retry_after_s() <= 60.0

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2, reset_s=60.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.failures == 1

    def test_half_open_admits_exactly_one_probe(self):
        breaker = CircuitBreaker(threshold=1, reset_s=0.0)
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.allow()  # reset window elapsed: probe admitted
        assert breaker.state == "half_open"
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_failed_probe_reopens_the_breaker(self):
        breaker = CircuitBreaker(threshold=3, reset_s=0.0)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and breaker.opens == 2

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            CircuitBreaker(threshold=0)


class TestAdmissionGates:
    def test_watermark_shed_is_a_retryable_overload(self):
        service = MappingService(max_workers=1, queue_wait_watermark_s=5.0)
        try:
            service._job_ewma_s = 100.0
            service.submit({"circuits": ["mux"]})  # queued, no scheduler
            with pytest.raises(OverloadError, match="watermark") as excinfo:
                service.submit({"circuits": ["mux"]})
            assert excinfo.value.retryable
            assert excinfo.value.retry_after_s >= 0.5
        finally:
            service.close()

    def test_watermark_none_disables_backpressure(self):
        service = MappingService(max_workers=1,
                                 queue_wait_watermark_s=None)
        try:
            service._job_ewma_s = 1000.0
            service.submit({"circuits": ["mux"]})
            service.submit({"circuits": ["mux"]})  # admitted regardless
            assert service.estimated_queue_wait_s() == 2000.0
        finally:
            service.close()

    def test_open_breaker_rejects_submits_as_unavailable(self):
        service = MappingService(max_workers=1, breaker_threshold=1,
                                 breaker_reset_s=600.0)
        try:
            service.breaker.record_failure()
            with pytest.raises(ServiceUnavailableError) as excinfo:
                service.submit({"circuits": ["mux"]})
            assert excinfo.value.retry_after_s >= 0.5
            health = service.health()
            assert health["ready"] is False
            assert health["breaker"]["state"] == "open"
            registry = service.metrics_registry()
            assert registry.get("repro_service_breaker_state").value == 1
            assert registry.get("repro_service_breaker_opens").value == 1
        finally:
            service.close()

    @pytest.mark.parametrize("payload", [
        {"circuits": ["mux"], "kernel": []},
        {"circuits": ["mux"], "priority": 2 ** 70},
    ])
    def test_malformed_spec_is_rejected_before_admission(self, tmp_path,
                                                         payload):
        service = MappingService(
            max_workers=1, journal_path=str(tmp_path / "jobs.sqlite"))
        try:
            with pytest.raises(JobSpecError):
                service.submit(payload)
            assert service.jobs == {}
            assert service.journal.non_terminal_count() == 0
        finally:
            service.close()

    def test_estimated_wait_is_queue_depth_times_ewma(self):
        service = MappingService(max_workers=1,
                                 queue_wait_watermark_s=None)
        try:
            service._job_ewma_s = 10.0
            assert service.estimated_queue_wait_s() == 0.0
            service.submit({"circuits": ["mux"]})
            assert service.estimated_queue_wait_s() == 10.0
        finally:
            service.close()


class TestClientRetries:
    def test_shed_submit_is_a_429_with_retry_after(self):
        previous = install(plan_from_spec("seed=0;queue.overload:match=mux"))
        service = MappingService(max_workers=1)
        handle = start_in_thread(service)
        try:
            client = ServiceClient(port=handle.port, retries=0)
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"circuits": ["mux"]})
            assert excinfo.value.status == 429
            assert excinfo.value.retryable
            assert excinfo.value.retry_after is not None
            assert excinfo.value.payload["error"]["type"] == "OverloadError"
        finally:
            handle.stop()
            install(previous)

    def test_client_retries_shed_submit_through_to_done(self):
        # the fault sheds attempt 1 of each submission identity; the
        # client's retry carries the same idempotency key, lands as
        # attempt 2, and must not double-run the job
        previous = install(plan_from_spec("seed=0;queue.overload:match=mux"))
        service = MappingService(max_workers=1)
        handle = start_in_thread(service)
        try:
            client = ServiceClient(port=handle.port, retries=3,
                                   backoff_base_s=0.01, backoff_cap_s=0.05)
            job = client.submit({"circuits": ["mux"]})
            result = client.wait(job["id"])
        finally:
            handle.stop()
            install(previous)
        assert result["state"] == "done"
        assert client.retried >= 1
        assert len(service.jobs) == 1

    def test_backoff_is_deterministic_and_honors_retry_after(self):
        first = ServiceClient(seed=7)
        second = ServiceClient(seed=7)
        other = ServiceClient(seed=8)
        a = first._backoff_s("POST /v1/jobs", 1, None)
        assert a == second._backoff_s("POST /v1/jobs", 1, None)
        assert a != other._backoff_s("POST /v1/jobs", 1, None)
        assert 0.05 <= a < 0.15  # base 0.1 x jitter in [0.5, 1.5)
        # an explicit server hint always wins over the schedule
        assert first._backoff_s("POST /v1/jobs", 1, 2.5) == 2.5
