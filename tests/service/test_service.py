"""MappingService over HTTP: parity, warmth, fairness, error contract."""

import json
import time

import pytest

from repro import BatchRunner
from repro.obs import batch_report
from repro.pipeline.runner import clear_network_memo
from repro.service import (
    MappingService,
    ServiceClient,
    ServiceError,
    start_in_thread,
)

SMALL = ["cm150", "mux"]


@pytest.fixture
def served(tmp_path):
    """A live daemon thread + client; tears down pool and loop."""
    service = MappingService(max_workers=2,
                             store_path=str(tmp_path / "cones.sqlite"))
    handle = start_in_thread(service)
    yield ServiceClient(port=handle.port), service
    handle.stop()


def _submit_and_wait(client, payload, timeout=300.0):
    job = client.submit(payload)
    return client.wait(job["id"], timeout=timeout)


class TestParity:
    def test_served_sweep_is_bit_identical_to_batch(self, served):
        client, _service = served
        result = _submit_and_wait(client, {"circuits": SMALL})
        assert result["state"] == "done"
        direct = BatchRunner(max_workers=1).run(
            BatchRunner.sweep_tasks(circuits=SMALL))
        expected = {e["circuit"]: (e["digest"], e["cost"])
                    for e in batch_report(direct)["results"]}
        served_out = {e["circuit"]: (e["digest"], e["cost"])
                      for e in result["result"]["results"]}
        assert served_out == expected

    def test_serial_service_stats_equal_cold_runner(self, tmp_path):
        # max_workers=1: the service maps in-process on a cold cache,
        # so even the cache counters must equal a direct serial run's
        service = MappingService(max_workers=1)
        handle = start_in_thread(service)
        try:
            client = ServiceClient(port=handle.port)
            result = _submit_and_wait(client, {"circuits": SMALL})
        finally:
            handle.stop()
        direct = batch_report(BatchRunner(max_workers=1).run(
            BatchRunner.sweep_tasks(circuits=SMALL)))
        for got, want in zip(result["result"]["results"],
                             direct["results"]):
            assert got["digest"] == want["digest"]
            assert got["cost"] == want["cost"]
            got_stats, want_stats = dict(got["stats"]), dict(want["stats"])
            for timing in ("node_time_s", "max_node_time_s",
                           "combine_time_s"):
                got_stats.pop(timing), want_stats.pop(timing)
            assert got_stats == want_stats


class TestWarmth:
    def test_second_submission_reuses_pool_and_cache(self, served):
        client, service = served
        first = _submit_and_wait(client, {"circuits": SMALL})["result"]
        second = _submit_and_wait(client, {"circuits": SMALL})["result"]
        assert second["cache"]["pool"]["pools_built"] == \
            first["cache"]["pool"]["pools_built"]
        assert second["cache"]["pool"]["runs"] == \
            first["cache"]["pool"]["runs"] + 1
        assert sum(e["stats"]["cache_hits"]
                   for e in second["results"]) > 0
        for a, b in zip(first["results"], second["results"]):
            assert a["digest"] == b["digest"]
        assert service.pool.pools_built == 1

    def test_repeat_job_maps_the_memoized_unate_network(self):
        # max_workers=1 maps in-process, where this test reads the memo
        clear_network_memo()
        service = MappingService(max_workers=1)
        handle = start_in_thread(service)
        try:
            client = ServiceClient(port=handle.port)
            first = _submit_and_wait(client, {"circuits": ["mux"]})
            second = _submit_and_wait(client, {"circuits": ["mux"]})
        finally:
            handle.stop()
            clear_network_memo()
        before = first["result"]["cache"]["network_memo"]
        after = second["result"]["cache"]["network_memo"]
        assert after["frontend_hits"] - before["frontend_hits"] == 1
        assert after["frontend_misses"] == before["frontend_misses"] == 1
        ran = [set(r["result"]["results"][0]["timings"]["passes"])
               for r in (first, second)]
        frontend = {"decompose", "sweep", "unate"}
        assert frontend <= ran[0]
        assert not frontend & ran[1]    # skipped: timings list passes run
        assert (second["result"]["results"][0]["digest"]
                == first["result"]["results"][0]["digest"])

    def test_fresh_memory_tier_hits_persistent_store(self, tmp_path):
        db = str(tmp_path / "cones.sqlite")
        for _round in range(2):
            service = MappingService(max_workers=1, store_path=db)
            handle = start_in_thread(service)
            try:
                client = ServiceClient(port=handle.port)
                result = _submit_and_wait(client, {"circuits": ["mux"]})
            finally:
                handle.stop()
        tree = result["result"]["cache"]["tree_cache"]
        assert tree["store"]["session"]["hits"] > 0
        assert tree["stores"] == 0  # nothing new computed second time


class TestEvents:
    def test_event_stream_replays_and_follows(self, served):
        client, _service = served
        job = client.submit({"circuits": SMALL})
        events = []
        for event in client.events(job["id"]):
            events.append(event)
        kinds = [e["kind"] for e in events]
        assert kinds.count("task_done") == len(SMALL)
        states = [e["state"] for e in events if e["kind"] == "state"]
        assert states[0] == "queued" and states[-1] == "done"
        assert [e["seq"] for e in events] == list(range(len(events)))
        # ?since= resumes mid-stream
        tail = list(client.events(job["id"], since=events[1]["seq"] + 1))
        assert [e["seq"] for e in tail] == [e["seq"] for e in events[2:]]

    def test_task_done_events_carry_digests(self, served):
        client, _service = served
        job = client.submit({"circuits": ["mux"]})
        result = client.wait(job["id"])
        done = [e for e in client.events(job["id"])
                if e["kind"] == "task_done"]
        assert done[0]["ok"] is True
        assert done[0]["digest"] == \
            result["result"]["results"][0]["digest"]


class TestErrorContract:
    def test_invalid_spec_is_typed_400(self, served):
        client, _service = served
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"circuits": ["mux"], "flows": ["bogus"]})
        assert excinfo.value.status == 400
        error = excinfo.value.payload["error"]
        assert error["type"] == "JobSpecError"
        assert error["kind"] == "repro"
        assert error["retryable"] is False
        assert "bogus" in error["message"]

    def test_malformed_json_is_400(self, served):
        client, _service = served
        import http.client

        conn = http.client.HTTPConnection(client.host, client.port,
                                          timeout=30)
        try:
            conn.request("POST", "/v1/jobs", body=b"{nope",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            assert json.loads(response.read())["error"]["type"] == \
                "JobSpecError"
        finally:
            conn.close()

    def test_unknown_job_is_404(self, served):
        client, _service = served
        for probe in (lambda: client.status("nope"),
                      lambda: client.result("nope"),
                      lambda: client.cancel("nope")):
            with pytest.raises(ServiceError) as excinfo:
                probe()
            assert excinfo.value.status == 404

    def test_unroutable_path_is_404(self, served):
        client, _service = served
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v2/nope")
        assert excinfo.value.status == 404

    def test_failed_task_fails_the_job_with_taxonomy(self, served):
        client, _service = served
        result = _submit_and_wait(client, {"circuits": ["no-such-circuit"]})
        assert result["state"] == "failed"
        assert result["error"]["kind"] == "repro"
        assert "no-such-circuit" in result["error"]["message"]


class TestFairnessAndOps:
    def test_two_tenants_both_complete_interleaved(self, served):
        client, service = served
        # occupy the scheduler, then queue alice twice and bob once
        blocker = client.submit({"circuits": SMALL, "tenant": "warmup"})
        a1 = client.submit({"circuits": ["mux"], "tenant": "alice"})
        a2 = client.submit({"circuits": ["mux"], "tenant": "alice"})
        b1 = client.submit({"circuits": ["mux"], "tenant": "bob"})
        for job in (blocker, a1, a2, b1):
            assert client.wait(job["id"])["state"] == "done"
        finished = {job_id: service.jobs[job_id].finished_s
                    for job_id in (a1["id"], a2["id"], b1["id"])}
        # round-robin: bob's only job beats alice's second
        assert finished[b1["id"]] < finished[a2["id"]]

    def test_cancel_queued_job(self, served):
        client, _service = served
        blocker = client.submit({"circuits": SMALL})
        victim = client.submit({"circuits": ["mux"]})
        cancelled = client.cancel(victim["id"])
        assert cancelled["state"] == "cancelled"
        assert client.wait(blocker["id"])["state"] == "done"
        assert client.status(victim["id"])["state"] == "cancelled"

    def test_health_and_metrics_endpoints(self, served):
        client, _service = served
        _submit_and_wait(client, {"circuits": ["mux"]})
        health = client.health()
        assert health["status"] == "ok"
        assert health["warmth"]["pool"]["width"] == 2
        text = client.metrics_text()
        assert "repro_mapping_tuples_created_total" in text
        assert "repro_mapping_cache_evictions_total" in text
        assert "repro_service_jobs_done_total" in text
        assert "repro_service_jobs_queued" in text

    def test_job_listing(self, served):
        client, _service = served
        submitted = client.submit({"circuits": ["mux"]})
        client.wait(submitted["id"])
        listed = {job["id"] for job in client.jobs()}
        assert submitted["id"] in listed
