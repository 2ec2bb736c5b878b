"""End-to-end service drill: ``python -m repro.service.smoke``.

The CI job for the daemon.  Against real subprocesses (no in-process
shortcuts), it asserts the four promises of mapping-as-a-service:

1. **Parity** — a sweep submitted over HTTP produces bit-identical
   digests and equal costs to ``soidomino batch --json`` run directly;
2. **Warmth** — a second identical submission rides the same worker
   pool (no executor rebuild): the job result's ``cache`` block shows
   ``pools_built`` unchanged;
3. **Restart** — after a full daemon restart, the new process maps
   the same sweep to the same digests;
4. **Durability** — a daemon killed with ``SIGKILL`` mid-job is
   restarted against the same ``--journal`` database and the recovered
   job completes with digests bit-identical to the CLI baseline, its
   event-stream cursor intact (DESIGN.md §14).

Finally it scrapes ``/metrics`` for the live ``repro_mapping_*`` /
``repro_service_*`` families.  Exit code 0 on success, 1 with a FAIL
line per broken assertion.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

from .client import ServiceClient

DEFAULT_CIRCUITS = ("cm150", "mux", "z4ml")


def free_port() -> int:
    """An unused localhost TCP port for a daemon to bind."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _python() -> List[str]:
    return [sys.executable, "-m", "repro"]


def start_daemon(port: int, serve_args: Sequence[str],
                 env: Optional[Dict[str, str]] = None) -> subprocess.Popen:
    """``soidomino serve --port PORT *serve_args`` as a real subprocess.

    Returns once ``/health`` answers ok (30 s at most).  ``env`` entries
    override the inherited environment; this package's source tree is
    put first on ``PYTHONPATH`` so the daemon runs the same code.
    """
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    child_env = os.environ.copy()
    child_env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([child_env["PYTHONPATH"]]
                 if child_env.get("PYTHONPATH") else []))
    child_env.update(env or {})
    process = subprocess.Popen(
        _python() + ["serve", "--port", str(port), *serve_args],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=child_env)
    client = ServiceClient(port=port, timeout=5.0, retries=0)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(
                f"daemon exited early with code {process.returncode}")
        try:
            if client.health().get("status") == "ok":
                return process
        except OSError:
            time.sleep(0.1)
    stop_daemon(process)
    raise RuntimeError("daemon did not become healthy within 30s")


def stop_daemon(process: subprocess.Popen) -> None:
    """Terminate the daemon, killing it if it outlives 15 s."""
    process.terminate()
    try:
        process.wait(timeout=15)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=15)


def _cli_batch(circuits: Tuple[str, ...],
               jobs: int) -> Dict[str, Tuple[str, object]]:
    """Digest + cost per circuit from ``soidomino batch --json``."""
    completed = subprocess.run(
        _python() + ["batch", "--json", "-j", str(jobs), *circuits],
        capture_output=True, text=True, check=True, env=os.environ.copy())
    payload = json.loads(completed.stdout)
    return {entry["circuit"]: (entry["digest"], entry["cost"])
            for entry in payload["results"]}


def _submit_and_wait(client: ServiceClient,
                     circuits: Tuple[str, ...]) -> Dict[str, object]:
    job = client.submit({"circuits": list(circuits), "flows": ["soi"]})
    result = client.wait(job["id"], timeout=600.0)
    if result["state"] != "done":
        raise RuntimeError(f"job {job['id']} ended {result['state']}: "
                           f"{result.get('error')}")
    return result["result"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="end-to-end drill for soidomino serve")
    parser.add_argument("--circuits", nargs="+",
                        default=list(DEFAULT_CIRCUITS))
    parser.add_argument("-j", "--jobs", type=int, default=2)
    args = parser.parse_args(argv)
    circuits = tuple(args.circuits)
    failures: List[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    with tempfile.TemporaryDirectory(prefix="soidomino-smoke-") as tmp:
        port = free_port()
        serve = ["-j", str(args.jobs)]

        print(f"baseline: soidomino batch --json {' '.join(circuits)}")
        baseline = _cli_batch(circuits, args.jobs)

        print(f"daemon:   soidomino serve --port {port} (pass 1)")
        daemon = start_daemon(port, serve + ["--journal", "none"])
        try:
            client = ServiceClient(port=port, timeout=30.0)
            started = time.monotonic()
            first = _submit_and_wait(client, circuits)
            cold_s = time.monotonic() - started
            served = {e["circuit"]: (e["digest"], e["cost"])
                      for e in first["results"]}
            check(served == baseline,
                  "served digests and costs are bit-identical to the CLI")
            pool1 = first["cache"]["pool"]
            check(pool1["pools_built"] == 1 and pool1["warm"],
                  "first job built exactly one warm pool")

            started = time.monotonic()
            second = _submit_and_wait(client, circuits)
            warm_s = time.monotonic() - started
            served2 = {e["circuit"]: (e["digest"], e["cost"])
                       for e in second["results"]}
            check(served2 == baseline,
                  "warm resubmission digests unchanged")
            pool2 = second["cache"]["pool"]
            check(pool2["pools_built"] == pool1["pools_built"]
                  and pool2["runs"] == pool1["runs"] + 1,
                  "resubmission reused the warm pool (no rebuild)")
            print(f"          cold {cold_s:.2f}s -> warm {warm_s:.2f}s")

            metrics = client.metrics_text()
            for family in ("repro_mapping_tuples_created_total",
                           "repro_service_jobs_done_total"):
                check(family in metrics, f"/metrics exposes {family}")
        finally:
            stop_daemon(daemon)

        print(f"daemon:   soidomino serve --port {port} (restarted)")
        daemon = start_daemon(port, serve + ["--journal", "none"])
        try:
            client = ServiceClient(port=port, timeout=30.0)
            third = _submit_and_wait(client, circuits)
            served3 = {e["circuit"]: (e["digest"], e["cost"])
                       for e in third["results"]}
            check(served3 == baseline,
                  "post-restart digests still bit-identical")
        finally:
            stop_daemon(daemon)

        # ---- durability: kill -9 mid-job, restart, same digests ----
        journal = os.path.join(tmp, "journal.sqlite")
        print(f"daemon:   soidomino serve --port {port} (kill -9 drill)")
        daemon = start_daemon(port, serve + ["--journal", journal])
        killed_mid_job = False
        job: Dict[str, object] = {}
        try:
            client = ServiceClient(port=port, timeout=30.0)
            job = client.submit({"circuits": list(circuits),
                                 "flows": ["soi"]})
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if client.status(job["id"])["state"] == "running":
                    killed_mid_job = True
                    break
                time.sleep(0.005)
            daemon.send_signal(signal.SIGKILL)
            daemon.wait(timeout=15)
        except BaseException:
            stop_daemon(daemon)
            raise
        check(killed_mid_job,
              "daemon killed -9 while the job was running")

        print(f"daemon:   soidomino serve --port {port} (resurrected)")
        daemon = start_daemon(port, serve + ["--journal", journal])
        try:
            client = ServiceClient(port=port, timeout=30.0, retries=3)
            result = client.wait(job["id"], timeout=600.0)
            check(result["state"] == "done",
                  "journal-recovered job ran to completion")
            served4 = {e["circuit"]: (e["digest"], e["cost"])
                       for e in result["result"]["results"]}
            check(served4 == baseline,
                  "recovered job digests bit-identical to the CLI")
            status = client.status(job["id"])
            check(bool(status["recovered"]) and status["attempts"] >= 2,
                  "status shows journal recovery (attempt 2)")
            events = list(client.events(job["id"]))
            seqs = [e["seq"] for e in events]
            check(seqs == sorted(set(seqs)),
                  "event stream cursor survived the crash "
                  f"({len(seqs)} events, no gaps or duplicates)")
            health = client.health()
            check(health["journal"]["non_terminal"] == 0,
                  "journal holds no unfinished jobs after recovery")
        finally:
            stop_daemon(daemon)

    if failures:
        print(f"\nsmoke: {len(failures)} assertion(s) failed",
              file=sys.stderr)
        return 1
    print("\nsmoke: all assertions passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
