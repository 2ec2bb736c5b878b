"""Command line: ``python -m bench``.

One workload, in this process; the last line of standard output is the
JSON result::

    python -m bench --workload registry-serial --seed 0 --seconds 20 --trace 0

Every workload, each in a fresh subprocess, untraced and then traced,
with a summary of every metric by name and unit::

    python -m bench --seed 0 --out results.json

The exit status is 0 only when every output passed its correctness
check and no operation failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from bench import harness


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            out: Optional[Path]) -> int:
    harness.require_checkout()
    from bench.workloads import WORKLOADS, Run

    if workload not in WORKLOADS:
        print(f"bench: unknown workload {workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # per-layer runs report no set-up time
    imports_s = 0.0 if trace else harness.import_seconds("bench.workloads")
    with harness.HostSpeed() as host:
        host.start()  # before the set-up clock: the probe is not set-up
        started = time.perf_counter()
        spec = harness.load_spec()
        workdir = harness.WORK / f"run-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        # not below workdir: multiprocessing removes its own temporary
        # directory at interpreter exit, after workdir is gone
        harness.use_private_tmp(harness.WORK / "tmp")
        run = Run(workload=workload, seed=seed, seconds=seconds,
                  trace=trace, workdir=workdir,
                  trace_dir=harness.WORK / "traces",
                  setup=harness.SetupClock(started, imports_s), host=host)
        try:
            WORKLOADS[workload](run)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    # every end-to-end metric is measured on every workload; a layer the
    # workload never enters reads 0
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": (run.metrics.get(m["name"], 0) if trace
                                     else run.metrics[m["name"]]),
                           "unit": m["unit"]} for m in wanted}
    correct = run.wrong == 0 and run.failed == 0
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    info = dict(run.info, wrong_outputs=run.wrong,
                fail_ratio=harness.ratio(run.failed, run.attempted),
                notes=run.notes)
    for name, metric in metrics.items():
        print(f"{workload:16s} {name:28s} {metric['value']:>16.6g} "
              f"{metric['unit']}")
    for name, value in info.get("wall_times", {}).items():
        print(f"{workload:16s} {name + ' (wall)':28s} {value:>16.6g}")
    for key in ("host_speed", "wrong_outputs", "fail_ratio", "rounds",
                "latency_samples", "trace_file"):
        if key in info:
            print(f"{workload:16s} {key:28s} {info[key]}")
    for note in run.notes:
        print(f"{workload:16s} {note}", file=sys.stderr)
    if out is not None:
        write_runs(out, seed, seconds, [
            {"workload": workload, "trace": int(trace), "result": result,
             "info": info}])
    print(json.dumps(result))
    return 0 if correct else 1


def write_runs(path: Path, seed: int, seconds: float,
               runs: List[Dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"seed": seed, "seconds": seconds, "runs": runs}, handle,
                  indent=1)
        handle.write("\n")


def run_all(seed: int, seconds: float, out: Optional[Path]) -> int:
    """Every workload in a fresh subprocess, so memos, imports and
    ``ru_maxrss`` never leak from one workload into the next."""
    harness.require_checkout()
    harness.WORK.mkdir(parents=True, exist_ok=True)
    runs: List[Dict] = []
    status = 0
    for workload in [w["name"] for w in harness.load_spec()["workloads"]]:
        for trace in (0, 1):
            part = harness.WORK / f"part-{os.getpid()}-{workload}-{trace}.json"
            command = [sys.executable, "-m", "bench", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(trace), "--out", str(part)]
            completed = subprocess.run(command, cwd=str(harness.ROOT),
                                       stdout=subprocess.PIPE, text=True)
            sys.stdout.write("".join(
                line + "\n" for line in completed.stdout.splitlines()[:-1]))
            status = status or completed.returncode
            if part.exists():
                with open(part, encoding="utf-8") as handle:
                    runs.extend(json.load(handle)["runs"])
                part.unlink()
    if out is not None:
        write_runs(out, seed, seconds, runs)
        print(f"bench: wrote {out}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    spec = harness.load_spec() if harness.SPEC_PATH.exists() else {}
    names = [w["name"] for w in spec.get("workloads", [])]
    parser = argparse.ArgumentParser(
        prog="python -m bench",
        description="End-to-end benchmark of the soidomino mapping stack.")
    parser.add_argument("--workload", help="run only this workload, "
                        f"in this process (one of: {', '.join(names)})")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the inputs (task order, relabelings)")
    parser.add_argument("--seconds", type=float,
                        default=spec.get("run_seconds", 20),
                        help="timed work per run (whole rounds, at least "
                             "one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced pass reporting per-layer metrics")
    parser.add_argument("--out", type=Path,
                        help="write the runs as JSON (bench/compare.py "
                             "reads these)")
    args = parser.parse_args(argv)
    if args.workload is not None:
        return run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.out)
    return run_all(args.seed, args.seconds, args.out)


if __name__ == "__main__":
    sys.exit(main())
