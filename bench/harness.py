"""Shared plumbing: checkout paths, statistics, host speed, the set-up
clock, spans.

Nothing here imports ``repro``: the command line calls
:func:`require_checkout` first, which fails fast (and puts ``src/`` on
``sys.path``) before any workload module is imported.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
SEED_DIGESTS = ROOT / "tests" / "data" / "seed_digests.json"
#: Working stores, journals, BLIF inputs and traces (git-ignored).
WORK = ROOT / ".bench_work"


def require_checkout() -> None:
    """Exit with status 2 unless the program and its reference data exist.

    The benchmark maps with the checkout's own ``src/repro``; an
    installed copy elsewhere must never stand in for it.
    """
    missing = [str(p.relative_to(ROOT))
               for p in (SPEC_PATH, SRC / "repro", SEED_DIGESTS)
               if not p.exists()]
    if missing:
        print(f"bench: {ROOT} is not a soidomino checkout "
              f"(missing {', '.join(missing)})", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> Dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def use_private_tmp(directory: Path) -> None:
    """Keep temporary files — multiprocessing's forkserver socket, the
    daemon's — inside the checkout, via ``TMPDIR`` (inherited by every
    subprocess).  Skipped when the socket path multiprocessing builds
    below it would pass the 107-byte AF_UNIX limit."""
    if len(str(directory)) + len("/pymp-xxxxxxxx/listener-xxxxxxxx") > 107:
        return
    directory.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(directory)
    tempfile.tempdir = None  # re-read TMPDIR on next use


def src_env() -> Dict[str, str]:
    """Environment for ``python -m repro`` subprocesses of this checkout."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def percentile(values: Sequence[float], q: float,
               share: float = 1 / 20) -> float:
    """The ``q``-th percentile (``q`` in [0, 100]) as a kernel estimate:
    the mean of the order statistics within ±max(√n/2, n·share) ranks
    of its position.

    On a host whose speed jitters from second to second, the one sample
    at the exact rank carries that jitter in full; its neighbours carry
    independent jitter, so their mean is steadier.  Service latencies
    also sit on a 20 ms ladder (the event stream's poll interval), and
    the n/20 floor spans rungs so the estimate does not hop between
    them.  For two to four samples the median is the ordinary median.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    half = max(math.sqrt(len(ordered)) / 2.0, len(ordered) * share)
    low = max(0, math.ceil(position - half))
    high = min(len(ordered) - 1, math.floor(position + half))
    window = ordered[low:high + 1]
    return sum(window) / len(window)


def median(values: Sequence[float]) -> float:
    """The interquartile mean: the mean of the middle half (±n/4 ranks).

    About fifty full garbage collections of 0.1-0.2 s each land among
    the registry's 84 tasks, and which tasks they hit differs from run to
    run even in the same task order.  The tasks near the median split
    into paused and unpaused clusters, so a narrow window's estimate
    jumped by up to 25% between runs of the same code.  A pareto-stress
    round has only eight tasks, each jittering with the host; the middle
    half averages four of them instead of two.
    """
    return percentile(values, 50.0, share=1 / 4)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def descendants(pid: int) -> List[int]:
    """Every process below ``pid``, read from ``/proc`` (none without it)."""
    children: Dict[int, List[int]] = {}
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        parent = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(parent, []).append(int(entry.name))
    found, stack = [], [pid]
    while stack:
        for child in children.get(stack.pop(), []):
            found.append(child)
            stack.append(child)
    return found


#: Largest VmHWM seen by :func:`note_peaks`, in KiB.
_noted_peak_kb = 0


def note_peaks(pid: int) -> float:
    """Note the peak resident set (VmHWM) of ``pid`` and every process
    below it; returns the seconds the reading took.

    Pool workers are children of multiprocessing's forkserver, which
    reaps them, so ``RUSAGE_CHILDREN`` never counts them.  Call this
    while they are still alive: just before a pool or daemon is torn
    down.
    """
    global _noted_peak_kb
    begun = time.perf_counter()
    for member in [pid] + descendants(pid):
        try:
            status = Path(f"/proc/{member}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                _noted_peak_kb = max(_noted_peak_kb, int(line.split()[1]))
    return time.perf_counter() - begun


def peak_rss_mb() -> float:
    """Largest resident set of this process, its waited-for children and
    every process :func:`note_peaks` read."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children, _noted_peak_kb) / 1024.0


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------
#: Seconds one probe walk takes on the reference host.  Timings of the
#: program are reported in seconds of that host.
REFERENCE_WALK_S = 0.005

#: The probe: a pointer chase through an 8 MiB table (four times this
#: host's L2), so each step waits on the shared last-level cache — the
#: resource the neighbours contend for.  One line in, one timing out.
PROBE = """\
import sys, time
from array import array
mask = (1 << 21) - 1
table = array("I", ((j * 1103515245 + 12345) & mask for j in range(mask + 1)))
j = 0
print("ready", flush=True)
for _ in sys.stdin:
    begun = time.perf_counter()
    for _ in range(20000):
        j = table[j]
    print(time.perf_counter() - begun, flush=True)
"""


class HostSpeed:
    """How fast the host runs right now, sampled between operations.

    The shared host's speed drifts by ±20% in waves of one to three
    minutes, longer than a run, and its two CPUs can differ by as much
    at the same moment, so ten runs of identical code spread by about as
    much.  A fixed memory-bound walk, timed outside every timed section,
    slows with the program: seconds measured between two groups of
    walks, times ``factor()`` over those walks, are seconds of the
    reference host.  Successive walks take turns on each CPU this
    process may use, so a factor averages over the CPUs rather than
    following wherever the scheduler put the walk.  The walk runs in a
    child process, so its table never counts toward the program's peak
    memory; use the object as a context manager, which stops the child
    and waits for it.
    """

    def __init__(self):
        self.samples: List[float] = []
        self._probe: Optional[subprocess.Popen] = None
        self._cpus = (sorted(os.sched_getaffinity(0))
                      if hasattr(os, "sched_getaffinity") else [])

    def start(self) -> None:
        """Start the child and wait until its table is built."""
        if self._probe is None:
            self._probe = subprocess.Popen(
                [sys.executable, "-c", PROBE], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True)
            if self._probe.stdout.readline().strip() != "ready":
                self.close()
                raise RuntimeError("the host-speed probe did not start")

    def close(self) -> None:
        if self._probe is not None:
            self._probe.stdin.close()
            try:
                self._probe.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._probe.kill()
                self._probe.wait(timeout=30)
            self._probe.stdout.close()
            self._probe = None

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def sample(self, count: int = 1) -> float:
        """Time ``count`` walks; returns the seconds this took, for the
        caller to keep out of its timed window."""
        begun = time.perf_counter()
        self.start()
        for _ in range(count):
            if self._cpus:
                os.sched_setaffinity(self._probe.pid, {
                    self._cpus[len(self.samples) % len(self._cpus)]})
            self._probe.stdin.write("\n")
            self._probe.stdin.flush()
            self.samples.append(float(self._probe.stdout.readline()))
        return time.perf_counter() - begun

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int = 0, until: Optional[int] = None) -> float:
        """Reference seconds per measured second, over the walks timed
        between two ``mark()`` results (to the last walk by default)."""
        return REFERENCE_WALK_S / median(self.samples[since:until])


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------
def import_seconds(module: str, count: int = 3) -> float:
    """Median time for a fresh interpreter to start and import ``module``.

    The in-process import happens once per run, and one sample of it is
    at the mercy of the host's jitter; fresh interpreters give several.
    """
    times = []
    for _ in range(count):
        begun = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"],
                       cwd=str(ROOT), env=src_env(), check=True)
        times.append(time.perf_counter() - begun)
    return median(times)


class SetupClock:
    """Measures ``setup_s``: process start to the first timed operation.

    Start-up and imports count as :func:`import_seconds` measured them.
    Work a workload can repeat before timing (a daemon start plus its
    warm-up job, input generation) runs as several *trials*, and only
    their median counts; the rest of the work between ``started`` (imports
    done) and the first timed operation (a store fill) counts once.  Work
    a change moves out of the timed window into set-up therefore shows.
    """

    def __init__(self, started: float, imports_s: float = 0.0):
        self.started = started
        self.imports_s = imports_s
        self.trials: List[float] = []
        self._fixed: Optional[float] = None

    @contextmanager
    def trial(self) -> Iterator[None]:
        begun = time.perf_counter()
        yield
        self.trials.append(time.perf_counter() - begun)

    def window_opened(self) -> None:
        """Mark the first timed operation (later calls are no-ops)."""
        if self._fixed is None:
            self._fixed = (time.perf_counter() - self.started
                           - sum(self.trials))

    @property
    def seconds(self) -> float:
        if self._fixed is None:
            raise RuntimeError("the timed window never opened")
        return (self.imports_s + self._fixed
                + (median(self.trials) if self.trials else 0.0))


# ---------------------------------------------------------------------------
# spans recorded around calls into the program
# ---------------------------------------------------------------------------
#: Span category of the per-layer spans the bench records.
LAYER = "layer"


def layer_totals(root) -> Dict[str, float]:
    """Summed duration per layer-span name under ``root``."""
    totals: Dict[str, float] = {}
    for span in root.walk():
        if span.category == LAYER:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration_s
    return totals


def layer_coverage_s(root) -> float:
    """Seconds of ``root`` during which at least one layer span was open.

    A union of intervals rather than a sum, so concurrent client threads
    (the service workload) cannot cover more than the wall.
    """
    intervals = sorted((span.start_s, span.end_s) for span in root.walk()
                       if span.category == LAYER)
    covered = 0.0
    cursor = root.start_s
    for start, end in intervals:
        start = max(start, cursor)
        end = min(end, root.end_s)
        if end > start:
            covered += end - start
            cursor = end
    return covered
