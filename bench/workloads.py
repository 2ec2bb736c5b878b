"""The four workloads: set-up, timed rounds, correctness gate, metrics.

Every workload runs *rounds*.  A round is one complete, fixed multiset
of operations — the seed only permutes their order or relabels inputs —
so end-to-end numbers do not depend on which operations happened to fit
in the time limit.  Rounds repeat until ``seconds`` of timed work is
done; at least one always runs.  Each round's outputs are checked right
after its timed section closes.  The host's speed is sampled between
operations, outside the timed sections, and the end-to-end times are
reported in seconds of the reference host (:class:`HostSpeed`).

With ``trace`` on, a workload instead runs one untraced round (the
reference wall) and one traced round whose layer spans are recorded
from this package, then writes the spans with ``repro.obs`` and returns
per-layer metrics.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import socket
import sqlite3
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import MapperConfig, flow_config, map_network, prepare_network
from repro.bench_suite import load_circuit, random_network
from repro.io import load_blif, save_blif
from repro.network import LogicNetwork, NodeType, network_from_expression
from repro.obs import Tracer, write_trace
from repro.pipeline import BatchRunner, CacheStore
from repro.pipeline.runner import clear_network_memo
from repro.service import Job, JobJournal, JobSpec, ServiceClient
from repro.sim import check_circuit_against_network

from .harness import (LAYER, ROOT, SEED_DIGESTS, HostSpeed, SetupClock,
                      descendants, median, note_peaks, peak_rss_mb,
                      percentile, ratio, src_env)
from .staged import (load_input, pooled_layers, staged_layers, staged_task,
                     tiling)

#: The paper's three mappers (Tables I-II).
FLOWS = ("domino", "rs", "soi")
#: Set-up trials per run; ``setup_s`` counts their median.
SETUP_TRIALS = 3
#: Pool width and client threads: the load fits a 2-core box.
WIDTH = 2

#: pareto-stress: the registry circuits and orderings it sweeps, and the
#: random networks whose seeded relabelings join them.  The generator
#: seeds are fixed (each network costs 1-2 s to map); ``--seed`` picks an
#: isomorphic variant of each — new PI order, names and fanin order, the
#: same function and the same amount of work — so timings stay
#: comparable across seeds while the mapper still sees unseen inputs.
PARETO_CIRCUITS = ("f51m", "9symml")
PARETO_ORDERINGS = ("paper", "exhaustive")
RANDOM_BASES = (0, 1, 3, 5)
RANDOM_SHAPE = {"n_pi": 16, "n_gates": 60, "n_po": 2, "locality": 10,
                "depth_target": 12}
PARETO_LIMITS = (12, 16)
#: Host-speed walks in each gap between pareto-stress tasks (a task runs
#: for seconds; a registry task, followed by one walk, for ~0.2 s).
PARETO_SPEED_SAMPLES = 4
#: Host-speed walks before and after each round of a pooled workload.
POOL_SPEED_SAMPLES = 20

#: service-closed: the registry circuits its jobs map.  The small ones
#: (at most ~0.1 s per flow) so HTTP, admission, queue wait and journal
#: writes stay a visible share of each job's latency.
SERVICE_CIRCUITS = ("mux", "z4ml", "count", "c8", "f51m", "frg1", "cm150",
                    "cordic", "b9", "9symml", "c432", "apex7", "x1", "i6")
#: Each (circuit, flow) pair is submitted this many times per round: the
#: first is first-seen (DP plus cache writes), the rest repeats.
SERVICE_REPEATS = 3


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; the defaults are the benchmark, tests shrink them."""

    registry_circuits: Optional[Tuple[str, ...]] = None  # None: all 28
    pareto_circuits: Tuple[str, ...] = PARETO_CIRCUITS
    pareto_limits: Tuple[int, int] = PARETO_LIMITS
    random_bases: Tuple[int, ...] = RANDOM_BASES
    random_shape: Tuple[Tuple[str, int], ...] = tuple(RANDOM_SHAPE.items())
    service_circuits: Tuple[str, ...] = SERVICE_CIRCUITS
    service_repeats: int = SERVICE_REPEATS


@dataclass
class Round:
    """What a timed round leaves once its outputs are checked — only what
    the metrics need, so the harness's own memory stays flat however
    many rounds run."""

    wall: float
    latencies: List[float]
    transistors: int
    discharge: int
    #: summed per-operation time, the untraced reference of a traced run
    task_s: float = 0.0
    #: reference seconds per measured second: for each latency, and over
    #: the wall (see :meth:`scale`)
    factors: List[float] = field(default_factory=list)
    speed: float = 1.0

    def scale(self, host: HostSpeed, first: int, per_gap: int) -> "Round":
        """Serial operations: each scaled by the walks timed just before
        and just after it — ``per_gap`` walks in each gap between
        operations, from walk ``first`` on — and the wall by their
        time-weighted mean."""
        self.factors = [host.factor(first + i * per_gap,
                                    first + (i + 2) * per_gap)
                        for i in range(len(self.latencies))]
        self.speed = ratio(sum(x * f for x, f in zip(self.latencies,
                                                     self.factors)),
                           sum(self.latencies))
        return self

    def scale_all(self, speed: float) -> "Round":
        """Concurrent operations: one factor, from walks around the round."""
        self.factors = [speed] * len(self.latencies)
        self.speed = speed
        return self


@dataclass
class Run:
    """One benchmark invocation: its inputs and what it measured."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    trace_dir: Path
    setup: SetupClock
    #: owned by the caller, which closes it
    host: HostSpeed
    sizes: Sizes = field(default_factory=Sizes)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)

    # -- correctness gate ----------------------------------------------
    def attempt(self, ok: bool, label: str, error: object = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._note(f"failed: {label}: {error}")

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.wrong += 1
            self._note(f"wrong: {what}")

    def _note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)

    # -- rounds ----------------------------------------------------------
    def rounds(self, body: Callable[[int], Round]) -> List[Round]:
        """Run ``body(k)`` until ``seconds`` of timed work is done; a
        round starts only if one as long as the last still fits.
        ``body`` calls :meth:`SetupClock.window_opened` just before its
        timed section."""
        done: List[Round] = []
        while True:
            done.append(body(len(done)))
            if sum(r.wall for r in done) + done[-1].wall > self.seconds:
                return done

    def finish_e2e(self, rounds: Sequence[Round], ops_per_round: int) -> None:
        self.expect(len({(r.transistors, r.discharge) for r in rounds}) == 1,
                    "transistor totals differ between rounds")
        speed = self.host.factor()

        def times(scaled: bool) -> Dict[str, float]:
            latencies = [x * (f if scaled else 1.0) for r in rounds
                         for x, f in zip(r.latencies, r.factors)]
            return {
                "setup_s": self.setup.seconds * (speed if scaled else 1.0),
                "throughput_per_s": median(
                    [ops_per_round / (r.wall * (r.speed if scaled else 1.0))
                     for r in rounds]),
                "latency_p50_s": median(latencies),
                "latency_p90_s": percentile(latencies, 90.0),
            }

        self.metrics.update(times(scaled=True))
        self.metrics.update({
            "transistors_total": rounds[0].transistors,
            "discharge_total": rounds[0].discharge,
            "peak_rss_mb": peak_rss_mb(),
        })
        self.info.update(rounds=len(rounds), host_speed=speed,
                         latency_samples=sum(len(r.latencies)
                                             for r in rounds),
                         wall_times=times(scaled=False))

    def finish_trace(self, tracer: Tracer, root) -> None:
        """Tiling of the traced pass, then the span file."""
        self.metrics.update(tiling(root))
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / f"{self.workload}-seed{self.seed}.jsonl"
        write_trace(tracer.roots, str(path))
        self.info["trace_file"] = str(path)


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------
def seed_digests() -> Dict[str, str]:
    with open(SEED_DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def digest_key(circuit: str, flow: str) -> str:
    """The pinned-digest key of a paper-limits, single-table task."""
    return f"{circuit}/{flow}/{flow_config(flow).ordering}/single"


def registry_tasks(run: Run):
    """circuits x flows at paper limits, in seeded order."""
    tasks = BatchRunner.sweep_tasks(circuits=run.sizes.registry_circuits,
                                    flows=FLOWS)
    random.Random(run.seed).shuffle(tasks)
    return tasks


def check_batch(run: Run, results, reference: Dict[str, str]) -> None:
    """Every task ran and its digest is the pinned seed digest."""
    for r in results:
        run.attempt(r.ok, r.task.label, r.error)
        if r.ok:
            run.expect(r.digest == reference.get(digest_key(r.task.circuit,
                                                            r.task.flow)),
                       f"{r.task.label} digest differs from the pinned "
                       "seed digest")


def batch_round(run: Run, results, reference: Dict[str, str], wall: float,
                latencies: List[float]) -> Round:
    check_batch(run, results, reference)
    costs = [r.cost for r in results if r.ok]
    return Round(wall, latencies, sum(c.t_total for c in costs),
                 sum(c.t_disch for c in costs),
                 task_s=sum(r.elapsed_s for r in results))


def io_probe(tracer: Tracer, networks: Dict[str, LogicNetwork],
             workdir: Path) -> Dict[str, float]:
    """``load_blif`` over BLIF copies of the workload's input networks."""
    paths = []
    for name, network in networks.items():
        path = workdir / f"probe-{name}.blif"
        save_blif(network, str(path))
        paths.append(path)
    nodes = 0
    with tracer.span("probe:io", "bench") as root:
        for path in paths:
            with tracer.span("io.parse", LAYER):
                nodes += len(load_blif(str(path)))
    return {"io.parse_s": root.duration_s,
            "io.parse_nodes_per_s": ratio(nodes, root.duration_s)}


def input_probe(tracer: Tracer, tasks_per_circuit: Dict[str, int]
                ) -> Dict[str, float]:
    """Registry generation time and synthesized size, for workloads whose
    mapping runs in pool workers, out of the bench's sight."""
    with tracer.span("probe:input", "bench") as root:
        networks = {}
        for name in tasks_per_circuit:
            with tracer.span("input.load", LAYER):
                networks[name] = load_circuit(name)
    nodes = sum(len(prepare_network(network)[0]) * tasks_per_circuit[name]
                for name, network in networks.items())
    return {"input.load_s": root.duration_s, "synth.nodes_out": nodes}


# ---------------------------------------------------------------------------
# registry-serial
# ---------------------------------------------------------------------------
def registry_serial(run: Run) -> None:
    for _ in range(SETUP_TRIALS):
        with run.setup.trial():
            reference = seed_digests()
            tasks = registry_tasks(run)

    def round_(k: int) -> Round:
        clear_network_memo()  # every round generates its inputs afresh
        runner = BatchRunner(max_workers=1, use_cache=False)
        first = run.host.mark()
        run.host.sample()
        gaps: List[float] = []
        paused = 0.0
        begun = 0.0

        def on_result(index: int, result) -> None:
            # a task's latency is the gap since the previous result; the
            # speed sample between the two is not part of it
            nonlocal paused, begun
            gaps.append(time.perf_counter() - begun)
            paused += run.host.sample()
            begun = time.perf_counter()

        run.setup.window_opened()
        started = begun = time.perf_counter()
        report = runner.run_serial(tasks, on_result=on_result)
        wall = time.perf_counter() - started - paused
        return batch_round(run, report.results, reference, wall,
                           gaps).scale(run.host, first, per_gap=1)

    if not run.trace:
        run.finish_e2e(run.rounds(round_), len(tasks))
        return

    untraced = round_(0)
    tracer = Tracer(f"bench:{run.workload}")
    with tracer.span("traced-pass", "bench") as root:
        staged = []
        for task in tasks:
            with tracer.span(f"task:{task.label}", "task"):
                staged.append(staged_task(tracer, task.circuit, task.flow,
                                          task.config))
    for task, result in zip(tasks, staged):
        run.attempt(True, task.label)
        run.expect(result.digest
                   == reference.get(digest_key(task.circuit, task.flow)),
                   f"{task.label}: staged digest differs from the pinned "
                   "seed digest")
    run.metrics.update(staged_layers(root, staged, untraced.task_s,
                                     untraced.wall))
    circuits = dict.fromkeys(t.circuit for t in tasks)
    run.metrics.update(io_probe(
        tracer, {c: load_circuit(c) for c in circuits}, run.workdir))
    run.finish_trace(tracer, root)


# ---------------------------------------------------------------------------
# pareto-stress
# ---------------------------------------------------------------------------
@dataclass
class ParetoTask:
    source: str              #: registry name or BLIF path
    ordering: str
    reference: LogicNetwork  #: the network the mapping must implement

    @property
    def label(self) -> str:
        return f"{Path(self.source).stem}/soi/{self.ordering}/pareto"


def seeded_variant(network: LogicNetwork, rng: random.Random,
                   name: str) -> LogicNetwork:
    """An isomorphic copy: shuffled PI order and names, swapped fanins of
    commutative gates, renamed outputs.  Same function, same DP work."""
    variant = LogicNetwork(name)
    order = list(network.pis)
    rng.shuffle(order)
    labels = list(range(len(order)))
    rng.shuffle(labels)
    mapped = {uid: variant.add_pi(f"x{label}")
              for uid, label in zip(order, labels)}
    commutative = (NodeType.AND, NodeType.OR, NodeType.XOR)
    for uid in network.topological_order():
        node = network.node(uid)
        if node.type in (NodeType.PI, NodeType.PO):
            continue
        fanins = [mapped[f] for f in node.fanins]
        if node.type in commutative and rng.random() < 0.5:
            fanins.reverse()
        mapped[uid] = variant.add_gate(node.type, fanins)
    for index, po in enumerate(network.pos):
        variant.add_po(mapped[network.node(po).fanins[0]], f"y{index}")
    return variant


def pareto_inputs(run: Run) -> List[ParetoTask]:
    """The workload's tasks; random inputs are written as BLIF files."""
    tasks = []
    for name in run.sizes.pareto_circuits:
        network = load_circuit(name)
        tasks.extend(ParetoTask(name, ordering, network)
                     for ordering in PARETO_ORDERINGS)
    shape = dict(run.sizes.random_shape)
    for base in run.sizes.random_bases:
        network = seeded_variant(
            random_network(f"rand{base}", seed=base, **shape),
            random.Random(f"{run.seed}/{base}"),
            name=f"rand{base}_seed{run.seed}")
        path = run.workdir / f"{network.name}.blif"
        save_blif(network, str(path))
        tasks.append(ParetoTask(str(path), "exhaustive", network))
    random.Random(run.seed).shuffle(tasks)
    return tasks


def pareto_stress(run: Run) -> None:
    w_max, h_max = run.sizes.pareto_limits
    for _ in range(SETUP_TRIALS):
        with run.setup.trial():
            tasks = pareto_inputs(run)
    configs = [MapperConfig(w_max=w_max, h_max=h_max, pareto=True,
                            ordering=task.ordering) for task in tasks]
    digests: List[str] = []  # the first round's; later rounds must match

    def round_(k: int) -> Round:
        outputs, latencies = [], []
        first = run.host.mark()
        run.host.sample(PARETO_SPEED_SAMPLES)
        paused = 0.0
        run.setup.window_opened()
        started = time.perf_counter()
        for task, config in zip(tasks, configs):
            begun = time.perf_counter()
            result = map_network(load_input(task.source), flow="soi",
                                 config=config)
            outputs.append((result.circuit, result.circuit.digest()))
            latencies.append(time.perf_counter() - begun)
            paused += run.host.sample(PARETO_SPEED_SAMPLES)
        wall = time.perf_counter() - started - paused
        for index, (task, (circuit, digest)) in enumerate(zip(tasks,
                                                              outputs)):
            run.attempt(True, task.label)
            if k == 0:
                digests.append(digest)
                mismatch = check_circuit_against_network(
                    circuit, task.reference, vectors=1024, seed=run.seed)
                run.expect(mismatch is None, f"{task.label}: {mismatch}")
            else:
                run.expect(digest == digests[index],
                           f"{task.label} digest changed between rounds")
        costs = [circuit.cost() for circuit, _ in outputs]
        return Round(wall, latencies, sum(c.t_total for c in costs),
                     sum(c.t_disch for c in costs), task_s=sum(latencies)
                     ).scale(run.host, first, per_gap=PARETO_SPEED_SAMPLES)

    if not run.trace:
        run.finish_e2e(run.rounds(round_), len(tasks))
        return

    untraced = round_(0)
    tracer = Tracer(f"bench:{run.workload}")
    with tracer.span("traced-pass", "bench") as root:
        staged = []
        for task, config in zip(tasks, configs):
            with tracer.span(f"task:{task.label}", "task"):
                staged.append(staged_task(tracer, task.source, "soi",
                                          config))
    for task, result, expected in zip(tasks, staged, digests):
        run.attempt(True, task.label)
        run.expect(result.digest == expected,
                   f"{task.label}: staged digest differs from the "
                   "untraced run")
    run.metrics.update(staged_layers(root, staged, untraced.task_s,
                                     untraced.wall))
    run.metrics.update(io_probe(
        tracer, {Path(t.source).stem: t.reference for t in tasks},
        run.workdir))
    run.finish_trace(tracer, root)


# ---------------------------------------------------------------------------
# batch-store
# ---------------------------------------------------------------------------
@dataclass
class PoolPass:
    report: object
    started: float
    built: float
    ran: float
    closed: float
    first_result: float

    @property
    def wall(self) -> float:
        return self.closed - self.started


def pool_pass(tasks, store_path: Optional[Path]) -> PoolPass:
    """One ``soidomino batch -j 2 [--store S]`` pass: a fresh runner is
    built, runs the tasks and is closed."""
    stamps: List[float] = []
    started = time.perf_counter()
    runner = BatchRunner(max_workers=WIDTH, use_cache=store_path is not None,
                         store_path=str(store_path) if store_path else None)
    built = time.perf_counter()
    probe_s = 0.0
    try:
        report = runner.run(
            tasks, on_result=lambda i, r: stamps.append(time.perf_counter()))
        ran = time.perf_counter()
        probe_s = note_peaks(os.getpid())  # the workers are still alive
    finally:
        runner.close()
    # the reading is not part of the pass
    return PoolPass(report, started, built, ran,
                    time.perf_counter() - probe_s,
                    stamps[0] if stamps else ran)


def store_counters(path: Path) -> Dict[str, object]:
    store = CacheStore(str(path))
    try:
        return store.stats()
    finally:
        store.close()


def store_probe(tracer: Tracer, store_path: Path,
                empty: Path) -> Dict[str, float]:
    """``CacheStore.get`` on every stored key, then ``put`` of those
    payloads into an empty second store."""
    # CacheStore has no key-listing call, so the keys come from sqlite
    with sqlite3.connect(str(store_path)) as conn:
        keys = [row[0] for row in
                conn.execute("SELECT key FROM entries ORDER BY key")]
    source = CacheStore(str(store_path))
    target = CacheStore(str(empty))
    try:
        with tracer.span("probe:store", "bench"):
            with tracer.span("store.get", LAYER) as get_span:
                payloads = [(key, source.get(key)) for key in keys]
            with tracer.span("store.put", LAYER) as put_span:
                for key, payload in payloads:
                    if payload is not None:
                        target.put(key, payload)
    finally:
        source.close()
        target.close()
    return {"store.get_s": get_span.duration_s,
            "store.put_s": put_span.duration_s}


def stop_pool_helpers() -> None:
    """Stop multiprocessing's forkserver and resource tracker and wait
    for them, so the run leaves no process behind."""
    from multiprocessing import forkserver, resource_tracker

    for helper in (getattr(forkserver, "_forkserver", None),
                   getattr(resource_tracker, "_resource_tracker", None)):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def batch_store(run: Run) -> None:
    for _ in range(SETUP_TRIALS):
        with run.setup.trial():
            reference = seed_digests()
            tasks = registry_tasks(run)
    try:
        _batch_store(run, tasks, run.workdir / "cones.sqlite", reference)
    finally:
        stop_pool_helpers()


def _batch_store(run: Run, tasks, store: Path,
                 reference: Dict[str, str]) -> None:
    fill = pool_pass(tasks, store)  # set-up: the store every round reads
    check_batch(run, fill.report.results, reference)

    def round_(k: int) -> Round:
        mark = run.host.mark()
        run.host.sample(POOL_SPEED_SAMPLES)
        run.setup.window_opened()
        done = pool_pass(tasks, store)
        run.host.sample(POOL_SPEED_SAMPLES)
        results = done.report.results
        return batch_round(run, results, reference, done.wall,
                           [r.elapsed_s for r in results]
                           ).scale_all(run.host.factor(mark))

    if not run.trace:
        run.finish_e2e(run.rounds(round_), len(tasks))
        return

    untraced = round_(0)
    before = store_counters(store)
    tracer = Tracer(f"bench:{run.workload}")
    with tracer.span("traced-pass", "bench") as root:
        traced = pool_pass(tasks, store)
        tracer.record_abs("pipeline.runner", traced.started, traced.built,
                          LAYER)
        tracer.record_abs("pool.run", traced.built, traced.ran, LAYER)
        tracer.record_abs("pipeline.close", traced.ran, traced.closed, LAYER)
    after = store_counters(store)
    control = pool_pass(tasks, None)  # the same pass without any cache
    for done in (traced, control):
        check_batch(run, done.report.results, reference)

    results = [r for r in traced.report.results if r.ok]
    run_s = traced.ran - traced.built
    busy = sum(r.elapsed_s for r in results)
    pickled = 0
    with tracer.span("probe:pickle", "bench") as pickle_span:
        for r in results:
            blob = pickle.dumps(r)
            pickle.loads(blob)
            pickled += len(blob)
    run.metrics.update(pooled_layers(
        [(r.elapsed_s, dict(r.pass_times or {}), r.stats, r.cost.num_gates)
         for r in results]))
    run.metrics.update({
        "pool.startup_s": traced.first_result - traced.started,
        "pool.busy_ratio": ratio(busy, run_s * WIDTH),
        "pool.overhead_s": run_s - busy / WIDTH,
        "pool.result_bytes": pickled,
        "pool.pickle_s": pickle_span.duration_s,
        "cache.net_saving_s": control.wall - untraced.wall,
        "store.hits": after["hits"] - before["hits"],
        "store.misses": after["misses"] - before["misses"],
        "store.bytes": after["size_bytes"],
        "obs.trace_overhead_ratio": ratio(traced.wall, untraced.wall) - 1.0,
    })
    run.metrics.update(store_probe(tracer, store,
                                   run.workdir / "probe-store.sqlite"))
    counts = Counter(t.circuit for t in tasks)
    run.metrics.update(input_probe(tracer, counts))
    run.metrics.update(io_probe(
        tracer, {c: load_circuit(c) for c in counts}, run.workdir))
    run.finish_trace(tracer, root)


# ---------------------------------------------------------------------------
# service-closed
# ---------------------------------------------------------------------------
def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class Daemon:
    """A real ``soidomino serve -j 2`` subprocess with its own store and
    journal; stopped, and waited for, when the ``with`` block exits."""

    def __init__(self, directory: Path):
        directory.mkdir(parents=True, exist_ok=True)
        self.directory = directory
        self.store = directory / "cones.sqlite"
        self.journal = directory / "journal.sqlite"
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> None:
        for _ in range(3):  # a free port can be taken before we bind it
            self.port = free_port()
            with open(self.directory / "daemon.log", "ab") as log:
                self.process = subprocess.Popen(
                    [sys.executable, "-m", "repro", "serve",
                     "--port", str(self.port), "-j", str(WIDTH),
                     "--store", str(self.store),
                     "--journal", str(self.journal)],
                    cwd=str(ROOT), env=src_env(), stdout=log, stderr=log)
            if self._healthy():
                return
            self.stop()
        raise RuntimeError("soidomino serve did not start; see "
                           f"{self.directory / 'daemon.log'}")

    def _healthy(self, timeout_s: float = 60.0) -> bool:
        client = ServiceClient(port=self.port, timeout=5.0, retries=0)
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                return False
            try:
                if client.health().get("status") == "ok":
                    return True
            except OSError:
                time.sleep(0.02)
        return False

    def stop(self) -> None:
        if self.process is None:
            return
        # the daemon's pool worker and multiprocessing helpers exit once
        # the daemon does; note them now so their end can be waited for
        helpers = descendants(self.process.pid)
        note_peaks(self.process.pid)
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.process = None
        deadline = time.monotonic() + 10.0
        while helpers and time.monotonic() < deadline:
            helpers = [pid for pid in helpers if alive(pid)]
            time.sleep(0.02)

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


@dataclass
class JobRecord:
    circuit: str
    flow: str
    submitted: float = 0.0   #: perf_counter before the POST
    accepted: float = 0.0    #: POST answered
    streamed: float = 0.0    #: event stream reached the terminal event
    fetched: float = 0.0     #: result body received
    body: Optional[dict] = None
    events: List[dict] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def done(self) -> bool:
        return self.error is None and self.body.get("state") == "done"

    @property
    def latency(self) -> float:
        return self.fetched - self.submitted

    def server_times(self) -> Tuple[float, float, float]:
        """(created, started, finished) daemon wall-clock stamps, read
        from the job's state events."""
        stamps = {e["state"]: e["ts"] for e in self.events
                  if e.get("kind") == "state"}
        return stamps["queued"], stamps["running"], stamps["done"]


def run_job(client: ServiceClient, circuit: str, flow: str) -> JobRecord:
    """Submit, follow the event stream to the terminal event, fetch."""
    record = JobRecord(circuit, flow)
    record.submitted = time.perf_counter()
    try:
        status = client.submit({"circuits": [circuit], "flows": [flow]})
        record.accepted = time.perf_counter()
        record.events = list(client.events(status["id"]))
        record.streamed = time.perf_counter()
        record.body = client.result(status["id"])
        record.fetched = time.perf_counter()
    except Exception as exc:  # noqa: BLE001 - a client thread must go on;
        # the job counts as failed and the error is reported
        record.error = f"{type(exc).__name__}: {exc}"
    return record


def closed_loop(port: int, jobs: Sequence[Tuple[str, str]], seed: int,
                tracer: Optional[Tracer] = None
                ) -> Tuple[List[JobRecord], int]:
    """``WIDTH`` client threads; each takes the next job only after its
    previous one returned.  Returns the records, in job order, and the
    retries the clients absorbed."""
    lock = threading.Lock()
    pending = iter(enumerate(jobs))
    records: List[Optional[JobRecord]] = [None] * len(jobs)
    clients = [ServiceClient(port=port, timeout=120.0, seed=seed * WIDTH + k)
               for k in range(WIDTH)]

    def drive(client: ServiceClient) -> None:
        while True:
            with lock:
                item = next(pending, None)
            if item is None:
                return
            index, (circuit, flow) = item
            record = records[index] = run_job(client, circuit, flow)
            if tracer is not None and record.error is None:
                tracer.record_abs("service.submit", record.submitted,
                                  record.accepted, LAYER)
                tracer.record_abs("service.job", record.accepted,
                                  record.streamed, LAYER)
                tracer.record_abs("service.result", record.streamed,
                                  record.fetched, LAYER)

    threads = [threading.Thread(target=drive, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, sum(c.retried for c in clients)


def service_jobs(run: Run, round_no: int) -> List[Tuple[str, str]]:
    pairs = [(c, f) for c in run.sizes.service_circuits for f in FLOWS]
    jobs = pairs * run.sizes.service_repeats
    random.Random(f"{run.seed}/{round_no}").shuffle(jobs)
    return jobs


def service_round(run: Run, records: Sequence[JobRecord],
                  reference: Dict[str, str], wall: float) -> Round:
    """Gate one round of jobs: each ran and served the pinned digest."""
    t_total = t_disch = 0
    for rec in records:
        label = f"{rec.circuit}/{rec.flow}"
        run.attempt(rec.done, label, rec.error or rec.body.get("error"))
        if not rec.done:
            continue
        entries = rec.body["result"]["results"]
        run.expect(len(entries) == 1 and entries[0]["digest"]
                   == reference.get(digest_key(rec.circuit, rec.flow)),
                   f"{label}: served digest differs from the pinned seed "
                   "digest")
        t_total += entries[0]["cost"]["T_total"]
        t_disch += entries[0]["cost"]["T_disch"]
    return Round(wall, [rec.latency for rec in records if rec.done],
                 t_total, t_disch)


def service_closed(run: Run) -> None:
    reference = seed_digests()
    # the warm-up job maps a tiny circuit: it starts the daemon's pool
    # worker without putting any measured circuit in its caches
    warmup = run.workdir / "warmup.blif"
    save_blif(network_from_expression("(a + b) * (c + d)", name="warmup"),
              str(warmup))
    kept: Dict[str, object] = {}  # the traced round's raw records

    def round_(k: int, tracer: Optional[Tracer] = None) -> Round:
        jobs = service_jobs(run, k)
        with Daemon(run.workdir / f"round{k}") as daemon:
            with run.setup.trial():  # daemon healthy plus one warm-up job
                daemon.start()
                warm = run_job(ServiceClient(port=daemon.port),
                               str(warmup), "soi")
            if not warm.done:
                raise RuntimeError(f"warm-up job failed: {warm.error}")
            mark = run.host.mark()
            run.host.sample(POOL_SPEED_SAMPLES)
            run.setup.window_opened()
            if tracer is None:
                started = time.perf_counter()
                records, retries = closed_loop(daemon.port, jobs, run.seed)
                wall = time.perf_counter() - started
                run.host.sample(POOL_SPEED_SAMPLES)
            else:
                with tracer.span("traced-pass", "bench") as root:
                    records, retries = closed_loop(daemon.port, jobs,
                                                   run.seed, tracer)
                wall = root.duration_s
                kept.update(records=records, retries=retries, root=root,
                            warmup_s=warm.latency, store=daemon.store)
        return service_round(run, records, reference, wall).scale_all(
            run.host.factor(mark))

    if not run.trace:
        rounds = run.rounds(round_)
        run.finish_e2e(rounds, len(service_jobs(run, 0)))
        return

    untraced = round_(0)
    tracer = Tracer(f"bench:{run.workload}")
    traced = round_(1, tracer)
    done = [rec for rec in kept["records"] if rec.done]
    run.metrics.update(service_layers(done, kept["retries"], traced.wall))
    counters = store_counters(kept["store"])
    run.metrics.update({
        "pool.startup_s": kept["warmup_s"],
        "obs.trace_overhead_ratio": ratio(traced.wall, untraced.wall) - 1.0,
        "store.hits": counters["hits"],
        "store.misses": counters["misses"],
        "store.bytes": counters["size_bytes"],
    })
    run.metrics.update(store_probe(tracer, kept["store"],
                                   run.workdir / "probe-store.sqlite"))
    run.metrics.update(journal_probe(tracer, done,
                                     run.workdir / "journal-probe.sqlite"))
    counts = Counter(rec.circuit for rec in kept["records"])
    run.metrics.update(input_probe(tracer, counts))
    run.metrics.update(io_probe(
        tracer, {c: load_circuit(c) for c in counts}, run.workdir))
    run.finish_trace(tracer, kept["root"])


def service_layers(done: Sequence[JobRecord], retries: int,
                   wall: float) -> Dict[str, float]:
    """Layer metrics of one traced closed-loop round."""
    stamps = [rec.server_times() for rec in done]
    entries = [rec.body["result"]["results"][0] for rec in done]
    metrics = pooled_layers([
        (e["timings"]["elapsed_s"], e["timings"]["passes"], e["stats"],
         e["cost"]["#G"]) for e in entries])
    queue = [started - created for created, started, _ in stamps]
    runs = [finished - started for _, started, finished in stamps]
    busy = sum(e["timings"]["elapsed_s"] for e in entries)
    metrics.update({
        "svc.submit_p50_s": median([r.accepted - r.submitted for r in done]),
        "svc.queue_wait_p50_s": median(queue),
        "svc.queue_wait_p90_s": percentile(queue, 90.0),
        "svc.run_p50_s": median(runs),
        "svc.result_p50_s": median([r.fetched - r.streamed for r in done]),
        "svc.result_bytes": median([len(json.dumps(r.body).encode())
                                    for r in done]),
        "svc.client_overhead_p50_s": median(
            [r.latency - (finished - created)
             for r, (created, _, finished) in zip(done, stamps)]),
        "svc.retries": retries,
        "pool.busy_ratio": ratio(busy, wall * WIDTH),
        "pool.overhead_s": sum(runs) - busy,
    })
    return metrics


def journal_probe(tracer: Tracer, done: Sequence[JobRecord],
                  path: Path) -> Dict[str, float]:
    """Replay each job's journal writes — submit, state transitions,
    events, result — on a throwaway journal, with the real payloads."""
    journal = JobJournal(str(path))
    try:
        with tracer.span("probe:journal", "bench") as root:
            for rec in done:
                with tracer.span("journal.write", LAYER):
                    job = Job(spec=JobSpec.from_payload(
                        {"circuits": [rec.circuit], "flows": [rec.flow]}))
                    journal.record_submit(job)
                    for event in rec.events:
                        if event.get("kind") == "state":
                            job.state = event["state"]
                            journal.record_state(job)
                        journal.record_event(job.id, event)
                    journal.record_result(job, rec.body["result"])
    finally:
        journal.close()
    size = sum(p.stat().st_size for p in path.parent.glob(path.name + "*"))
    return {"journal.write_s": ratio(root.duration_s, len(done)),
            "journal.bytes_per_job": ratio(size, len(done))}


#: name -> workload function, in BENCHMARK.json order.
WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "registry-serial": registry_serial,
    "pareto-stress": pareto_stress,
    "batch-store": batch_store,
    "service-closed": service_closed,
}
