"""The dynamic-programming technology-mapping engine.

Implements the framework of Zhao & Sapatnekar (ICCAD'98) as described in
the paper's section IV, with the SOI/PBE extensions of section V switched
on by ``pbe_aware=True``:

* every node of the (unate, 2-input AND/OR) input network gets a table of
  ``{W, H}`` sub-solutions;
* ``combine_or`` / ``combine_and`` merge fanin tuples, with the PBE-aware
  variant tracking ``p_dis``/``par_b``, ordering series stacks, and
  committing discharge transistors;
* each node's best sub-solution can be *formed* into a domino gate
  (p-clock + output inverter + keeper, plus an n-clock foot when the
  pulldown touches primary inputs), at which point it is visible to
  fanouts as a ``{1, 1}`` input;
* multi-fanout nodes and PO drivers are forced gate boundaries (the DP is
  exact over the fanout-free trees in between, the classical tree-mapping
  regime);
* finally the chosen gates are materialized into a
  :class:`~repro.domino.circuit.DominoCircuit`.

Discharge transistors:

* PBE-aware mapping commits them *during* combination (the paper's
  algorithm, listing 2) and the materialized gates carry exactly the
  committed points (optimistic grounding) or additionally the residual
  ``p_dis`` points (pessimistic grounding);
* non-PBE-aware mapping ignores them entirely; the returned gates still
  receive the discharge transistors demanded by the structural analysis —
  that is the paper's "added in a post-processing step".
"""

from __future__ import annotations

import gc
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from ..domino.circuit import CircuitCost, DominoCircuit
from ..domino.gate import DominoGate
from ..domino.rearrange import rearrange
from ..domino.structure import Leaf, Pulldown
from ..errors import MappingError, ResourceLimitError
from ..network import LogicNetwork, NodeType
from ..pipeline.metrics import MappingStats
from ..resilience.faults import fire
from .cost import CostModel
from .kernel import KERNELS, key_vectorizable, resolve_kernel
from .tuples import (DI, HP, KEY, LV, NCOL, OP_GATE, OP_LEAF, PD, TR, WC,
                     Arena, MapTuple, TupleTable, np, ragged_ids)

_gc_lock = threading.Lock()
_gc_depth = 0
_gc_was_enabled = False


@contextmanager
def _gc_paused():
    """Keep the cyclic garbage collector out of the enclosed block.

    The DP keeps its tuples as arena rows, but plan selection builds
    structures and records, the reference kernel allocates per
    candidate, and any allocation burst would otherwise trigger
    collections that traverse every live object of the process.  Pausing is safe because a mapping run's state is
    acyclic (an arena, tables and gate records; DESIGN.md §15), so
    reference counting alone frees everything the run drops.

    It covers :meth:`MappingEngine.run_dp`, and with
    :meth:`MappingEngine.run_to_plan` also the plan selection and the
    release of the DP's tables.  The pause is shared by every thread
    running a DP (the daemon maps batches through
    ``asyncio.to_thread``): the first entrant records whether the
    collector was enabled and disables it, the last one out restores
    that state, also when the block raises.
    """
    global _gc_depth, _gc_was_enabled
    with _gc_lock:
        if _gc_depth == 0:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_depth += 1
    try:
        yield
    finally:
        with _gc_lock:
            _gc_depth -= 1
            if _gc_depth == 0 and _gc_was_enabled:
                gc.enable()


#: Candidate pairs one kernel batch may hold: a topological level is
#: cut into chunks under this budget (a node larger than it goes alone),
#: which bounds the batch's column arrays on wide W/H limits.
BATCH_PAIR_BUDGET = 1 << 17
#: Nodes one kernel batch may hold: batch node indices fit int16, which
#: keeps the soa kernel's ``np.lexsort`` on numpy's radix path.
BATCH_NODE_CAP = (1 << 15) - 1

#: How combine_and orders its operands.
ORDERING_RULES = ("paper", "naive", "adverse", "exhaustive")
#: What gate formation assumes about the stack bottom.
GROUND_POLICIES = ("optimistic", "footless", "pessimistic")


@dataclass
class MapperConfig:
    """Configuration of one mapping run.

    Attributes
    ----------
    w_max, h_max:
        Pulldown width/height limits (the paper uses 5 and 8).
    pbe_aware:
        True for SOI_Domino_Map, False for the bulk baseline Domino_Map.
    ordering:
        ``"paper"`` — the par_b/p_dis rule of section V; ``"naive"`` —
        first operand always on top; ``"adverse"`` — parallel stacks rise
        toward the dynamic node, the conventional bulk-CMOS structure the
        paper's Figure 2(a) depicts (wide stacks high for evaluation
        speed, internal nodes handled with clocked transistors) — this is
        the bulk baseline's behaviour; ``"exhaustive"`` — try both orders
        and keep the better tuple.
    ground_policy:
        ``"optimistic"`` — a formed gate's stack bottom counts as grounded,
        so residual potential discharge points need no transistor (the
        paper's assumption); ``"footless"`` — only footless gates (no
        primary inputs, stack bottom wired straight to ground) enjoy that
        protection, while footed gates (bottom above the n-clock, which is
        off during precharge) discharge their residual points — the
        paper's section VII observation; ``"pessimistic"`` — every gate
        discharges all residual points (full worst case).
    pareto:
        Keep a Pareto front per ``{W, H}`` slot instead of a single tuple.
    rearrange_gates:
        Post-process every materialized gate with the series-stack
        rearrangement pass (RS_Map).
    max_nodes, max_tuples:
        Resource ceilings (``None`` — the default — means unlimited).
        A run that processes more than ``max_nodes`` network nodes, or
        creates more than ``max_tuples`` DP tuples, stops with a
        structured :class:`~repro.errors.ResourceLimitError` carrying
        the partial :class:`~repro.pipeline.MappingStats` — so a
        pathological input degrades into a reportable per-task failure
        instead of unbounded memory growth taking the whole batch down.
    kernel:
        Which DP combine kernel runs the inner loop, one of
        :data:`repro.mapping.kernel.KERNELS`: ``"reference"`` — the
        scalar Python oracle; ``"soa"`` — the structure-of-arrays numpy
        kernel (bit-identical tables, requires numpy); ``"auto"`` (the
        default) — a hybrid routing each kernel batch by candidate-pair
        count (:data:`~repro.mapping.kernel.AUTO_THRESHOLD`), soa when
        numpy is importable and the batch is large enough to amortize
        the array overhead, the reference kernel otherwise (and always
        without numpy).  Excluded from :meth:`fingerprint` because the
        kernel is execution strategy, not mapping semantics: all
        kernels produce bit-identical tables.
    duplication:
        Fanout handling.  ``True`` (the paper's regime, following [23]):
        every consumer of a multi-fanout node sees the node's full tuple
        set and may absorb a private copy of its logic — small shared
        sub-functions get duplicated into the consuming pulldowns, large
        ones form shared gates, which is what produces the wide domino
        gates the paper reports.  ``False``: multi-fanout nodes are forced
        gate boundaries (classical duplication-free tree mapping).
    """

    w_max: int = 5
    h_max: int = 8
    pbe_aware: bool = True
    ordering: str = "paper"
    ground_policy: str = "optimistic"
    pareto: bool = False
    rearrange_gates: bool = False
    duplication: bool = True
    max_nodes: Optional[int] = None
    max_tuples: Optional[int] = None
    kernel: str = "auto"

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise MappingError(
                f"unknown kernel {self.kernel!r}; expected one of "
                f"{', '.join(KERNELS)}")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise MappingError(f"max_nodes must be >= 1, got {self.max_nodes}")
        if self.max_tuples is not None and self.max_tuples < 1:
            raise MappingError(
                f"max_tuples must be >= 1, got {self.max_tuples}")
        if self.w_max < 1 or self.h_max < 2:
            raise MappingError(
                f"infeasible limits w_max={self.w_max}, h_max={self.h_max}")
        if self.ordering not in ORDERING_RULES:
            raise MappingError(
                f"unknown ordering rule {self.ordering!r}; "
                f"expected one of {', '.join(ORDERING_RULES)}")
        if self.ground_policy not in GROUND_POLICIES:
            raise MappingError(
                f"unknown ground policy {self.ground_policy!r}; "
                f"expected one of {', '.join(GROUND_POLICIES)}")

    def fingerprint(self) -> tuple:
        """Every field that can change the mapping.

        ``kernel`` is excluded: every kernel produces bit-identical
        tables, so two configs differing only in kernel map alike.
        """
        return tuple(getattr(self, f.name) for f in fields(self)
                     if f.name != "kernel")


@dataclass
class GateRecord:
    """The formed-gate entry of one mapping node."""

    node_id: int
    tuple: MapTuple
    wcost: float      #: accumulated cost including overhead (and, under the
                      #: pessimistic policy, the residual p_dis discharges)
    trans: int        #: raw transistors including overhead + discharges
    disch: int        #: discharge transistors inside this gate's subtree
    levels: int       #: domino level of this gate's output
    footed: bool


class _FormedGates:
    """Every finished node's formed gate, kept as plain values.

    Gate formation records ``(row, wcost, trans, disch, levels,
    footed)`` per node in :attr:`formed`, ``row`` being the arena row
    the gate is formed from; a lookup builds the :class:`GateRecord`,
    its tuple materialized with its structure.  Plan selection looks up
    only the gates it selects.
    """

    __slots__ = ("_arena", "formed")

    def __init__(self, arena: Arena):
        self._arena = arena
        self.formed: Dict[int, tuple] = {}

    def __getitem__(self, uid: int) -> GateRecord:
        row, wcost, trans, disch, levels, footed = self.formed[uid]
        return GateRecord(node_id=uid, tuple=self._arena.tuple(row),
                          wcost=wcost, trans=trans, disch=disch,
                          levels=levels, footed=footed)


@dataclass
class PlannedGate:
    """One gate the DP selected, before post-processing.

    The structure is materialized (no provenance back-pointers left to
    chase); the rearrangement pass rewrites ``structure`` in place of the
    record.
    """

    node_id: int
    structure: Pulldown
    level: int
    has_pi: bool


@dataclass
class MappingPlan:
    """The DP's selection, decoupled from circuit materialization.

    Everything downstream of the DP — series-stack rearrangement,
    discharge insertion, circuit assembly — is a deterministic function
    of this plan, which is what lets the flow pipeline run those steps as
    separate passes while reproducing
    :meth:`MappingEngine.run` bit-for-bit.  Orders are load-bearing:
    ``inputs``, ``outputs`` and ``gates`` are recorded in exactly the
    traversal order the one-shot materializer used.
    """

    network_name: str
    config: MapperConfig
    cost_model: CostModel
    #: PI labels in network order
    inputs: List[str] = field(default_factory=list)
    #: (po_label, kind, payload): kind "signal" wires payload verbatim,
    #: kind "const" sets a constant output (payload is the bool)
    outputs: List[tuple] = field(default_factory=list)
    #: selected gates in _require_gate()-traversal order
    gates: List[PlannedGate] = field(default_factory=list)
    #: mapping-node id -> GateRecord for every selected gate
    gate_records: Dict[int, GateRecord] = field(default_factory=dict)
    stats: MappingStats = field(default_factory=MappingStats)
    #: what actually ran the DP ("reference", "soa", or "hybrid")
    kernel: str = "reference"


@dataclass
class MappingResult:
    """Outcome of a mapping run."""

    circuit: DominoCircuit
    config: MapperConfig
    cost_model: CostModel
    #: mapping-node id -> GateRecord for every *materialized* gate
    gate_records: Dict[int, GateRecord] = field(default_factory=dict)
    #: full instrumentation counters for this run
    stats: MappingStats = field(default_factory=MappingStats)
    #: what actually ran the DP ("reference", "soa", or "hybrid")
    kernel: str = "reference"

    @property
    def cost(self) -> CircuitCost:
        return self.circuit.cost()


class MappingEngine:
    """Runs one technology-mapping DP over a unate network.

    Parameters
    ----------
    stats:
        Optional :class:`~repro.pipeline.MappingStats` to accumulate into
        (a fresh one is created otherwise); also exposed on the returned
        :attr:`MappingResult.stats`.
    tracer:
        Optional :class:`~repro.obs.Tracer`.  Kernel batches whose wall
        time reached ``tracer.node_span_threshold_s`` are recorded as
        ``level:<k>`` spans with ``nodes`` and ``candidates`` attributes
        (retroactively — the hot path only pays one comparison per
        batch; the timing itself already exists for the stats).
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`.  Every
        ``tracer.sample_every``-th node (default every 8th; 1 when no
        tracer is attached alongside) observes the tuples-per-node
        histogram; every kernel batch observes the combine-latency
        histogram once.
    """

    def __init__(self, network: LogicNetwork, cost_model: CostModel,
                 config: Optional[MapperConfig] = None, *,
                 stats: Optional[MappingStats] = None,
                 tracer=None, metrics=None):
        if not network.is_mappable():
            raise MappingError(
                f"network {network.name!r} is not mappable: run decompose() "
                "and unate conversion first (2-input AND/OR only)")
        self.network = network
        self.model = cost_model
        self.config = config or MapperConfig()
        self.stats = stats if stats is not None else MappingStats()
        self.tracer = tracer
        self.metrics = metrics
        # obs bindings are resolved once so the per-node path is a None
        # check plus (rarely) a histogram observe — never a dict lookup.
        self._node_span_floor = (tracer.node_span_threshold_s
                                 if tracer is not None else None)
        self._hist_sample_every = (tracer.sample_every
                                   if tracer is not None else 1)
        if metrics is not None:
            from ..obs import (NODE_SECONDS_BUCKETS,
                               TUPLES_PER_NODE_BUCKETS)

            self._h_tuples = metrics.histogram(
                "repro_mapping_tuples_per_node",
                buckets=TUPLES_PER_NODE_BUCKETS,
                help="DP tuples created per node (sampled)")
            self._h_combine = metrics.histogram(
                "repro_mapping_combine_seconds",
                buckets=NODE_SECONDS_BUCKETS,
                help="combine latency per kernel batch")
        else:
            self._h_tuples = None
            self._h_combine = None
        #: every tuple of the run, one row each (DESIGN.md §17); at the
        #: paper's limits a registry circuit keeps 3-25 rows per node
        self.arena = Arena(max(1024, 16 * len(network)))
        self._tables: Dict[int, TupleTable] = {}
        self._gates = _FormedGates(self.arena)
        #: per AND/OR node: 0 for a forced gate boundary, else its fanout
        #: count (at least 1), which amortizes its optional gate's cost
        self._share: Dict[int, int] = {}
        #: per-node fanin views: the arena rows a node's fanouts combine
        self._views: Dict[int, range] = {}
        #: candidates per pair of a series combine: exhaustive ordering
        #: stacks each pair both ways (the max_tuples chunk estimate)
        self._series_orders = (2 if self.config.pbe_aware
                               and self.config.ordering == "exhaustive"
                               else 1)
        #: the selection key prices numpy columns elementwise: the soa
        #: kernel may run, and gate formation is one column reduction
        #: per batch (else the reference kernel and the scalar loop)
        self._key_columns = key_vectorizable(cost_model)
        self._leaf_cost = cost_model.leaf_cost()
        #: the DP combine kernel this run executes (KernelProtocol)
        self.kernel = resolve_kernel(self)

    # ------------------------------------------------------------------
    # combination
    # ------------------------------------------------------------------
    def _combine_into(self, items) -> List[int]:
        """Fill every item's table; return per-item candidate counts.

        ``items`` are ``(table, is_or, view_a, view_b)`` nodes of one
        kernel batch.  Delegates to the run's configured DP kernel (see
        ``mapping/kernel.py``); kept as an engine method so profiles of
        any kernel still show one frame covering the combine step.
        """
        return self.kernel.combine_many(items)

    # ------------------------------------------------------------------
    # the DP, one topological level at a time
    # ------------------------------------------------------------------
    def _add_pi_rows(self) -> None:
        """One ``{1,1}`` row per primary input, with its leaf structure."""
        network = self.network
        pis = network.pis
        arena = self.arena
        base = arena.reserve(len(pis))
        arena.write_rows(
            base,
            [(1, 1, self._leaf_cost, 0, 0, 0, False, False, 1, 0, True)]
            * len(pis),
            [math.nan] * len(pis), [(OP_LEAF, -1, -1)] * len(pis))
        for row, uid in enumerate(pis, base):
            arena.set_structure(row, Leaf(network.node(uid).label,
                                          is_primary=True))
            self._views[uid] = range(row, row + 1)

    def _fanin_view(self, uid: int) -> range:
        """The arena rows node ``uid``'s fanouts combine.

        A primary input's row; a forced gate boundary's gate row; else
        the node's table rows followed by its gate row (the optional
        gate).
        """
        view = self._views.get(uid)
        if view is None:
            node = self.network.node(uid)
            if node.type in (NodeType.AND, NodeType.OR):  # pragma: no cover
                raise MappingError(f"gate for node {uid} not yet formed")
            raise MappingError(
                f"node {node.label} of type {node.type.value} cannot feed "
                "a domino pulldown (constants must be swept before "
                "mapping)")
        return view

    def _guard_nodes(self) -> None:
        limit = self.config.max_nodes
        if limit is not None and self.stats.nodes_processed >= limit:
            raise ResourceLimitError(
                f"mapping {self.network.name!r} exceeded max_nodes={limit} "
                f"({self.stats.tuples_created} tuples so far)",
                stats=self.stats, limit="max_nodes")

    def _guard_tuples(self) -> None:
        limit = self.config.max_tuples
        if limit is not None and self.stats.tuples_created > limit:
            raise ResourceLimitError(
                f"mapping {self.network.name!r} exceeded max_tuples={limit} "
                f"({self.stats.tuples_created} created after "
                f"{self.stats.nodes_processed} nodes)",
                stats=self.stats, limit="max_tuples")

    def _levels(self) -> List[List[int]]:
        """AND/OR nodes by topological depth, topological order within.

        A node's level is one more than its deepest AND/OR fanin's, so
        every node depends only on lower levels.
        """
        network = self.network
        depth: Dict[int, int] = {}
        levels: List[List[int]] = []
        for uid in network.topological_order():
            node = network.node(uid)
            if node.type in (NodeType.AND, NodeType.OR):
                d = max(depth.get(f, 0) for f in node.fanins)
                depth[uid] = d + 1
                if d == len(levels):
                    levels.append([])
                levels[d].append(uid)
        return levels

    def _process_level(self, k: int, uids: List[int]) -> None:
        """Map level ``k``: cut at ``max_nodes``, then its nodes."""
        limit = self.config.max_nodes
        if limit is not None:
            room = limit - self.stats.nodes_processed
            if len(uids) > room:
                self._process_nodes(k, uids[:room])
                self._guard_nodes()
        self._process_nodes(k, uids)

    def _process_nodes(self, k: int, uids: List[int]) -> None:
        """Run ``uids`` through the kernel, one batch at a time."""
        started = time.perf_counter()
        for chunk, items, chunk_started in self._chunks(uids):
            self._run_batch(k, chunk, items, chunk_started)
        self.stats.node_time_s += time.perf_counter() - started

    def _chunks(self, uids: List[int]):
        """Yield ``(uids, items, started)`` kernel batches of ``uids``.

        A batch closes before a node that would take it past
        ``BATCH_PAIR_BUDGET`` candidate pairs or ``BATCH_NODE_CAP``
        nodes, and — with ``max_tuples`` set — once its candidate
        estimate passes the remaining budget, so it overshoots by at
        most one node.  The caller runs each batch before the next is
        cut, so the remaining budget is current.
        """
        stats = self.stats
        network = self.network
        tuple_limit = self.config.max_tuples
        chunk: List[int] = []
        items = []
        pairs = estimate = 0
        started = 0.0
        for uid in uids:
            node = network.node(uid)
            view_a, view_b = [self._fanin_view(f) for f in node.fanins]
            size = len(view_a) * len(view_b)
            if chunk and (pairs + size > BATCH_PAIR_BUDGET
                          or len(chunk) == BATCH_NODE_CAP
                          or (tuple_limit is not None and estimate
                              > tuple_limit - stats.tuples_created)):
                yield chunk, items, started
                chunk, items, pairs, estimate = [], [], 0, 0
            if not chunk:
                started = time.perf_counter()
            is_or = node.type is NodeType.OR
            chunk.append(uid)
            items.append((TupleTable(self.model.tuple_key_metrics,
                                     pareto=self.config.pareto,
                                     arena=self.arena),
                          is_or, view_a, view_b))
            pairs += size
            estimate += size if is_or else size * self._series_orders
        if chunk:
            yield chunk, items, started

    def _run_batch(self, k: int, uids: List[int], items,
                   started: float) -> None:
        """One kernel call for a chunk of a level, then its gates."""
        stats = self.stats
        for _, _, view_a, view_b in items:
            stats.combine_calls += len(view_a) * len(view_b)
        # The kernel timer always runs — one perf_counter pair per
        # batch, the basis for per-kernel throughput comparisons.
        combine_started = time.perf_counter()
        created = self._combine_into(items)
        combine_elapsed = time.perf_counter() - combine_started
        stats.combine_time_s += combine_elapsed
        if self._h_combine is not None:
            self._h_combine.observe(combine_elapsed)
            every = self._hist_sample_every
            base = stats.nodes_processed
            for j, count in enumerate(created):
                if (base + j) % every == 0:
                    self._h_tuples.observe(count)
        done = self._within_tuple_limit(created)
        self._finish_nodes(uids[:done], [item[0] for item in items[:done]])
        if done < len(uids):
            self._guard_tuples()
        ended = time.perf_counter()
        stats.max_node_time_s = max(stats.max_node_time_s, ended - started)
        # Batch spans are thresholded: slow batches (the ones worth
        # seeing in a trace) are recorded retroactively from timing the
        # stats needed anyway; fast ones pay one comparison.
        floor = self._node_span_floor
        if floor is not None and ended - started >= floor:
            self.tracer.record_abs(
                f"level:{k}", started, ended, category="level",
                attributes={"nodes": len(uids),
                            "candidates": sum(created)})

    def _within_tuple_limit(self, created: List[int]) -> int:
        """How many of a batch's nodes finish before ``max_tuples`` trips.

        ``created`` holds the batch's per-node candidate counts, already
        added to ``tuples_created``.  As node by node, the nodes before
        the one whose candidates cross the limit are finished and the
        guard fires after that node, so ``nodes_processed`` in the error
        counts every node before it.  (The chunk cut makes that node
        the batch's last.)
        """
        limit = self.config.max_tuples
        total = self.stats.tuples_created
        if limit is None or total <= limit:
            return len(created)
        total -= sum(created)
        for j, count in enumerate(created):
            total += count
            if total > limit:
                return j
        return len(created)  # pragma: no cover - the sum crossed it

    def _finish_nodes(self, uids: List[int],
                      tables: List[TupleTable]) -> None:
        """Finish a batch's nodes: keep their tables, form their gates.

        The nodes before an empty table (no feasible ``{W,H}`` tuple)
        finish; the empty one raises.
        """
        for j, table in enumerate(tables):
            if table.stop == table.start:
                self._finish_nodes(uids[:j], tables[:j])
                raise MappingError(
                    f"no feasible {{W,H}} tuple for node "
                    f"{self.network.node(uids[j]).label}: "
                    f"limits w_max={self.config.w_max}, "
                    f"h_max={self.config.h_max} are too tight")
        if not uids:
            return
        self._tables.update(zip(uids, tables))
        self.stats.gate_formations += len(uids)
        if not (self._key_columns and self._form_gates_columns(uids,
                                                               tables)):
            self._form_gates_scalar(uids, tables)
        share = self._share
        views = self._views
        for uid, table in zip(uids, tables):
            stop = table.stop
            views[uid] = (range(table.start, stop + 1) if share[uid]
                          else range(stop, stop + 1))
        self.stats.nodes_processed += len(uids)

    # ------------------------------------------------------------------
    # gate formation
    # ------------------------------------------------------------------
    # A node's gate is formed from the first tuple, in slot order, that
    # minimizes ``(tuple_key_metrics(wcost + overhead [+ p_dis * d],
    # levels + 1), p_dis)``, the tables' own selection key.  The overhead
    # is the p-clock, output inverter and keeper, an n-clock foot when the
    # pulldown touches a primary input, and under an ungrounded policy
    # (PBE-aware) a discharge transistor per residual potential point.
    #
    # The formed gate is written to the row after the node's table as a
    # ``{1,1}`` input of the next level.  A forced boundary (multi-fanout
    # or PO driver in duplication-free mode) is *sunk*: the gate exists
    # exactly once regardless of the fanout's choices, so only the driven
    # transistor is charged there.  An optional gate's subtree cost must
    # compete against the node's unformed structures; a shared gate is
    # built once but seen by ``fanout`` consumers, so its cost is
    # amortized (the classical area-flow estimate) — without this the DP
    # systematically over-duplicates shared logic.
    def _form_gates_columns(self, uids: List[int],
                            tables: List[TupleTable]) -> bool:
        """Gate formation as one column reduction over the batch's rows.

        Same arithmetic, association and first-minimum choice as
        :meth:`_form_gates_scalar`.  Returns False (nothing written)
        when a key is NaN, whose scalar comparisons the reduction does
        not reproduce.
        """
        model = self.model
        k = len(tables)
        starts = np.fromiter([t.start for t in tables], np.int64, k)
        stops = np.fromiter([t.stop for t in tables], np.int64, k)
        counts = stops - starts
        rows = ragged_ids(starts, counts)
        block = self.arena.gather(rows)
        has_pi = block[:, HP] != 0.0
        p_dis = block[:, PD]
        wcost = block[:, WC] + np.where(has_pi,
                                        model.gate_overhead_cost(True),
                                        model.gate_overhead_cost(False))
        trans = block[:, TR] + np.where(has_pi, 5.0, 4.0)
        disch = block[:, DI]
        policy = self.config.ground_policy
        if self.config.pbe_aware and policy != "optimistic":
            ungrounded = has_pi if policy == "footless" else True
            wcost = np.where(ungrounded,
                             wcost + p_dis * model.discharge_cost(), wcost)
            disch = np.where(ungrounded, disch + p_dis, disch)
            trans = np.where(ungrounded, trans + p_dis, trans)
        levels = block[:, LV].astype(np.int64) + 1
        key = model.tuple_key_metrics(wcost, levels)
        if np.isnan(key).any():
            return False
        # Per node, the first row of the least (key, p_dis).
        first = np.cumsum(counts) - counts
        least = key == np.repeat(np.minimum.reduceat(key, first), counts)
        least &= p_dis == np.repeat(
            np.minimum.reduceat(np.where(least, p_dis, np.inf), first),
            counts)
        best = np.minimum.reduceat(
            np.where(least, np.arange(rows.size), rows.size), first)
        wcost = wcost[best]
        trans = trans[best]
        disch = disch[best]
        levels = levels[best]
        self._gates.formed.update(zip(uids, zip(
            rows[best].tolist(), wcost.tolist(),
            trans.astype(np.int64).tolist(),
            disch.astype(np.int64).tolist(), levels.tolist(),
            has_pi[best].tolist())))
        share = np.fromiter([self._share[uid] for uid in uids], np.float64, k)
        sunk = share == 0.0
        gate = np.zeros((k, NCOL), dtype=np.float64)
        gate[:, :2] = 1.0
        gate[:, WC] = (np.where(sunk, 0.0, wcost / np.where(sunk, 1.0, share))
                       + self._leaf_cost)
        gate[:, LV] = levels
        gate[:, TR] = np.where(sunk, 0.0, trans) + 1.0
        gate[:, DI] = np.where(sunk, 0.0, disch)
        gate[:, KEY] = np.nan
        prov = np.empty((k, 3), dtype=np.intc)
        prov[:, 0] = OP_GATE
        prov[:, 1] = uids
        prov[:, 2] = -1
        self.arena.write(stops, gate, prov)
        return True

    def _form_gates_scalar(self, uids: List[int],
                           tables: List[TupleTable]) -> None:
        """Gate formation one node and one row at a time."""
        model = self.model
        policy = self.config.ground_policy
        pbe = self.config.pbe_aware
        arena = self.arena
        for uid, table in zip(uids, tables):
            best = None
            best_key = None
            for t in arena.rows(range(table.start, table.stop)):
                overhead = model.gate_overhead_cost(t.has_pi)
                wcost = t.wcost + overhead
                disch = t.disch
                trans = t.trans + (5 if t.has_pi else 4)
                ungrounded = (policy == "pessimistic"
                              or (policy == "footless" and t.has_pi))
                if ungrounded and pbe:
                    wcost += t.p_dis * model.discharge_cost()
                    disch += t.p_dis
                    trans += t.p_dis
                levels = t.levels + 1
                key = (model.tuple_key_metrics(wcost, levels), t.p_dis)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (t.id, wcost, trans, disch, levels, t.has_pi)
            self._gates.formed[uid] = best
            _, wcost, trans, disch, levels, _ = best
            share = self._share[uid]
            arena.write_rows(
                table.stop,
                [(1, 1, (wcost / share if share else 0.0) + self._leaf_cost,
                  levels, 0, 0, False, False, (trans if share else 0) + 1,
                  disch if share else 0, False)],
                [math.nan], [(OP_GATE, uid, -1)])

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------
    def run(self) -> MappingResult:
        """Execute the DP and materialize the mapped circuit.

        Equivalent to the staged path the flow pipeline takes —
        :meth:`run_dp`, :meth:`plan`, :func:`apply_rearrangement`,
        :func:`materialize_plan` — and implemented as exactly that
        sequence so the two cannot diverge.
        """
        self.run_dp()
        plan = self.plan()
        apply_rearrangement(plan)
        return materialize_plan(plan)

    def run_dp(self) -> "MappingEngine":
        """Run the DP over the whole network, level by level (no circuit yet)."""
        network = self.network
        rule = fire("resource.exhaust", network.name, self.tracer,
                    self.metrics)
        if rule is not None:
            raise ResourceLimitError(
                f"injected resource exhaustion mapping {network.name!r}",
                stats=self.stats, limit="injected")
        po_drivers = {network.node(p).fanins[0] for p in network.pos}
        for uid in network.node_ids:
            node = network.node(uid)
            if node.type in (NodeType.AND, NodeType.OR):
                fanout = network.fanout_count(uid)
                forced = (not self.config.duplication
                          and (fanout > 1 or uid in po_drivers))
                self._share[uid] = 0 if forced else max(1, fanout)
        self._add_pi_rows()
        with _gc_paused():
            for k, uids in enumerate(self._levels()):
                self._process_level(k, uids)
        self.kernel.finalize()
        return self

    def run_to_plan(self) -> MappingPlan:
        """:meth:`run_dp` and :meth:`plan` under one collector pause.

        The engine's arena, tables, views and gate records are released
        before the pause closes, so reference counting frees the DP heap
        inside it and the young collection that follows ``gc.enable()``
        walks only what the plan keeps.  The engine cannot plan again.
        """
        with _gc_paused():
            self.run_dp()
            plan = self.plan()
            self._tables = {}
            self._views = {}
            self._gates = {}
            self.arena = None
        return plan

    def plan(self) -> MappingPlan:
        """Select the gates the mapped circuit needs (post-DP).

        Walks the PO drivers' structures, pulling in referenced gates
        depth-first, and records PO bindings and selected gates in the
        exact order the materializer will replay them.
        """
        network = self.network
        plan = MappingPlan(network_name=network.name, config=self.config,
                           cost_model=self.model, stats=self.stats,
                           kernel=self.kernel.active)
        plan.inputs = [network.node(uid).label for uid in network.pis]

        used = plan.gate_records

        for po in network.pos:
            driver = network.node(network.node(po).fanins[0])
            if driver.type is NodeType.PI:
                plan.outputs.append((network.node(po).label, "signal",
                                     driver.label))
            elif driver.is_const:
                plan.outputs.append((network.node(po).label, "const",
                                     driver.type is NodeType.CONST1))
            elif driver.type in (NodeType.AND, NodeType.OR):
                record = _require_gate(driver.uid, self._gates, used)
                plan.outputs.append((network.node(po).label, "signal",
                                     f"g{record.node_id}"))
            else:
                raise MappingError(
                    f"PO {network.node(po).label} driven by unsupported "
                    f"node type {driver.type.value}")

        plan.gates = [PlannedGate(node_id=uid,
                                  structure=record.tuple.structure,
                                  level=record.levels,
                                  has_pi=record.tuple.has_pi)
                      for uid, record in used.items()]
        return plan


def apply_rearrangement(plan: MappingPlan) -> int:
    """RS_Map post-processing: reorder every planned gate's series stacks.

    A no-op (returning 0) unless the plan's config asks for it; otherwise
    returns the number of gates rewritten.
    """
    if not plan.config.rearrange_gates:
        return 0
    for planned in plan.gates:
        planned.structure = rearrange(planned.structure)
    return len(plan.gates)


def materialize_plan(plan: MappingPlan) -> MappingResult:
    """Insert discharge transistors and assemble the mapped circuit.

    Builds each planned gate via :meth:`DominoGate.from_structure` (which
    derives footedness and the discharge points the ground policy
    demands) and wires the circuit in the plan's recorded order.
    """
    circuit = DominoCircuit(plan.network_name)
    for label in plan.inputs:
        circuit.add_input(label)
    for po_label, kind, payload in plan.outputs:
        if kind == "const":
            circuit.set_const_output(po_label, payload)
        else:
            circuit.connect_output(po_label, payload)
    policy = plan.config.ground_policy
    for planned in plan.gates:
        grounded = (policy == "optimistic"
                    or (policy == "footless" and not planned.has_pi))
        gate = DominoGate.from_structure(
            name=f"g{planned.node_id}",
            structure=planned.structure,
            grounded=grounded,
            level=planned.level,
            node_id=planned.node_id,
        )
        circuit.add_gate(gate)
    circuit.recompute_levels()
    return MappingResult(
        circuit=circuit,
        config=plan.config,
        cost_model=plan.cost_model,
        gate_records=dict(plan.gate_records),
        stats=plan.stats,
        kernel=getattr(plan, "kernel", "reference"),
    )


def _require_gate(uid: int, gates: _FormedGates,
                  used: Dict[int, GateRecord]) -> GateRecord:
    """Select gate ``uid`` and, depth-first, every gate its structure reads.

    A module-level function rather than a closure inside
    :meth:`MappingEngine.plan`: a recursive closure references itself
    through its own cell, a cycle that would keep the plan's frame (and
    with it the engine) alive until the cyclic collector runs.
    """
    record = used.get(uid)
    if record is not None:
        return record
    record = used[uid] = gates[uid]
    for ref in _structure_gate_refs(record.tuple.structure):
        _require_gate(ref, gates, used)
    return record


def _structure_gate_refs(structure: Pulldown) -> List[int]:
    return [leaf.source_gate for leaf in structure.leaves()
            if leaf.source_gate is not None]
