"""Engine instrumentation: counters surfaced on ``MappingResult.stats``.

A :class:`MappingStats` object rides along one :class:`MappingEngine` run
and counts the events that dominate mapping cost: DP tuples created and
pruned, combine calls, gate formations, and DP wall time.  The counters are plain integers/floats so a stats
object pickles cleanly across the :class:`~repro.pipeline.BatchRunner`
process pool and merges cheaply when aggregating a sweep.

This module intentionally has no intra-package imports: the mapping
engine imports it, and the pipeline package re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict

#: Stats fields that aggregate by max (not sum) when merging runs.
MAX_MERGED_FIELDS = ("max_node_time_s", "soa_max_batch")


@dataclass
class MappingStats:
    """Counters for one mapping run (or an aggregate of several).

    This record is the one source of the DP's work counters.  Reports
    serialize it directly; the metrics registry is a one-way export
    (``MetricsRegistry.record_mapping_stats``), never read back.

    * The dataclass fields are the one counter list: :meth:`merge`,
      :meth:`since`, ``FlowContext.stats_delta`` and the registry
      publish all enumerate them.
    * :attr:`tuples_kept` and :attr:`bound_skips` are derived
      properties that appear only in JSON (:meth:`as_dict`,
      :meth:`summary`).  ``bound_skips`` stays because the staged
      benchmark (``bench/staged.py``) reads it, and so does
      :attr:`cache_hit_rate`, a constant ``0.0`` kept out of JSON.

    Attributes
    ----------
    tuples_created:
        DP candidate sub-solutions produced by the combine step (feasible
        ``{W, H}`` combinations, whether or not a tuple was allocated).
    tuples_pruned:
        Candidates rejected at table insertion (dominated or beaten by
        the incumbent of their ``{W, H}`` slot).  Both kernels price a
        candidate and check it against the slot before anything is
        allocated, so every prune is also a bound skip:
        :attr:`bound_skips` is this count under its older name.
    combine_calls:
        Fanin-pair combinations attempted (each may yield 0-2 tuples).
    gate_formations:
        Formed-gate records built (one per processed node).
    nodes_processed:
        AND/OR nodes the DP visited.
    node_time_s, max_node_time_s:
        Total wall time spent in the DP's level loop, and the slowest
        kernel batch: one chunk of a topological level, timed through
        its remaining fanin views, the kernel call and gate
        formations.  (The DP runs level by level, so there is no
        per-node wall time any more; the field keeps its name.)
    combine_time_s:
        The subset of ``node_time_s`` spent inside the DP kernel's
        combine step — the denominator for kernel tuple-throughput
        comparisons (gate formation and fanin views are excluded
        because they are identical across kernels).
    soa_batches, soa_candidates, soa_max_batch:
        Vectorized-kernel activity: batches the structure-of-arrays
        kernel reduced (one per kernel call: a chunk of a level, in
        every table mode), candidates those batches processed as
        numpy columns, and the largest single batch.  All zero for pure
        reference-kernel runs.
    kernel_fallbacks:
        Engine constructions where ``kernel="soa"`` or ``"auto"`` met a
        cost model that is not vectorizable, so the reference kernel
        ran instead.  ``"auto"`` without numpy also runs the reference
        kernel but is not counted: there it is the only choice.
    auto_routed_soa, auto_routed_reference:
        The ``"auto"`` kernel's routing decisions, in nodes: nodes of
        batches sent to the soa kernel (at least
        :data:`~repro.mapping.kernel.AUTO_THRESHOLD` candidate pairs
        per batch) versus kept on the reference kernel.  Both zero
        unless the hybrid ran.
    """

    tuples_created: int = 0
    tuples_pruned: int = 0
    combine_calls: int = 0
    gate_formations: int = 0
    nodes_processed: int = 0
    node_time_s: float = 0.0
    max_node_time_s: float = 0.0
    combine_time_s: float = 0.0
    soa_batches: int = 0
    soa_candidates: int = 0
    soa_max_batch: int = 0
    kernel_fallbacks: int = 0
    auto_routed_soa: int = 0
    auto_routed_reference: int = 0

    @property
    def tuples_kept(self) -> int:
        return self.tuples_created - self.tuples_pruned

    @property
    def bound_skips(self) -> int:
        """Candidates rejected before allocation: every prune."""
        return self.tuples_pruned

    @property
    def cache_hit_rate(self) -> float:
        """Always 0.0: the DP has no cache (``bench/staged.py`` reads it)."""
        return 0.0

    def merge(self, other: "MappingStats") -> "MappingStats":
        """Accumulate ``other`` into self (returns self for chaining)."""
        for f in fields(self):
            if f.name in MAX_MERGED_FIELDS:
                setattr(self, f.name, max(getattr(self, f.name),
                                          getattr(other, f.name)))
            else:
                setattr(self, f.name,
                        getattr(self, f.name) + getattr(other, f.name))
        return self

    def since(self, before: "MappingStats") -> "MappingStats":
        """The counters added since ``before``, an earlier copy of self.

        The inverse of :meth:`merge` for the summed fields; the
        max-merged fields keep their current value.
        """
        added = replace(self)
        for f in fields(self):
            if f.name not in MAX_MERGED_FIELDS:
                setattr(added, f.name,
                        getattr(self, f.name) - getattr(before, f.name))
        return added

    def as_dict(self) -> Dict[str, float]:
        """All counters plus every derived property.

        ``tuples_kept`` and ``bound_skips`` are included so JSON
        consumers (``map``/``batch`` reports) never have to recompute
        them.
        """
        data: Dict[str, float] = {f.name: getattr(self, f.name)
                                  for f in fields(self)}
        data["tuples_kept"] = self.tuples_kept
        data["bound_skips"] = self.bound_skips
        return data

    def summary(self) -> str:
        """One-line human-readable rendering (CLI output)."""
        parts = [
            f"tuples={self.tuples_created}",
            f"pruned={self.tuples_pruned}",
            f"combines={self.combine_calls}",
            f"gates={self.gate_formations}",
        ]
        if self.bound_skips:
            parts.insert(2, f"bound_skips={self.bound_skips}")
        if self.soa_batches:
            parts.append(f"soa={self.soa_batches}x"
                         f"/{self.soa_candidates}")
        if self.kernel_fallbacks:
            parts.append(f"kernel_fallbacks={self.kernel_fallbacks}")
        if self.auto_routed_soa or self.auto_routed_reference:
            parts.append(f"auto_routed=soa:{self.auto_routed_soa}"
                         f"/ref:{self.auto_routed_reference}")
        parts.append(f"dp_time={self.node_time_s:.3f}s")
        return " ".join(parts)
