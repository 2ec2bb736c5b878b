"""The level-batched DP: one kernel call per chunk of a topological level.

``MappingEngine.run_dp`` hands every AND/OR node of a level to
the kernel at once (``combine_many``), cut into chunks under
``BATCH_PAIR_BUDGET``.  The soa kernel enumerates the chunk's candidate
pairs ragged and row-major, sorts once with the node index as the
primary key and splits the winners back into per-node tables.  Each
test here compares those tables node by node against a per-node
computation, where batching could break them: levels that mix node
types, single-tuple and large views, chunk boundaries, and the
per-item candidate counts every kernel returns.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.bench_suite.generators import random_network  # noqa: E402
from repro.mapping import CostModel, MapperConfig, MappingEngine  # noqa: E402
from repro.mapping import engine as engine_module  # noqa: E402
from repro.mapping.kernel import (AutoKernel, KernelProtocol,  # noqa: E402
                                  ReferenceKernel)
from repro.mapping.soa import SoAKernel  # noqa: E402
from repro.network import LogicNetwork, NodeType  # noqa: E402
from repro.synth import decompose, sweep, unate_with_sweep  # noqa: E402


def _unate(seed: int, n_gates: int = 50):
    net = random_network(f"lvl{seed}", n_pi=14, n_gates=n_gates, n_po=3,
                         seed=seed, locality=10, depth_target=10)
    return unate_with_sweep(sweep(decompose(net)))[0]


def _snapshot(engine):
    return {uid: [(shape, [(key, t.width, t.height, t.wcost, t.trans,
                            t.disch, t.levels, t.p_dis, t.p_tail, t.par_b,
                            t.ends_par, t.has_pi)
                           for key, t in entries])
                  for shape, entries in table.keyed_slots()]
            for uid, table in engine._tables.items()}


def _run(network, config):
    engine = MappingEngine(network, CostModel(), config)
    result = engine.run()
    stats = engine.stats
    return (_snapshot(engine), result.circuit.digest(),
            (stats.tuples_created, stats.tuples_pruned, stats.bound_skips,
             stats.combine_calls, stats.gate_formations)), engine


def _mixed_levels(engine):
    """Levels holding both node types, a one-tuple and a large view."""
    network = engine.network
    mixed = []
    for uids in engine._levels():
        types = {network.node(u).type for u in uids}
        sizes = [len(engine._fanin_view(f))
                 for u in uids for f in network.node(u).fanins]
        if (types == {NodeType.AND, NodeType.OR} and min(sizes) == 1
                and max(sizes) >= 8):
            mixed.append(uids)
    return mixed


@pytest.mark.parametrize("ordering",
                         ["paper", "naive", "adverse", "exhaustive"])
@pytest.mark.parametrize("pbe", [True, False], ids=["pbe", "bulk"])
def test_level_batches_match_the_reference_node_by_node(ordering, pbe):
    mixed = 0
    for seed in (5, 7):
        network = _unate(seed, n_gates=70)
        runs = {}
        for kernel in ("reference", "soa"):
            # duplication off: multi-fanout nodes are forced boundaries,
            # seen by their fanouts as one-tuple views beside the large
            # views of fanout-free nodes
            config = MapperConfig(w_max=6, h_max=9, ordering=ordering,
                                  pbe_aware=pbe, duplication=False,
                                  kernel=kernel)
            runs[kernel], engine = _run(network, config)
        mixed += len(_mixed_levels(engine))
        assert runs["soa"] == runs["reference"], f"seed={seed}"
    assert mixed, "no level mixes the batch's cases"


@pytest.mark.parametrize("budget", [200, 700])
def test_chunk_boundaries_do_not_move_a_table(monkeypatch, budget):
    network = _unate(3, n_gates=60)
    config = MapperConfig(w_max=6, h_max=9, ordering="exhaustive",
                          kernel="reference")
    reference, _ = _run(network, config)
    monkeypatch.setattr(engine_module, "BATCH_PAIR_BUDGET", budget)
    chunked, engine = _run(network, MapperConfig(
        w_max=6, h_max=9, ordering="exhaustive", kernel="soa"))
    levels = engine._levels()
    # some level really was cut into several kernel batches
    assert engine.stats.soa_batches > len(levels)
    assert chunked == reference


def _repeated_pi_cones(k: int) -> LogicNetwork:
    """``AND(OR(a, b), OR(c, d))`` cones of one shape.

    ``k`` cones name one input at two leaves; then four cones with four
    distinct inputs, then three more that repeat an input.
    """
    net = LogicNetwork("reppi")
    outs = []

    def cone(tag, repeat):
        a, b, c = (net.add_pi(f"{tag}_{i}") for i in range(3))
        d = a if repeat else net.add_pi(f"{tag}_3")
        outs.append(net.add_gate(NodeType.AND, [
            net.add_gate(NodeType.OR, [a, b]),
            net.add_gate(NodeType.OR, [c, d])]))

    for i in range(k):
        cone(f"r{i}", repeat=True)
    for i in range(4):
        cone(f"s{i}", repeat=False)
    for i in range(3):
        cone(f"t{i}", repeat=True)
    for j, uid in enumerate(outs):
        net.add_po(uid, f"o{j}")
    return net


def test_a_miss_the_cache_cannot_store_holds_no_node_back(monkeypatch):
    """Every node of a level goes into the level's one kernel batch.

    Same-shape cones, with or without a repeated input, are not split
    into rounds: a level of ``k + 7`` cones is one batch of its OR
    nodes and one of its AND nodes, with the reference tables.
    """
    calls = []
    original = MappingEngine._combine_into

    def combine_into(self, items):
        calls.append(len(items))
        return original(self, items)

    monkeypatch.setattr(MappingEngine, "_combine_into", combine_into)
    k = 40
    network = _repeated_pi_cones(k)
    (tables, digest, _), engine = _run(network, MapperConfig(kernel="soa"))
    assert calls == [2 * (k + 7), k + 7]
    reference, _ = _run(network, MapperConfig(kernel="reference"))
    assert digest == reference[1]
    assert tables == reference[0]


def test_every_builtin_kernel_implements_the_batch_protocol():
    kernels = (ReferenceKernel(), SoAKernel(),
               AutoKernel(ReferenceKernel(), SoAKernel()))
    for kernel in kernels:
        assert isinstance(kernel, KernelProtocol)
        assert not hasattr(kernel, "combine")


@pytest.mark.parametrize("pareto", [False, True], ids=["single", "pareto"])
def test_reference_and_soa_batches_return_the_same_per_item_counts(
        monkeypatch, pareto):
    returned = []
    original = MappingEngine._combine_into

    def combine_into(self, items):
        created = original(self, items)
        returned.append(created)
        return created

    monkeypatch.setattr(MappingEngine, "_combine_into", combine_into)
    network = _unate(11)
    runs = {}
    for kernel in ("reference", "soa"):
        returned.clear()
        config = MapperConfig(w_max=6, h_max=9, ordering="exhaustive",
                              pareto=pareto, kernel=kernel)
        runs[kernel], engine = _run(network, config)
        assert sum(map(sum, returned)) == engine.stats.tuples_created
        assert sum(map(len, returned)) == engine.stats.nodes_processed
        runs[kernel] += (list(returned),)
    # one soa batch per kernel call, in either table mode, and some
    # calls held several nodes
    assert engine.stats.soa_batches == len(returned)
    assert max(map(len, returned)) > 1
    assert runs["reference"] == runs["soa"]

