"""Lazy-vs-eager equivalence: the deferred-structure kernel is bit-exact.

The seed revision built every candidate's pulldown tree eagerly inside
the DP inner loop; the current kernel keeps int32 provenance per arena
row and rebuilds structures only for the selected gates (see
``mapping/tuples.py``).  These tests pin
the seed's observable outputs — sha256 netlist digests for the whole
benchmark suite across flows, orderings, and table modes
(``tests/data/seed_digests.json``) and the eager-path gate structures on
small samples (``tests/data/seed_structures.json``) — and assert the
lazy kernel reproduces them bit-for-bit.

The default run covers the small circuits over every flow/ordering/mode
combination plus mid-size spot checks; set ``REPRO_EQUIV_FULL=1`` to
sweep all 28 circuits (the full pinned digest set, a few minutes).

Every digest check runs under each available DP kernel (reference and,
when numpy is importable, soa) against the *same* pinned seed digests:
the structure-of-arrays kernel must reproduce the seed bit-for-bit too.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro import network_from_expression
from repro.bench_suite import load_circuit
from repro.io import circuit_netlist
from repro.mapping import MapperConfig, map_network

DATA = Path(__file__).resolve().parents[1] / "data"

with open(DATA / "seed_digests.json", encoding="utf-8") as _fh:
    SEED_DIGESTS = json.load(_fh)
with open(DATA / "seed_structures.json", encoding="utf-8") as _fh:
    SEED_STRUCTURES = json.load(_fh)

#: flow -> series orderings the seed sweep pinned (flow presets force
#: the adverse rule for the plain-domino and resistance-scaled flows).
FLOW_ORDERINGS = {
    "soi": ("paper", "exhaustive"),
    "domino": ("adverse",),
    "rs": ("adverse",),
}
MODES = ("single", "pareto")

SMALL_CIRCUITS = ("cm150", "mux", "z4ml", "cordic", "count", "9symml")
SPOT_CIRCUITS = ("f51m", "c432", "c880")

try:
    import numpy  # noqa: F401
    KERNELS_UNDER_TEST = ("reference", "soa")
except ImportError:  # pragma: no cover - numpy is installed in CI
    KERNELS_UNDER_TEST = ("reference",)


def _combos(circuits):
    for name in circuits:
        for flow, orderings in FLOW_ORDERINGS.items():
            for ordering in orderings:
                for mode in MODES:
                    for kernel in KERNELS_UNDER_TEST:
                        yield name, flow, ordering, mode, kernel


def _digest(network, flow, ordering, mode, kernel="reference"):
    config = MapperConfig(ordering=ordering, pareto=(mode == "pareto"),
                          kernel=kernel)
    result = map_network(network, flow=flow, config=config)
    return hashlib.sha256(
        circuit_netlist(result.circuit).encode()).hexdigest()


@pytest.mark.parametrize("name,flow,ordering,mode,kernel",
                         list(_combos(SMALL_CIRCUITS)))
def test_digest_matches_seed_small(name, flow, ordering, mode, kernel):
    digest = _digest(load_circuit(name), flow, ordering, mode, kernel)
    assert digest == SEED_DIGESTS[f"{name}/{flow}/{ordering}/{mode}"]


@pytest.mark.parametrize("name", SPOT_CIRCUITS)
@pytest.mark.parametrize("flow", tuple(FLOW_ORDERINGS))
@pytest.mark.parametrize("kernel", KERNELS_UNDER_TEST)
def test_digest_matches_seed_spot(name, flow, kernel):
    """Mid-size circuits at each flow's default configuration."""
    ordering = FLOW_ORDERINGS[flow][0]
    digest = _digest(load_circuit(name), flow, ordering, "single", kernel)
    assert digest == SEED_DIGESTS[f"{name}/{flow}/{ordering}/single"]


@pytest.mark.skipif(os.environ.get("REPRO_EQUIV_FULL") != "1",
                    reason="full 28-circuit sweep; set REPRO_EQUIV_FULL=1")
@pytest.mark.parametrize("kernel", KERNELS_UNDER_TEST)
def test_digest_matches_seed_full_suite(kernel):
    """Every pinned digest — the whole suite x flows x orderings x modes,
    once per kernel: the dual-kernel digest gate CI runs weekly and on
    every pull request that touches the mapper."""
    mismatches = []
    for key, expected in sorted(SEED_DIGESTS.items()):
        name, flow, ordering, mode = key.split("/")
        digest = _digest(load_circuit(name), flow, ordering, mode, kernel)
        if digest != expected:
            mismatches.append(key)
    assert mismatches == []


@pytest.mark.parametrize("key", sorted(SEED_STRUCTURES))
def test_structures_match_seed(key):
    """Reconstructed gate structures equal the seed's eager ones."""
    label, flow, mode = key.rsplit("/", 2)
    if label.startswith("expr:"):
        network = network_from_expression(label[len("expr:"):])
    else:
        network = load_circuit(label)
    config = MapperConfig(pareto=(mode == "pareto"))
    result = map_network(network, flow=flow, config=config)
    got = {g.name: str(g.structure) for g in result.circuit.gates}
    assert got == SEED_STRUCTURES[key]
