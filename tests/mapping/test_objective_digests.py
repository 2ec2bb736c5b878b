"""Pinned output of the clock-weighted and depth objectives.

``tests/data/seed_digests.json`` pins the area objective (Tables I-II).
This file pins the other two objectives the paper evaluates, Table III's
clock-weighted area (``ClockWeightedCost(2.0)``) and Table IV's depth
(``DepthCost()``), for every registry circuit under the plain-domino
and SOI flows, in single and pareto table mode: the sha256 netlist
digest and the ``tuples_created``/``tuples_pruned`` counters.  The
selection key these objectives price decides both the ``{W,H}`` slot
winners and the tuple each gate is formed from, so a change to how
either is priced fails here.

Each check runs under the reference kernel and, when numpy is
importable, the soa kernel, against the same pins.  The default run
covers the small circuits; set ``REPRO_EQUIV_FULL=1`` to check all 28.

Regenerate ``tests/data/objective_digests.json`` (only when an output
change is intended) with::

    PYTHONPATH=src python -m tests.mapping.test_objective_digests
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.bench_suite import circuit_names, load_circuit
from repro.io import circuit_netlist
from repro.mapping import MapperConfig, map_network
from repro.mapping.cost import ClockWeightedCost, DepthCost

DATA = Path(__file__).resolve().parents[1] / "data" / "objective_digests.json"

#: objective label -> the cost model it maps under
OBJECTIVES = {
    "clock2": lambda: ClockWeightedCost(2.0),
    "depth": DepthCost,
}
FLOWS = ("domino", "soi")
MODES = ("single", "pareto")

SMALL_CIRCUITS = ("cm150", "mux", "z4ml", "cordic", "count", "9symml")

try:
    import numpy  # noqa: F401
    KERNELS_UNDER_TEST = ("reference", "soa")
except ImportError:  # pragma: no cover - numpy is installed in CI
    KERNELS_UNDER_TEST = ("reference",)


def _keys(circuits):
    return [f"{name}/{objective}/{flow}/{mode}"
            for name in circuits for objective in OBJECTIVES
            for flow in FLOWS for mode in MODES]


def pinned_run(key: str, kernel: str = "reference") -> dict:
    """Digest and DP counters of the run ``key`` names."""
    name, objective, flow, mode = key.split("/")
    config = MapperConfig(pareto=(mode == "pareto"), kernel=kernel)
    result = map_network(load_circuit(name), flow=flow, config=config,
                         cost_model=OBJECTIVES[objective]())
    return {
        "digest": hashlib.sha256(
            circuit_netlist(result.circuit).encode()).hexdigest(),
        "tuples_created": result.stats.tuples_created,
        "tuples_pruned": result.stats.tuples_pruned,
    }


@pytest.fixture(scope="module")
def pinned():
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


def test_pins_cover_the_registry(pinned):
    assert sorted(pinned) == sorted(_keys(circuit_names()))


@pytest.mark.parametrize("kernel", KERNELS_UNDER_TEST)
@pytest.mark.parametrize("key", _keys(SMALL_CIRCUITS))
def test_objective_matches_pin_small(pinned, key, kernel):
    assert pinned_run(key, kernel) == pinned[key]


@pytest.mark.skipif(os.environ.get("REPRO_EQUIV_FULL") != "1",
                    reason="full 28-circuit sweep; set REPRO_EQUIV_FULL=1")
@pytest.mark.parametrize("kernel", KERNELS_UNDER_TEST)
def test_objective_matches_pin_full_suite(pinned, kernel):
    mismatches = [key for key in _keys(circuit_names())
                  if pinned_run(key, kernel) != pinned[key]]
    assert mismatches == []


if __name__ == "__main__":
    pins = {key: pinned_run(key) for key in _keys(circuit_names())}
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
