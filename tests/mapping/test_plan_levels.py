"""The DP's gate levels survive materialization unchanged.

Every :class:`~repro.mapping.engine.PlannedGate` carries the domino
level the DP computed for it (its ``GateRecord.levels``).
:func:`~repro.mapping.materialize_plan` builds the circuit from the plan
and then re-derives each gate's level from the wiring with
``DominoCircuit.recompute_levels()``.  These tests pin that the two
agree gate for gate, so the recomputation never changes a level.

The default run covers a few registry circuits under each flow; set
``REPRO_EQUIV_FULL=1`` to cover the whole registry.
"""

from __future__ import annotations

import os

import pytest

from repro.bench_suite import circuit_names, load_circuit
from repro.mapping import (CostModel, MappingEngine, apply_rearrangement,
                           flow_config, materialize_plan, prepare_network)

FLOWS = ("domino", "rs", "soi")
CIRCUITS = (circuit_names() if os.environ.get("REPRO_EQUIV_FULL") == "1"
            else ("cm150", "mux", "z4ml", "count"))


@pytest.fixture(scope="module")
def unate_networks():
    memo = {}

    def get(name):
        if name not in memo:
            memo[name] = prepare_network(load_circuit(name))[0]
        return memo[name]
    return get


@pytest.mark.parametrize("flow", FLOWS)
@pytest.mark.parametrize("name", CIRCUITS)
def test_materialized_gates_keep_their_planned_level(name, flow,
                                                     unate_networks):
    engine = MappingEngine(unate_networks(name), CostModel(),
                           flow_config(flow))
    plan = engine.run_to_plan()
    apply_rearrangement(plan)
    planned = {f"g{gate.node_id}": gate.level for gate in plan.gates}
    circuit = materialize_plan(plan).circuit
    assert planned
    assert {gate.name: gate.level for gate in circuit.gates} == planned
    circuit.recompute_levels()
    assert {gate.name: gate.level for gate in circuit.gates} == planned
