#!/usr/bin/env python
"""The paper's section VII future-work ideas, implemented.

1. **Input-aware discharge pruning** — the mapper "assumes the worst case
   scenario"; this pass proves, per discharge point, whether any input
   assignment can actually arm the parasitic bipolar device, and removes
   the transistor when none can (complementary select phases in mux-style
   logic are the classic impossible case).
2. **Output phase assignment** ([22]) — choosing per primary output which
   phase to realize, sharing logic cones instead of duplicating them,
   at the price of a static inverter at the output boundary.
3. **Footless-aware grounding** — treating only truly grounded (footless)
   stack bottoms as protection, with footed gates discharging their
   residual points.

Run:  python examples/future_work.py [circuit]
"""

import sys

from repro.bench_suite import load_circuit
from repro.mapping import MapperConfig, domino_map, soi_domino_map
from repro.pbe import prune_discharges, random_stress
from repro.synth import (
    decompose,
    sweep,
    unate_with_phase_assignment,
    unate_with_sweep,
)


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "cm150"
    network = load_circuit(name)
    print(f"circuit: {name}\n")

    # --- 1. input-aware discharge pruning -----------------------------
    print("1. input-aware discharge pruning (section VII)")
    for label, flow in (("bulk baseline", domino_map),
                        ("SOI_Domino_Map", soi_domino_map)):
        circuit = flow(network).circuit
        pruned, report = prune_discharges(circuit)
        stress = random_stress(pruned, cycles=200, seed=0)
        print(f"   {label:16s}: {report}; stress: "
              f"{'misfire-free' if stress.pbe_free else str(stress)}")

    # --- 2. output phase assignment ------------------------------------
    print("\n2. output phase assignment ([22])")
    cleaned = sweep(decompose(network))
    _, plain = unate_with_sweep(cleaned)
    assignment = unate_with_phase_assignment(cleaned)
    print(f"   plain bubble pushing : {plain.unate_gates} unate gates")
    print(f"   phase assignment     : {assignment.report.unate_gates} unate "
          f"gates + {assignment.boundary_inverters} boundary inverters "
          f"({sorted(assignment.inverted_outputs) or 'no'} outputs inverted)")

    # --- 3. footless-aware grounding -----------------------------------
    print("\n3. grounding-policy sweep (SOI mapper)")
    for policy in ("optimistic", "footless", "pessimistic"):
        config = MapperConfig(ground_policy=policy)
        cost = soi_domino_map(network, config=config).cost
        print(f"   {policy:12s}: {cost}")


if __name__ == "__main__":
    main()
