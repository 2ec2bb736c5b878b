#!/usr/bin/env python
"""Reproduce the paper's Table II on the benchmark suite.

Maps every circuit of the suite with the bulk baseline and with
SOI_Domino_Map, prints the per-circuit comparison alongside the numbers
reported in the paper plus per-circuit mapper instrumentation (taken
straight from ``FlowResult.stats`` / ``FlowResult.elapsed_s`` — no
hand-rolled timing), and verifies one mapped circuit dynamically with
the PBE stress simulator.

Run:  python examples/benchmark_sweep.py            (full suite, ~1 min)
      python examples/benchmark_sweep.py cm150 mux  (chosen circuits)
"""

import sys

from repro import soi_domino_map
from repro.bench_suite import circuit_names, load_circuit
from repro.evaluation import run_table2
from repro.pbe import random_stress


def main() -> None:
    circuits = sys.argv[1:] or None
    result = run_table2(circuits=circuits)
    print(result.text)

    # Per-circuit instrumentation: FlowResult carries the DP counters and
    # the wall time.
    print("\nSOI mapper instrumentation:")
    for name in circuits or circuit_names()[:8]:
        flow = soi_domino_map(load_circuit(name))
        print(f"  {name:8s} {flow.elapsed_s:7.3f}s  {flow.stats.summary()}")

    # Dynamic spot check: stress one SOI-mapped circuit with held random
    # vectors — the floating-body simulator must observe zero parasitic
    # bipolar misfires.
    probe = (circuits or ["9symml"])[0]
    circuit = soi_domino_map(load_circuit(probe)).circuit
    report = random_stress(circuit, cycles=200, seed=0)
    print(f"\nPBE stress on SOI-mapped {probe}: {report}")
    assert report.pbe_free, "SOI-mapped circuit must be PBE-free"


if __name__ == "__main__":
    main()
