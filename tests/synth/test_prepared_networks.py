"""Pinned output of the synthesis front end for every registry circuit.

For each circuit the front end (``decompose -> sweep -> unate_with_sweep``,
the recipe of :func:`repro.mapping.prepare_network`) is run and the
prepared network is hashed: every node's ``(uid, type, fanins, name)``,
the PI and PO id lists, ``topological_order()`` and the ``UnateReport``
fields.  The DP's tie-breaks and every netlist digest depend on these
ids, so a front-end change that renumbers, reorders or renames anything
fails here before it moves a mapped digest.

Regenerate ``tests/data/prepared_networks.json`` (only when an output
change is intended) with::

    PYTHONPATH=src python -m tests.synth.test_prepared_networks
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.bench_suite import circuit_names, load_circuit
from repro.synth import decompose, sweep, unate_with_sweep

DATA = Path(__file__).resolve().parents[1] / "data" / "prepared_networks.json"


def fingerprint(network, report) -> str:
    """sha256 over a prepared network and its unate report."""
    payload = {
        "nodes": [[n.uid, n.type.value, list(n.fanins), n.name]
                  for n in network],
        "pis": list(network.pis),
        "pos": list(network.pos),
        "topological_order": network.topological_order(),
        "report": dataclasses.asdict(report),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def prepared_digest(name: str) -> str:
    """The :func:`fingerprint` of ``name``'s front-end output."""
    return fingerprint(
        *unate_with_sweep(sweep(decompose(load_circuit(name)))))


def combined_digest(digests) -> str:
    """One sha256 over per-circuit digests, in registry order."""
    return hashlib.sha256("".join(digests).encode()).hexdigest()


@pytest.fixture(scope="module")
def pinned():
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


def test_pins_cover_the_registry_in_order(pinned):
    assert list(pinned["circuits"]) == circuit_names()
    assert combined_digest(pinned["circuits"].values()) == pinned["combined"]


@pytest.mark.parametrize("name", circuit_names())
def test_prepared_network_matches_pin(pinned, name):
    assert prepared_digest(name) == pinned["circuits"][name]


if __name__ == "__main__":
    circuits = {name: prepared_digest(name) for name in circuit_names()}
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump({"combined": combined_digest(circuits.values()),
                   "circuits": circuits}, fh, indent=2)
        fh.write("\n")
