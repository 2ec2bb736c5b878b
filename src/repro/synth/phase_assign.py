"""Output phase assignment for unate conversion (Puri et al., ICCAD'96).

The paper's section IV notes that the minimum-duplication binate-to-unate
conversion of [22] chooses the *phase* in which each primary output is
realized ("needed logic inversions must be performed at either primary
inputs and/or primary outputs"), but uses plain bubble pushing "to avoid
the complexity of [22]".  This module implements the optimization the
paper skipped, as a greedy version of [22]: outputs are processed in
order of cone size, and each is realized in whichever phase needs fewer
*new* gates given everything already materialized for earlier outputs —
an output realized in the negative phase simply gets a static inverter at
the boundary, which domino methodology allows.

The result is returned together with the set of inverted outputs so the
simulators and mappers can account for the boundary inverters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Set, Tuple

from ..conventions import NEG_SUFFIX
from ..errors import UnateConversionError
from ..network import LogicNetwork, NodeType
from .sweep import sweep
from .unate import UnateReport, _andor_count, _andor_depth, _realize_iterative


@dataclass(frozen=True)
class PhaseAssignment:
    """Result of a phase-assigned unate conversion."""

    network: LogicNetwork
    report: UnateReport
    inverted_outputs: FrozenSet[str]  #: POs realized in the negative phase

    @property
    def boundary_inverters(self) -> int:
        """Static inverters required at the primary outputs."""
        return len(self.inverted_outputs)


def _phase_cost(network: LogicNetwork, root: int, phase: bool,
                realized: Set[Tuple[int, bool]]) -> int:
    """Count the (node, phase) gate pairs a realization would add."""
    cost = 0
    seen: Set[Tuple[int, bool]] = set()
    stack = [(root, phase)]
    while stack:
        uid, ph = stack.pop()
        key = (uid, ph)
        if key in seen or key in realized:
            continue
        seen.add(key)
        node = network.node(uid)
        if node.type is NodeType.INV:
            stack.append((node.fanins[0], not ph))
        elif node.type in (NodeType.AND, NodeType.OR):
            cost += 1
            stack.extend((f, ph) for f in node.fanins)
        elif node.type is NodeType.PI or node.is_const:
            continue
        else:
            raise UnateConversionError(
                f"node {node.label} has type {node.type.value}; "
                "run decompose() first")
    return cost


def unate_with_phase_assignment(network: LogicNetwork,
                                neg_suffix: str = NEG_SUFFIX,
                                apply_sweep: bool = True) -> PhaseAssignment:
    """Unate conversion with per-output phase selection.

    Parameters
    ----------
    network:
        A decomposed AND/OR/INV network (see :func:`repro.synth.decompose`).
    apply_sweep:
        Clean the converted network before returning (recommended; the
        report's gate counts refer to the returned network either way).

    Returns
    -------
    PhaseAssignment
        The unate network (POs carry their original names; those listed in
        ``inverted_outputs`` realize the *complement* and need a static
        inverter at the boundary) plus conversion statistics.
    """
    out = LogicNetwork(network.name)
    memo: Dict[Tuple[int, bool], int] = {}
    pos_pi: Dict[int, int] = {}
    neg_pi: Dict[int, int] = {}
    phases_used: Dict[int, set] = {}
    for uid in network.pis:
        pos_pi[uid] = out.add_pi(network.node(uid).label)

    # Large cones first: they seed the memo table that later (smaller)
    # outputs get to share, which is where the greedy choice pays off.
    drivers = [(network.node(po).fanins[0], network.node(po).label)
               for po in network.pos]
    order = sorted(range(len(drivers)),
                   key=lambda i: -len(network.transitive_fanin(drivers[i][0])))

    inverted: Set[str] = set()
    realized_phase: Dict[int, bool] = {}
    for index in order:
        driver, _label = drivers[index]
        pos_cost = _phase_cost(network, driver, True, set(memo))
        neg_cost = _phase_cost(network, driver, False, set(memo))
        # Prefer the positive phase on ties: it avoids the boundary
        # inverter's two transistors and delay.
        phase = True if pos_cost <= neg_cost else False
        realized_phase[index] = phase
        _realize_iterative(network, out, driver, phase, memo, pos_pi,
                           neg_pi, phases_used, neg_suffix)

    # POs are added in the original order to keep the interface stable.
    for index, (driver, label) in enumerate(drivers):
        phase = realized_phase[index]
        out.add_po(memo[(driver, phase)], label)
        if not phase:
            inverted.add(label)

    if apply_sweep:
        out = sweep(out)

    duplicated = sum(1 for p in phases_used.values() if len(p) == 2)
    report = UnateReport(
        original_gates=_andor_count(network),
        unate_gates=_andor_count(out),
        duplicated_nodes=duplicated,
        negated_pis=len(neg_pi),
        original_depth=_andor_depth(network),
        unate_depth=_andor_depth(out),
    )
    return PhaseAssignment(network=out, report=report,
                           inverted_outputs=frozenset(inverted))


def check_phase_assignment(original: LogicNetwork,
                           assignment: PhaseAssignment,
                           vectors: int = 512, seed: int = 0,
                           neg_suffix: str = NEG_SUFFIX):
    """Verify a phase-assigned network against the original.

    Outputs in ``assignment.inverted_outputs`` are compared against the
    *complement* of the original output.  Returns ``None`` on success or
    a mismatch description.
    """
    import random

    from ..sim.logic_sim import evaluate_vectors

    unate = assignment.network
    orig_pis = {original.node(u).label: u for u in original.pis}
    orig_pos = {original.node(u).label: u for u in original.pos}
    unate_pos = {unate.node(u).label: u for u in unate.pos}
    if set(orig_pos) != set(unate_pos):
        return f"PO sets differ: {sorted(orig_pos)} vs {sorted(unate_pos)}"

    rng = random.Random(seed)
    words = {name: rng.getrandbits(vectors) for name in orig_pis}
    mask = (1 << vectors) - 1
    unate_words = {}
    for uid in unate.pis:
        label = unate.node(uid).label
        if label in orig_pis:
            unate_words[uid] = words[label]
        elif (label.endswith(neg_suffix)
              and label[: -len(neg_suffix)] in orig_pis):
            unate_words[uid] = words[label[: -len(neg_suffix)]] ^ mask
        else:
            return f"unexplained PI {label!r}"
    out_a = evaluate_vectors(
        original, {orig_pis[n]: w for n, w in words.items()}, vectors)
    out_b = evaluate_vectors(unate, unate_words, vectors)
    for name in orig_pos:
        expected = out_a[orig_pos[name]]
        got = out_b[unate_pos[name]]
        if name in assignment.inverted_outputs:
            got ^= mask
        if expected != got:
            return f"output {name} differs"
    return None
