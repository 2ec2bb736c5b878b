"""Bubble-pushing unate conversion (paper section IV).

Domino logic is non-inverting, so the mapper's input must be a *unate*
network: 2-input AND/OR gates only, with all inversions absorbed at the
primary inputs.  Following the paper, "we simply attempt to push inverters
as far back as possible (i.e., towards the primary inputs), by applying
DeMorgan's laws where necessary.  If inverters cannot be pushed through a
gate, e.g., when both positive and negative phases of a signal are
required, logic duplication is necessary."

The implementation computes, for every (node, phase) pair that is actually
needed, an equivalent node in the output network:

* PI, positive phase -> the PI itself;
* PI, negative phase -> a complementary PI named ``<name><suffix>``
  (inversions at primary inputs are free in domino methodology: both
  register phases are available);
* AND/OR, negative phase -> the DeMorgan dual gate over the fanins'
  negative phases;
* INV -> the fanin in the opposite phase.

Nodes whose both phases are required are therefore duplicated, exactly the
"logic duplication" the paper describes.  The conversion at most doubles
the gate count and never increases the number of logic levels.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import UnateConversionError
from ..network import LogicNetwork, NodeType
from ..sim.logic_sim import evaluate_vectors
from .sweep import sweep

from ..conventions import NEG_SUFFIX

PI, INV, AND, OR = NodeType.PI, NodeType.INV, NodeType.AND, NodeType.OR
CONST0, CONST1 = NodeType.CONST0, NodeType.CONST1


@dataclass(frozen=True)
class UnateReport:
    """Statistics of one unate conversion."""

    original_gates: int        #: AND/OR gates before conversion (INVs excluded)
    unate_gates: int           #: AND/OR gates after conversion
    duplicated_nodes: int      #: original AND/OR nodes materialized in both phases
    negated_pis: int           #: complementary-phase PIs created
    original_depth: int
    unate_depth: int

    @property
    def duplication_ratio(self) -> float:
        """Gate growth factor caused by duplication (>= 1.0, paper: <= 2.0)."""
        if self.original_gates == 0:
            return 1.0
        return self.unate_gates / self.original_gates


def unate_convert(network: LogicNetwork,
                  neg_suffix: str = NEG_SUFFIX) -> Tuple[LogicNetwork, UnateReport]:
    """Convert a decomposed AND/OR/INV network into a unate AND/OR network.

    Parameters
    ----------
    network:
        A decomposed network (2-input AND/OR + INV; see
        :func:`repro.synth.decompose`).  Constants must have been swept out
        of gate fanins (:func:`repro.synth.sweep`), though constant POs are
        tolerated.
    neg_suffix:
        Suffix for complementary-phase PI names.

    Returns
    -------
    (unate_network, report)
        ``unate_network`` contains only PI/PO and 2-input AND/OR nodes and
        satisfies ``unate_network.is_mappable()``.
    """
    out, report = _convert(network, neg_suffix)
    return out, _with_depth(report, out)


def _convert(network: LogicNetwork,
             neg_suffix: str) -> Tuple[LogicNetwork, UnateReport]:
    """:func:`unate_convert` with ``unate_depth`` left at 0.

    The depth is a full network walk that only the caller reporting it
    should pay for: :func:`unate_with_sweep` reports the swept
    network's depth instead.
    """
    out = LogicNetwork(network.name)
    # (original uid, phase) -> uid in out.  phase True = positive.
    memo: Dict[Tuple[int, bool], int] = {}
    pos_pi: Dict[int, int] = {}
    neg_pi: Dict[int, int] = {}
    phases_used: Dict[int, set] = {}

    # PIs are created eagerly in original order so the positive-phase
    # interface is stable regardless of which phases the logic needs.
    for uid in network.pis:
        pos_pi[uid] = out.add_pi(network.node(uid).label)

    # The phase realization is iterative (explicit worklist) because the
    # recursion depth would exceed Python's limit on deep benchmark circuits.
    for po in network.pos:
        po_node = network.node(po)
        driver = po_node.fanins[0]
        _realize_iterative(network, out, driver, True,
                           memo, pos_pi, neg_pi, phases_used, neg_suffix)
        out.add_po(memo[(driver, True)], po_node.label)

    duplicated = sum(1 for phases in phases_used.values() if len(phases) == 2)
    report = UnateReport(
        original_gates=_andor_count(network),
        unate_gates=_andor_count(out),
        duplicated_nodes=duplicated,
        negated_pis=len(neg_pi),
        original_depth=_andor_depth(network),
        unate_depth=0,
    )
    return out, report


def _with_depth(report: UnateReport, network: LogicNetwork) -> UnateReport:
    return dataclasses.replace(report, unate_depth=_andor_depth(network))


def _andor_count(network: LogicNetwork) -> int:
    """Number of AND/OR gates (the report's gate counts exclude INVs)."""
    return sum(1 for n in network if n.type is AND or n.type is OR)


def _realize_iterative(network, out, root, root_phase, memo, pos_pi, neg_pi,
                       phases_used, neg_suffix):
    """Realize ``(root, root_phase)`` in ``out`` with an explicit worklist.

    Every (node, phase) pair the root needs is created in ``out`` once,
    fanins first, and recorded in ``memo``; a negative-phase AND/OR
    becomes its DeMorgan dual over the fanins' negative phases.
    """
    nodes = network._nodes
    add_and, add_or = out.add_and, out.add_or
    stack = [(root, root_phase, False)]
    pop, push = stack.pop, stack.append
    while stack:
        uid, phase, expanded = pop()
        key = (uid, phase)
        if key in memo:
            continue
        node = nodes[uid]
        t = node.type
        if t is AND or t is OR:
            fanins = node.fanins
            if expanded or all((f, phase) in memo for f in fanins):
                phases_used.setdefault(uid, set()).add(phase)
                # AND in the positive phase or OR in the negative one.
                add = add_and if (t is AND) == phase else add_or
                memo[key] = add(*[memo[(f, phase)] for f in fanins])
            else:
                push((uid, phase, True))
                for f in fanins:
                    if (f, phase) not in memo:
                        push((f, phase, False))
            continue
        if t is INV:
            child = (node.fanins[0], not phase)
            if child in memo:
                memo[key] = memo[child]
            else:
                push((uid, phase, False))
                push((node.fanins[0], not phase, False))
            continue
        if t is PI:
            if phase:
                memo[key] = pos_pi[uid]
            else:
                if uid not in neg_pi:
                    neg_pi[uid] = out.add_pi(node.label + neg_suffix)
                memo[key] = neg_pi[uid]
            continue
        if t is CONST0 or t is CONST1:
            memo[key] = out.add_const((t is CONST1) == phase)
            continue
        raise UnateConversionError(
            f"node {node.label} has type {t.value}; run decompose() first")


def _andor_depth(network: LogicNetwork) -> int:
    """Depth counting only AND/OR gates (inverters are free in this metric)."""
    level: Dict[int, int] = {}
    nodes = network._nodes
    for uid in network.topological_order():
        node = nodes[uid]
        fanins = node.fanins
        if not fanins:
            level[uid] = 0
        else:
            base = max([level[f] for f in fanins])
            t = node.type
            level[uid] = base + 1 if t is AND or t is OR else base
    return max((level[p] for p in network.pos), default=0)


def unate_with_sweep(network: LogicNetwork,
                     neg_suffix: str = NEG_SUFFIX) -> Tuple[LogicNetwork, UnateReport]:
    """:func:`unate_convert` followed by :func:`repro.synth.sweep`.

    The report's gate counts refer to the swept result.
    """
    unate, report = _convert(network, neg_suffix)
    swept = sweep(unate)
    report = dataclasses.replace(report, unate_gates=_andor_count(swept))
    return swept, _with_depth(report, swept)


def check_unate_equivalent(original: LogicNetwork, unate: LogicNetwork,
                           vectors: int = 512, seed: int = 0,
                           neg_suffix: str = NEG_SUFFIX) -> Optional[str]:
    """Verify a unate network against its pre-conversion original.

    Complementary PIs (``X_bar``) are driven with the complement of ``X``.
    Returns ``None`` on success, or a human-readable mismatch description.
    """
    import random

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
        elif label.endswith(neg_suffix) and label[: -len(neg_suffix)] in orig_pis:
            unate_words[uid] = words[label[: -len(neg_suffix)]] ^ mask
        else:
            return f"unate network has unexplained PI {label!r}"

    out_a = evaluate_vectors(
        original, {orig_pis[n]: w for n, w in words.items()}, vectors)
    out_b = evaluate_vectors(unate, unate_words, vectors)
    for name in orig_pos:
        if out_a[orig_pos[name]] != out_b[unate_pos[name]]:
            return f"output {name} differs between original and unate network"
    return None
