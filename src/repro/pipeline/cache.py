"""Tree-level memoization for the mapping dynamic program.

The DP is exact over fanout-free trees, and benchmark suites repeat tree
shapes constantly (mux trees, parity trees, adder slices, the calibrated
random networks).  For a cache-eligible node — an AND/OR node whose whole
transitive fanin cone consists of primary inputs and single-fanout AND/OR
nodes — the node's tuple table depends only on

* the *shape* of that cone (node types in fanin order),
* the :class:`~repro.mapping.engine.MapperConfig`, and
* the cost model,

never on signal names or node ids.  :class:`TreeCache` therefore keys
entries by ``(config fingerprint, cost-model fingerprint, shape
signature)`` and stores the node's finished tuple table with its leaf
labels abstracted to positions in a canonical preorder traversal.  A hit
rebuilds the table for the new cone by substituting the actual primary-
input labels and interior node ids — bit-identical to what the DP would
have produced, because the stored tuples *are* what the DP produced for
an identical shape — and skips the combine/prune loop entirely.

Shape signatures are hash-consed: every distinct ``(op, left, right)``
triple gets a small integer id, so signing a network is O(nodes) and
comparing signatures is integer equality.  Nodes whose cone repeats a
primary-input label (the same PI feeding two leaves) are skipped — the
positional relabeling would be ambiguous — as are nodes with any
multi-fanout interior, whose DP view depends on sharing amortization.

``TreeCache(enabled=False)`` (or flipping :attr:`TreeCache.enabled` at
any time) is the correctness-preserving bypass: lookups miss, nothing is
stored, and mapping proceeds exactly as without a cache.

Residency is bounded and deterministic: entries live in an LRU order
(storing and hitting an entry both refresh it), and once ``max_entries``
is reached every new store evicts the least-recently-used entry — so
which shapes stay resident is a pure function of the lookup sequence,
never of hash order or timing.  Evictions are counted
(:attr:`evictions`, with the LRU subset in :attr:`lru_evictions`) and
surface in :meth:`stats`, in ``MappingStats.cache_evictions``, and in
the batch report.

A :class:`~repro.pipeline.store.CacheStore` can be attached as a
persistent second tier (``TreeCache(store=...)``): an in-memory miss
consults the store under a *stable* key — sha256 of the canonical cone
shape plus the config/cost-model fingerprints, independent of this
process's hash-consed signature ids — and a computed table is written
through.  Store payloads are pickled templates, checksummed by the
store; a payload that fails to unpickle is evicted as poison.  Because
templates are bit-identical whichever process computes them, warm state
survives process pools, daemon restarts, and concurrent writers without
any cross-process coordination beyond sqlite's.

Entries are integrity-checked: :meth:`TreeCache.put` fingerprints the
stored template and :meth:`TreeCache.fetch` re-derives the fingerprint
before instantiating a hit.  A mismatch — memory corruption, or a bug
mutating a template that is supposed to be immutable shared state — is
*poison*: reusing the entry would silently map a different circuit, the
worst failure mode a memoization layer has.  The poisoned entry is
evicted, the fetch reports a miss (the DP recomputes the table, which
is always correct), and the recovery is counted/traced via
:meth:`TreeCache.bind_obs`.  The ``cache.poison`` fault point of
:mod:`repro.resilience` mutates a fetched template in exactly this way
so the detection path stays tested.
"""

from __future__ import annotations

import hashlib
import pickle
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..domino.structure import Leaf, Pulldown
from ..mapping.tuples import Arena, MapTuple, TupleTable
from ..network import LogicNetwork, NodeType
from ..resilience.faults import emit_recovery, fire
from .store import SCHEMA_VERSION, CacheStore

#: Signature id reserved for a primary-input leaf.
_PI_SIG = 0

#: One cached table: ``[(shape, [tuple templates in slot order]), ...]``
#: in slot-insertion order, so a rebuilt table iterates identically.
_Template = List[Tuple[Tuple[int, int], List[MapTuple]]]


class TreeCache:
    """Cross-run memoization of per-node DP tables.

    Parameters
    ----------
    enabled:
        The bypass switch; a disabled cache never hits and never stores.
    max_entries:
        Residency cap; once reached, each new store evicts the
        least-recently-used entry (deterministic LRU: stores and hits
        both refresh recency).
    store:
        Optional :class:`~repro.pipeline.store.CacheStore` persistent
        second tier — consulted on in-memory misses, written through on
        stores, keyed by :meth:`stable_key`.
    """

    def __init__(self, enabled: bool = True, max_entries: int = 200_000,
                 store: Optional[CacheStore] = None):
        self.enabled = enabled
        self.max_entries = max_entries
        self.store = store
        self._entries: "OrderedDict[tuple, _Template]" = OrderedDict()
        self._fingerprints: Dict[tuple, int] = {}
        self._intern: Dict[Tuple[str, int, int], int] = {}
        self._canon: Dict[int, object] = {_PI_SIG: 0}
        self._next_sig = _PI_SIG + 1
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.skipped = 0       #: store attempts dropped (ambiguity)
        self.evictions = 0     #: total entries dropped (integrity + LRU)
        self.lru_evictions = 0  #: the LRU-capacity subset of evictions
        self._tracer = None
        self._metrics = None

    def bind_obs(self, tracer=None, metrics=None) -> None:
        """Attach obs handles so integrity evictions are traced/counted."""
        self._tracer = tracer
        self._metrics = metrics

    # ------------------------------------------------------------------
    # shape signatures
    # ------------------------------------------------------------------
    def signatures(self, network: LogicNetwork) -> Dict[int, Optional[int]]:
        """Signature id per node; ``None`` marks cache-ineligible nodes."""
        sigs: Dict[int, Optional[int]] = {}
        for uid in network.topological_order():
            node = network.node(uid)
            if node.type is NodeType.PI:
                sigs[uid] = _PI_SIG
            elif node.type in (NodeType.AND, NodeType.OR):
                sigs[uid] = self._sign_gate(network, node, sigs)
            else:
                sigs[uid] = None
        return sigs

    def _sign_gate(self, network, node, sigs) -> Optional[int]:
        if len(node.fanins) != 2:
            return None
        parts: List[int] = []
        for fanin in node.fanins:
            sub = sigs.get(fanin)
            if sub is None:
                return None
            # Interior gates must be single-fanout: a shared node's view
            # depends on its fanout count (cost amortization / forcing).
            if (network.node(fanin).type is not NodeType.PI
                    and network.fanout_count(fanin) != 1):
                return None
            parts.append(sub)
        key = (node.type.value, parts[0], parts[1])
        sig = self._intern.get(key)
        if sig is None:
            sig = self._next_sig
            self._next_sig += 1
            self._intern[key] = sig
            # canonical (process-independent) form of the cone shape,
            # the basis of the persistent store's stable key
            self._canon[sig] = (node.type.value, self._canon[parts[0]],
                                self._canon[parts[1]])
        return sig

    def stable_key(self, prefix: tuple, sig: int) -> Optional[str]:
        """Cross-process identity of one cached cone: sha256 over the
        canonical shape and the config/cost-model fingerprint prefix.

        Unlike the hash-consed ``sig`` (a small integer private to this
        cache instance), the stable key is identical in every process
        that signs the same shape under the same configuration — it is
        what the persistent :class:`CacheStore` tier is keyed by.
        """
        canon = self._canon.get(sig)
        if canon is None:
            return None
        raw = repr(("cone-template", SCHEMA_VERSION, prefix, canon))
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def fetch(self, prefix: tuple, sig: int, network: LogicNetwork,
              uid: int, key_fn, pareto: bool,
              arena: Optional[Arena] = None) -> Optional[TupleTable]:
        """Rebuild the cached table for ``uid``'s cone, or None on miss.

        The rebuilt tuples become rows of ``arena`` (the mapping run's;
        a table of its own when omitted) that carry their instantiated
        structures eagerly.
        """
        if not self.enabled:
            return None
        key = (prefix, sig)
        template = self._entries.get(key)
        if template is not None:
            self._entries.move_to_end(key)
        elif self.store is not None:
            template = self._fetch_store(key)
        if template is None:
            self.misses += 1
            return None
        rule = fire("cache.poison", f"sig:{sig}", self._tracer,
                    self._metrics)
        if rule is not None and template and template[0][1]:
            # injected fault: mutate the stored template without
            # refreshing its fingerprint — the shape real poison takes
            template[0][1][0].wcost += 1.0
        if _template_fingerprint(template) != self._fingerprints.get(key):
            # Poisoned entry: instantiating it would silently map a
            # different circuit.  Evict and miss; the DP recomputes.
            del self._entries[key]
            self._fingerprints.pop(key, None)
            self.evictions += 1
            self.misses += 1
            emit_recovery("cache_evict",
                          f"integrity fingerprint mismatch for sig {sig}",
                          tracer=self._tracer, metrics=self._metrics,
                          sig=sig)
            return None
        maps = _subtree_maps(network, uid)
        if maps is None:
            self.misses += 1
            return None
        labels, uids, _, _ = maps
        slots = [(shape, [_instantiate(t, labels, uids) for t in slot])
                 for shape, slot in template]
        self.hits += 1
        return TupleTable.from_slots(key_fn, pareto, slots, arena=arena)

    def storable(self, network: LogicNetwork, uid: int) -> bool:
        """Whether :meth:`put` could cache ``uid``'s table: the cache is
        on and the cone names each primary input at one leaf only."""
        return self.enabled and _subtree_maps(network, uid) is not None

    def put(self, prefix: tuple, sig: int, network: LogicNetwork,
            uid: int, table: TupleTable) -> bool:
        """Store ``uid``'s finished table; returns True if cached.

        The table's rows materialize here, with their structures, into
        the template's tuples.
        """
        if not self.enabled:
            return False
        key = (prefix, sig)
        if key in self._entries:
            return False
        maps = _subtree_maps(network, uid)
        if maps is None:
            self.skipped += 1
            return False
        _, _, label_pos, uid_pos = maps
        template: _Template = []
        for shape, slot in table.slots():
            templated = []
            for t in slot:
                abstract = _abstract(t, label_pos, uid_pos)
                if abstract is None:
                    self.skipped += 1
                    return False
                templated.append(abstract)
            template.append((shape, templated))
        self._admit(key, template)
        self.stores += 1
        if self.store is not None:
            stable = self.stable_key(prefix, sig)
            if stable is not None:
                self.store.put(stable, pickle.dumps(
                    template, protocol=pickle.HIGHEST_PROTOCOL))
        return True

    # ------------------------------------------------------------------
    # residency and the persistent tier
    # ------------------------------------------------------------------
    def _admit(self, key: tuple, template: _Template) -> None:
        """Install one entry, evicting LRU entries to stay under cap."""
        while len(self._entries) >= self.max_entries:
            victim, _ = self._entries.popitem(last=False)
            self._fingerprints.pop(victim, None)
            self.evictions += 1
            self.lru_evictions += 1
        self._entries[key] = template
        self._fingerprints[key] = _template_fingerprint(template)

    def _fetch_store(self, key: tuple) -> Optional[_Template]:
        """Second-tier lookup: load, deserialize and admit a stored
        template; ``None`` misses.  The store verified the payload
        checksum already; a payload that still fails to deserialize
        (stale pickle schema, foreign bytes) is evicted as poison."""
        prefix, sig = key
        stable = self.stable_key(prefix, sig)
        if stable is None:
            return None
        payload = self.store.get(stable)
        if payload is None:
            return None
        try:
            template = pickle.loads(payload)
            if not isinstance(template, list):
                raise TypeError(f"expected template list, "
                                f"got {type(template).__name__}")
        except Exception:  # noqa: BLE001 - any bad payload is poison
            self.store.delete(stable, poison=True)
            emit_recovery("cache_evict",
                          f"undeserializable store payload for sig {sig}",
                          tracer=self._tracer, metrics=self._metrics,
                          sig=sig)
            return None
        self._admit(key, template)
        return template

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "skipped": self.skipped,
            "evictions": self.evictions,
            "lru_evictions": self.lru_evictions,
            "hit_rate": self.hit_rate,
        }
        if self.store is not None:
            data["store"] = self.store.stats()
        return data

    def clear(self) -> None:
        """Reset the in-memory tier (the persistent store, if any, is
        cleared separately via :meth:`CacheStore.clear`)."""
        self._entries.clear()
        self._fingerprints.clear()
        self.hits = self.misses = self.stores = self.skipped = 0
        self.evictions = 0
        self.lru_evictions = 0

    def __repr__(self) -> str:
        return (f"TreeCache(enabled={self.enabled}, entries={len(self)}, "
                f"hits={self.hits}, misses={self.misses})")


# ---------------------------------------------------------------------------
# entry integrity
# ---------------------------------------------------------------------------
def _structure_key(structure: Pulldown) -> tuple:
    if isinstance(structure, Leaf):
        return ("L", structure.signal, structure.is_primary,
                structure.source_gate)
    return (type(structure).__name__,
            tuple(_structure_key(c) for c in structure.children))


def _tuple_identity(t: MapTuple) -> tuple:
    return (t.width, t.height, t.wcost, t.trans, t.disch, t.levels,
            t.p_dis, t.par_b, t.has_pi, t.p_tail, t.ends_par,
            _structure_key(t.structure))


def _template_fingerprint(template: _Template) -> int:
    """Structural hash of a stored template (every field that feeds a
    rebuilt table).  Derived at store time and re-derived on fetch, so
    any later mutation of the shared entry is detected before its bytes
    are instantiated into a live DP table.  In-process only (uses
    ``hash``), which matches the cache's lifetime."""
    return hash(tuple((shape, tuple(_tuple_identity(t) for t in slot))
                      for shape, slot in template))


# ---------------------------------------------------------------------------
# canonical cone traversal and structure (de)templating
# ---------------------------------------------------------------------------
def _subtree_maps(network: LogicNetwork, uid: int):
    """Preorder maps of ``uid``'s cone: leaf labels and interior uids.

    Returns ``(labels, uids, label_pos, uid_pos)`` or None when a primary
    input appears at more than one leaf position (positional relabeling
    would be ambiguous, so such cones are never cached).
    """
    labels: List[str] = []
    uids: List[int] = []
    label_pos: Dict[str, int] = {}
    uid_pos: Dict[int, int] = {}
    stack = [uid]
    while stack:
        node = network.node(stack.pop())
        if node.type is NodeType.PI:
            if node.label in label_pos:
                return None
            label_pos[node.label] = len(labels)
            labels.append(node.label)
        else:
            uid_pos[node.uid] = len(uids)
            uids.append(node.uid)
            stack.extend(reversed(node.fanins))
    return labels, uids, label_pos, uid_pos


def _abstract_structure(structure: Pulldown, label_pos, uid_pos):
    if isinstance(structure, Leaf):
        if structure.is_primary:
            pos = label_pos.get(structure.signal)
            if pos is None:
                return None
            return Leaf(str(pos), is_primary=True)
        pos = uid_pos.get(structure.source_gate)
        if pos is None:
            return None
        return Leaf(str(pos), is_primary=False, source_gate=pos)
    children = []
    for child in structure.children:
        templated = _abstract_structure(child, label_pos, uid_pos)
        if templated is None:
            return None
        children.append(templated)
    return type(structure)(tuple(children))


def _instantiate_structure(structure: Pulldown, labels, uids) -> Pulldown:
    if isinstance(structure, Leaf):
        if structure.is_primary:
            return Leaf(labels[int(structure.signal)], is_primary=True)
        gate_uid = uids[structure.source_gate]
        return Leaf(f"g{gate_uid}", is_primary=False, source_gate=gate_uid)
    return type(structure)(tuple(_instantiate_structure(c, labels, uids)
                                 for c in structure.children))


def _copy_tuple(t: MapTuple, structure: Pulldown) -> MapTuple:
    return MapTuple(width=t.width, height=t.height, wcost=t.wcost,
                    trans=t.trans, disch=t.disch, levels=t.levels,
                    p_dis=t.p_dis, par_b=t.par_b, has_pi=t.has_pi,
                    structure=structure, p_tail=t.p_tail,
                    ends_par=t.ends_par)


def _abstract(t: MapTuple, label_pos, uid_pos) -> Optional[MapTuple]:
    structure = _abstract_structure(t.structure, label_pos, uid_pos)
    if structure is None:
        return None
    return _copy_tuple(t, structure)


def _instantiate(t: MapTuple, labels, uids) -> MapTuple:
    return _copy_tuple(t, _instantiate_structure(t.structure, labels, uids))
