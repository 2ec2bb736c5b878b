"""Hierarchical span tracing for the mapping stack.

A :class:`Span` is one named, timed interval — a flow, a pass, a DP
kernel batch, a batch task — with attributes and nested children.  A
:class:`Tracer` builds span trees with a context-manager API over a
monotonic clock (``time.perf_counter``), records already-measured
intervals retroactively (the engine's DP loop measures first
and records only survivors of the duration threshold), and adopts
finished trees produced elsewhere (batch workers pickle their trees
across the process pool; the parent stitches them under per-circuit
roots).

Timestamps are seconds relative to the owning tracer's *epoch* (the
``perf_counter`` reading at construction), so a span tree is
self-consistent but carries no wall-clock meaning; trees merged from
other processes are re-based onto the adopting tracer's timeline.
Exporters (``obs/export.py``) turn span trees into JSONL or Chrome
``trace_event`` JSON loadable in Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

#: Engine nodes faster than this produce no span (hot-path guard).
DEFAULT_NODE_SPAN_THRESHOLD_S = 1e-4

#: The engine observes its tuples-per-node histogram every Nth node.
DEFAULT_SAMPLE_EVERY = 8


@dataclass
class Span:
    """One named, timed interval in a trace tree.

    ``start_s``/``end_s`` are seconds relative to the owning tracer's
    epoch.  Spans are plain data (picklable, no tracer back-reference),
    which is what lets batch workers ship their trees across a process
    pool.
    """

    name: str
    category: str = "flow"
    start_s: float = 0.0
    end_s: float = 0.0
    attributes: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    def shift(self, delta_s: float) -> "Span":
        """Move this span (and its whole subtree) by ``delta_s``."""
        self.start_s += delta_s
        self.end_s += delta_s
        for child in self.children:
            child.shift(delta_s)
        return self

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration: this span, then its subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First span named ``name`` in depth-first order (or None)."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def span_count(self) -> int:
        return sum(1 for _ in self.walk())

    def as_dict(self) -> Dict[str, object]:
        """Nested JSON-ready rendering (children inline)."""
        return {
            "name": self.name,
            "category": self.category,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attributes": dict(self.attributes),
            "children": [child.as_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        return cls(
            name=data["name"],
            category=data.get("category", "flow"),
            start_s=float(data.get("start_s", 0.0)),
            end_s=float(data.get("end_s", 0.0)),
            attributes=dict(data.get("attributes") or {}),
            children=[cls.from_dict(c) for c in data.get("children") or []],
        )

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {self.category}, "
                f"{self.duration_s * 1e3:.3f}ms, "
                f"{len(self.children)} children)")


class _SpanContext:
    """The ``with tracer.span(...)`` handle; enters/exits one span."""

    __slots__ = ("_tracer", "_name", "_category", "_attributes", "span")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 attributes: Dict[str, object]):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._attributes = attributes
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self._tracer.begin(self._name, self._category,
                                       self._attributes)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and self.span is not None:
            self.span.attributes.setdefault("error", exc_type.__name__)
        self._tracer.end(self.span)


class Tracer:
    """Builds span trees over a monotonic clock.

    Parameters
    ----------
    name:
        Label for the tracer (carried into exports as the process name).
    node_span_threshold_s:
        Engine kernel batches (chunks of a topological level) that
        finished faster than this emit no span — the guard that keeps
        tracing off the kernel's hot path.
    sample_every:
        The engine observes its tuples-per-node histogram every Nth node.
    """

    def __init__(self, name: str = "repro", *,
                 node_span_threshold_s: float = DEFAULT_NODE_SPAN_THRESHOLD_S,
                 sample_every: int = DEFAULT_SAMPLE_EVERY):
        if node_span_threshold_s < 0:
            raise ValueError("node_span_threshold_s must be >= 0")
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.name = name
        self.node_span_threshold_s = node_span_threshold_s
        self.sample_every = sample_every
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._epoch = time.perf_counter()

    # -- clock -----------------------------------------------------------
    @property
    def epoch(self) -> float:
        """The ``perf_counter`` reading all span times are relative to."""
        return self._epoch

    def now(self) -> float:
        """Seconds since the tracer's epoch (monotonic)."""
        return time.perf_counter() - self._epoch

    # -- span construction ----------------------------------------------
    def span(self, name: str, category: str = "flow",
             **attributes) -> _SpanContext:
        """Context manager opening a child span of the current span."""
        return _SpanContext(self, name, category, attributes)

    def begin(self, name: str, category: str = "flow",
              attributes: Optional[Dict[str, object]] = None) -> Span:
        """Open a span explicitly (prefer :meth:`span` where possible)."""
        span = Span(name=name, category=category, start_s=self.now(),
                    attributes=dict(attributes or {}))
        self._attach(span)
        self._stack.append(span)
        return span

    def end(self, span: Optional[Span] = None) -> None:
        """Close the current span (must match the innermost open one)."""
        if not self._stack:
            raise ValueError("no open span to end")
        top = self._stack.pop()
        if span is not None and span is not top:
            raise ValueError(
                f"span nesting violated: ending {span.name!r} while "
                f"{top.name!r} is innermost")
        top.end_s = self.now()

    def event(self, name: str, category: str = "event",
              **attributes) -> Span:
        """Record a zero-duration marker span at the current instant.

        Events ride the normal span tree (children of the innermost
        open span, roots otherwise), so fault injections and recovery
        actions show up inline on the Perfetto timeline exactly where
        they happened.
        """
        now = self.now()
        span = Span(name=name, category=category, start_s=now, end_s=now,
                    attributes=dict(attributes))
        self._attach(span)
        return span

    def record_abs(self, name: str, start_pc: float, end_pc: float,
                   category: str = "node",
                   attributes: Optional[Dict[str, object]] = None) -> Span:
        """Retroactively record an interval measured with ``perf_counter``.

        The engine times every kernel batch anyway (for
        :class:`~repro.pipeline.MappingStats`); batches that clear the
        duration threshold are recorded here after the fact, so the
        fast path never opens a context manager.
        """
        span = Span(name=name, category=category,
                    start_s=start_pc - self._epoch,
                    end_s=end_pc - self._epoch,
                    attributes=dict(attributes or {}))
        self._attach(span)
        return span

    def attach(self, tree: Span, *, at_s: Optional[float] = None) -> Span:
        """Adopt a finished (possibly foreign) span tree.

        The tree is re-based so it starts at ``at_s`` on this tracer's
        timeline (default: now) and becomes a child of the current span
        (or a root).  Used to stitch worker trees into the parent trace.
        """
        base = self.now() if at_s is None else at_s
        tree.shift(base - tree.start_s)
        self._attach(tree)
        return tree

    def _attach(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)

    # -- introspection ---------------------------------------------------
    @property
    def current(self) -> Optional[Span]:
        """The innermost open span (None outside any span)."""
        return self._stack[-1] if self._stack else None

    def total_duration_s(self) -> float:
        return sum(root.duration_s for root in self.roots)

    def __repr__(self) -> str:
        return (f"Tracer({self.name!r}, {len(self.roots)} roots, "
                f"depth={len(self._stack)})")


def stitch(name: str, trees: Sequence[Span], *, category: str = "flow",
           attributes: Optional[Dict[str, object]] = None) -> Span:
    """Lay finished span trees end-to-end under a new root span.

    Used for trees whose clocks are not comparable (batch workers each
    have a private epoch): the result is a *schematic* timeline — tasks
    appear sequential in recorded order — but every subtree's internal
    nesting and durations are real.  Trees are shifted in place.
    """
    root = Span(name=name, category=category,
                attributes=dict(attributes or {}))
    cursor = 0.0
    for tree in trees:
        tree.shift(cursor - tree.start_s)
        root.children.append(tree)
        cursor = tree.end_s
    root.end_s = cursor
    return root
