"""Batch mapping pipeline: parallel fan-out and instrumentation.

Cooperating layers (see DESIGN.md, "Batch pipeline &
instrumentation"):

* :class:`MappingStats` (``metrics.py``) — per-run counters the engine
  fills in and every result surfaces via ``MappingResult.stats``;
* :class:`WorkerPool` (``pool.py``) — warm worker processes whose
  lifetime spans batches (rebuild-on-hang, retries, backoff);
* :class:`BatchRunner` (``runner.py``) — fans ``BatchTask`` work-lists
  across a :class:`WorkerPool` with timeouts and serial degradation;
* :class:`CacheStore` (``store.py``) — a checksummed sqlite key/value
  store that only the benchmark (``bench/workloads.py``) drives.

``runner`` imports the mapping package, which itself imports
``metrics`` — so only ``metrics`` is imported eagerly here and the rest
resolves lazily on first attribute access (PEP 562), keeping the import
graph acyclic.
"""

from __future__ import annotations

from .metrics import MappingStats

_LAZY = {
    "WorkerPool": ("pool", "WorkerPool"),
    "CacheStore": ("store", "CacheStore"),
    "BatchTask": ("runner", "BatchTask"),
    "BatchResult": ("runner", "BatchResult"),
    "BatchReport": ("runner", "BatchReport"),
    "BatchRunner": ("runner", "BatchRunner"),
    "execute_task": ("runner", "execute_task"),
}

__all__ = ["MappingStats", *_LAZY]


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    return getattr(import_module(f".{module_name}", __name__), attr)


def __dir__():
    return sorted(__all__)
