"""Compare two sets of benchmark runs: ``python bench/compare.py A*.json -- B*.json``.

Each file is an ``--out`` file of ``python -m bench``.  For every
(workload, end-to-end metric) pair the table shows each side's median
and quartiles and a verdict, using the bounds in ``BENCHMARK.json``:

``better``
    B's median improves on A's by more than A's own spread (quartile
    distance over median), and B wins at least nine tenths of the runs
    paired in file order.
``within bound``
    B's median is no worse than A's by more than the bound.
``worse``
    B's median is worse than A's by more than the bound.
``unresolved``
    Either side's spread is wider than the bound, unless every B run is
    better than every A run.

The exit status is 1 when any row is ``worse`` or ``unresolved``.
Self-contained (standard library only), so it runs on results copied
anywhere.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

Values = Dict[Tuple[str, str], List[float]]


def load_runs(paths: Sequence[str]) -> Values:
    """(workload, metric) -> values of the untraced runs in ``paths``."""
    values: Values = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        for run in payload["runs"]:
            if run["trace"]:
                continue
            for name, metric in run["result"]["metrics"].items():
                values.setdefault((run["workload"], name), []).append(
                    float(metric["value"]))
    return values


def summary(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    q1, q2, q3 = summary(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Tuple[str, float]:
    """The verdict for B against A, and B's relative improvement."""
    sign = 1.0 if better == "higher" else -1.0

    def beats(x: float, y: float) -> bool:
        return sign * (x - y) > 0

    median_a = summary(a)[1]
    gain = sign * (summary(b)[1] - median_a) / abs(median_a) \
        if median_a else 0.0
    if spread(a) > bound or spread(b) > bound:
        if all(beats(x, y) for x in b for y in a):
            return "better", gain
        return "unresolved", gain
    if gain < -bound:
        return "worse", gain
    pairs = list(zip(a, b))
    wins = sum(beats(y, x) for x, y in pairs)
    if gain > spread(a) and gain > 0 and wins >= 0.9 * len(pairs):
        return "better", gain
    return "within bound", gain


def _cell(values: Sequence[float]) -> str:
    q1, q2, q3 = summary(values)
    return f"{q2:12.6g} [{q1:.6g}, {q3:.6g}] ±{100 * spread(values):.1f}%"


def main(argv: Sequence[str]) -> int:
    if argv and argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0
    cut = list(argv).index("--") if "--" in argv else -1
    side_a, side_b = argv[:cut], argv[cut + 1:]
    if cut < 1 or not side_b:
        print("usage: python bench/compare.py A.json... -- B.json...",
              file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    a, b = load_runs(side_a), load_runs(side_b)
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            label, gain = verdict(a[key], b[key], metric["better"],
                                  metric["bound"])
            print(f"{workload:16s} {metric['name']:18s} A {_cell(a[key])}"
                  f"  B {_cell(b[key])}  {100 * gain:+6.2f}%  {label}")
            status = status or int(label in ("worse", "unresolved"))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
