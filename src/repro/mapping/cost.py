"""Cost models for the mapping dynamic program.

The paper evaluates three objectives:

* **area** (Tables I, II): total transistors, including discharge
  transistors for the PBE-aware mapper;
* **clock-weighted area** (Table III): clock-connected transistors
  (p-clock, n-clock, p-discharge) cost ``k`` times a regular transistor;
* **depth** (Table IV): domino levels, combined with the discharge count
  for the PBE-aware mapper.

A cost model turns tuple metrics into a comparable selection key and
prices the individual cost events (pulldown transistor, committed
discharge, gate formation).  All keys are "monotonic increasing as we
proceed from inputs to outputs" (paper section V), which is what makes the
dynamic program exact.
"""

from __future__ import annotations

import math

#: Non-clock part of the domino gate overhead: output inverter (2) + keeper.
_STATIC_OVERHEAD = 3.0


class CostModel:
    """Transistor-count objective with optional clock weighting.

    Parameters
    ----------
    k_clock:
        Weight of every clock-connected transistor (p-clock and n-clock in
        the gates, and the p-discharge transistors).  ``k_clock=1`` is the
        plain area objective of Tables I and II; Table III uses ``k=2``.
    """

    name = "area"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for retired in ("tuple_key", "gate_key"):
            if retired in vars(cls):
                raise TypeError(
                    f"{cls.__qualname__}.{retired} is no longer called: "
                    "override tuple_key_metrics(wcost, levels), the one "
                    "selection key")

    def __init__(self, k_clock: float = 1.0):
        if not (math.isfinite(k_clock) and k_clock > 0):
            raise ValueError(
                f"k_clock must be positive and finite, got {k_clock}")
        self.k_clock = float(k_clock)

    # -- event prices ---------------------------------------------------
    def leaf_cost(self) -> float:
        """Cost of one pulldown transistor."""
        return 1.0

    def discharge_cost(self) -> float:
        """Cost of one committed p-discharge transistor (clock-connected)."""
        return self.k_clock

    def gate_overhead_cost(self, footed: bool) -> float:
        """Cost of forming a gate: inverter + keeper + clock transistors.

        The p-clock precharge device (and the n-clock foot for footed
        gates) is clock-connected and therefore weighted by ``k``.
        """
        clock_devices = 2.0 if footed else 1.0
        return _STATIC_OVERHEAD + self.k_clock * clock_devices

    # -- the selection key -----------------------------------------------
    def tuple_key_metrics(self, wcost: float, levels: int) -> float:
        """The one selection key (lower is better).

        The DP picks each ``{W,H}`` slot's tuples and the tuple a gate
        is formed from by the least ``(key, p_dis)``.  The key is priced
        from a candidate's raw scalars, before anything is allocated;
        subclasses that change the objective override this method.  The
        soa kernel and the column gate formation call it on numpy
        columns, so a key that is not elementwise-exact on arrays runs
        on the reference kernel (``stats.kernel_fallbacks``).
        """
        return wcost

    def __repr__(self) -> str:
        return f"{type(self).__name__}(k_clock={self.k_clock})"


class AreaCost(CostModel):
    """Plain transistor-count objective (``k_clock = 1``)."""

    def __init__(self):
        super().__init__(k_clock=1.0)


class ClockWeightedCost(CostModel):
    """Table III's objective: clock-connected transistors cost ``k``."""

    name = "clock-weighted"

    def __init__(self, k: float = 2.0):
        super().__init__(k_clock=k)


class DepthCost(CostModel):
    """Table IV's objective: domino levels, then transistors.

    The selection key is ``level_weight * levels + wcost``: a level costs
    ``level_weight`` transistor-equivalents.  For the PBE-aware mapper
    ``wcost`` already contains the committed discharge transistors, so the
    mapper trades levels against discharge transistors exactly as the
    paper describes ("the actual cost function is a combination of delay
    and number of discharge transistors used").

    Parameters
    ----------
    level_weight:
        Transistor-equivalents per domino level.  The default (10) makes
        levels dominate in small gates while still letting a large
        discharge saving buy an extra level, which reproduces the paper's
        observation that the depth-mode SOI mapper lowers levels for some
        circuits and raises them for others.
    """

    name = "depth"

    def __init__(self, level_weight: float = 10.0, k_clock: float = 1.0):
        super().__init__(k_clock=k_clock)
        if not (math.isfinite(level_weight) and level_weight > 0):
            raise ValueError("level_weight must be positive and finite, "
                             f"got {level_weight}")
        self.level_weight = float(level_weight)

    def tuple_key_metrics(self, wcost: float, levels: int) -> float:
        return self.level_weight * levels + wcost

    def __repr__(self) -> str:
        return (f"DepthCost(level_weight={self.level_weight}, "
                f"k_clock={self.k_clock})")
