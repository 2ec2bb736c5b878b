"""Tests for the cost models."""

import pytest

from repro.mapping import AreaCost, ClockWeightedCost, CostModel, DepthCost


class TestAreaCost:
    def test_unit_prices(self):
        model = AreaCost()
        assert model.leaf_cost() == 1.0
        assert model.discharge_cost() == 1.0
        assert model.gate_overhead_cost(footed=True) == 5.0
        assert model.gate_overhead_cost(footed=False) == 4.0

    def test_key_is_wcost(self):
        model = AreaCost()
        assert model.tuple_key_metrics(7.0, 3) == 7.0


class TestClockWeightedCost:
    def test_discharge_weighted(self):
        model = ClockWeightedCost(2.0)
        assert model.discharge_cost() == 2.0

    def test_overhead_weighted(self):
        model = ClockWeightedCost(2.0)
        # inverter(2) + keeper(1) + k * (p-clock [+ n-clock])
        assert model.gate_overhead_cost(footed=False) == 3 + 2
        assert model.gate_overhead_cost(footed=True) == 3 + 4

    def test_k1_matches_area(self):
        assert (ClockWeightedCost(1.0).gate_overhead_cost(True)
                == AreaCost().gate_overhead_cost(True))

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            ClockWeightedCost(0)
        with pytest.raises(ValueError):
            CostModel(k_clock=-1)

    @pytest.mark.parametrize("k", [float("nan"), float("inf"),
                                   float("-inf")])
    def test_non_finite_k_rejected(self, k):
        with pytest.raises(ValueError, match="finite"):
            ClockWeightedCost(k)
        with pytest.raises(ValueError, match="finite"):
            DepthCost(k_clock=k)


class TestDepthCost:
    def test_levels_dominate(self):
        model = DepthCost(level_weight=10.0)
        assert (model.tuple_key_metrics(9.0, 1)
                < model.tuple_key_metrics(1.0, 2))

    def test_transistors_break_level_ties(self):
        model = DepthCost(level_weight=10.0)
        assert (model.tuple_key_metrics(3.0, 2)
                < model.tuple_key_metrics(5.0, 2))

    def test_key_prices_levels_and_transistors(self):
        model = DepthCost(level_weight=10.0)
        assert model.tuple_key_metrics(4.0, 2) == 24.0

    def test_invalid_weight_rejected(self):
        with pytest.raises(ValueError):
            DepthCost(level_weight=0)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="finite"):
            DepthCost(level_weight=weight)

    def test_repr_mentions_parameters(self):
        assert "level_weight" in repr(DepthCost())
        assert "k_clock" in repr(ClockWeightedCost(2.0))
