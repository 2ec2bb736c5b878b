"""Retired spellings stay retired.

All pre-0.5 shims — the positional-CostModel ``map_network`` call form,
the loose ``soi_domino_map`` keyword switches, and the
``MappingResult.tuples_created`` alias — were removed on schedule, 0.7
removed the deprecated direct ``SoAKernel()`` construction, and 0.9 the
deprecation helper itself.  0.9 also folded ``CostModel.tuple_key`` and
``CostModel.gate_key`` into the one selection key,
``tuple_key_metrics``.  This module asserts each retired spelling is
genuinely gone (a hard error, not a silent success) or, for
``SoAKernel()``, plain construction with no warning.
"""

import warnings

import pytest

import repro
from repro.mapping import CostModel, map_network, soi_domino_map
from repro.network import network_from_expression


def _net():
    return network_from_expression("(a + b) * c")


def test_direct_soa_kernel_construction_is_silent():
    pytest.importorskip("numpy")
    from repro.mapping.soa import SoAKernel

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        assert SoAKernel().name == "soa"
        result = map_network(_net(), config=repro.MapperConfig(kernel="soa"))
        assert result.mapping.kernel == "soa"


def test_map_network_positional_cost_model_removed():
    with pytest.raises(TypeError, match="cost_model"):
        map_network(_net(), CostModel())


def test_soi_domino_map_legacy_kwargs_removed():
    with pytest.raises(TypeError, match="ordering"):
        soi_domino_map(_net(), ordering="adverse")


def test_tuples_created_alias_removed():
    result = map_network(_net(), flow="soi")
    with pytest.raises(AttributeError):
        result.mapping.tuples_created


def test_modern_spellings_stay_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        result = map_network(_net(), flow="soi", cost_model=CostModel())
        assert result.stats.tuples_created > 0


@pytest.mark.parametrize("retired", ["tuple_key", "gate_key"])
def test_retired_key_override_fails_at_class_definition(retired):
    def key(self, *args):
        return 0.0

    with pytest.raises(TypeError, match="tuple_key_metrics"):
        type("OldModel", (CostModel,), {retired: key})
