"""The consolidated deprecation machinery, with no shim left to retire.

All pre-0.5 shims — the positional-CostModel ``map_network`` call form,
the loose ``soi_domino_map`` keyword switches, and the
``MappingResult.tuples_created`` alias — were removed on schedule, and
0.7 removed the last one, the deprecated direct ``SoAKernel()``
construction.  This module asserts (a) the
:func:`repro._compat.deprecated` helper still behaves for future shims,
(b) the shim table is empty, and (c) each retired legacy spelling is
genuinely gone (hard error, not a silent success) or, for
``SoAKernel()``, plain construction with no warning.
"""

import warnings

import pytest

import repro
from repro._compat import SHIMS, deprecated
from repro.mapping import CostModel, map_network, soi_domino_map
from repro.network import network_from_expression


def _net():
    return network_from_expression("(a + b) * c")


def test_helper_emits_deprecation_warning_at_caller():
    with pytest.warns(DeprecationWarning, match="old_thing"):
        deprecated("old_thing is deprecated; use new_thing instead",
                   stacklevel=1)


def test_helper_is_silent_under_simplefilter_ignore():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        deprecated("suppressed", stacklevel=1)


def test_shim_table_holds_the_live_deprecations():
    # 0.7 retired the last shim (the deprecated SoAKernel
    # constructor), and 0.8 added none.  A new deprecation must add
    # itself here with a removal release.
    assert repro.__version__.startswith("0.8")
    assert SHIMS == ()


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
