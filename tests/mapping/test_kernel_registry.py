"""The fixed kernel set: every surface validates against ``KERNELS``.

Unlike ``test_soa_kernel.py`` this module runs without numpy — the
kernel names and their validation have no numpy dependency, and the
no-numpy CI leg exercises everything here.
"""

from __future__ import annotations

import pytest

from repro.errors import MappingError
from repro.mapping import MapperConfig
from repro.mapping.kernel import KERNELS
from repro.service import JobSpec, JobSpecError


def test_unknown_kernel_rejected_at_config_validation():
    with pytest.raises(MappingError, match=r"simd.*reference"):
        MapperConfig(kernel="simd")


def test_config_and_job_spec_reject_a_kernel_outside_the_fixed_set():
    assert tuple(KERNELS) == ("reference", "soa", "auto")
    names = ", ".join(KERNELS)
    with pytest.raises(MappingError) as config_error:
        MapperConfig(kernel="simd")
    with pytest.raises(JobSpecError) as spec_error:
        JobSpec.from_payload({"circuits": ["mux"], "kernel": "simd"})
    for error in (config_error, spec_error):
        message = str(error.value)
        assert "'simd'" in message
        assert message.endswith(f"one of {names}")
