"""Ablation: static over-provisioning vs DCM — the paper's opening claim.

Lab shim — see :func:`benchmarks.analyses.overprovision` (one autoscale
spec + one static-fleet scenario spec in a single manifest entry) and
``benchmarks/suite.py``.
"""

import pytest

from benchmarks.common import lab_experiment, once

pytestmark = pytest.mark.slow


@pytest.mark.benchmark(group="ablation")
def test_overprovisioning_costs_more_for_equal_service(benchmark):
    once(benchmark, lambda: lab_experiment("overprovision"))
