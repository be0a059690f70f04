"""Ablation: the "quick start / slow turn off" policy vs naive symmetry.

Lab shim — see :func:`benchmarks.analyses.ablation_policy` and
``benchmarks/suite.py``.
"""

import pytest

from benchmarks.common import lab_experiment, once

pytestmark = pytest.mark.slow


@pytest.mark.benchmark(group="ablation")
def test_ablation_slow_stop_policy(benchmark):
    once(benchmark, lambda: lab_experiment("ablation_policy"))
