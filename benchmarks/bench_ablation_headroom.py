"""Ablation: sensitivity to the headroom factor over the theoretical knee.

Lab shim — see :func:`benchmarks.analyses.ablation_headroom` and
``benchmarks/suite.py``.
"""

import pytest

from benchmarks.common import lab_experiment, once

pytestmark = pytest.mark.slow


@pytest.mark.benchmark(group="ablation")
def test_ablation_headroom_plateau(benchmark):
    once(benchmark, lambda: lab_experiment("ablation_headroom"))
