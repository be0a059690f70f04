"""Ablation: the thrash term is what makes over-concurrency *harmful*.

Lab shim — see :func:`benchmarks.analyses.ablation_thrash` and
``benchmarks/suite.py``.
"""

import pytest

from benchmarks.common import lab_experiment, once

pytestmark = pytest.mark.slow


@pytest.mark.benchmark(group="ablation")
def test_ablation_thrash_term_carries_fig2b(benchmark):
    once(benchmark, lambda: lab_experiment("ablation_thrash"))
