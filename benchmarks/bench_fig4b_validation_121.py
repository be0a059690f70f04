"""Fig 4(b): model validation on 1/2/1 — the optimal DB connection pools.

Lab shim — see :func:`benchmarks.analyses.fig4b` and
``benchmarks/suite.py``.
"""

import pytest

from benchmarks.common import lab_experiment, once

pytestmark = pytest.mark.slow


@pytest.mark.benchmark(group="fig4")
def test_fig4b_optimal_connection_split_wins(benchmark):
    once(benchmark, lambda: lab_experiment("fig4b"))
