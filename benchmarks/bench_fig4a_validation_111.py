"""Fig 4(a): model validation on 1/1/1 — the optimal Tomcat thread pool.

Lab shim — see :func:`benchmarks.analyses.fig4a` (which also documents
the substrate's Active-thread accounting caveat) and
``benchmarks/suite.py``.
"""

import pytest

from benchmarks.common import lab_experiment, once

pytestmark = pytest.mark.slow


@pytest.mark.benchmark(group="fig4")
def test_fig4a_optimal_tomcat_threads_wins(benchmark):
    once(benchmark, lambda: lab_experiment("fig4a"))
