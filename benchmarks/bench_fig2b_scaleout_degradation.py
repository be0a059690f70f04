"""Fig 2(b): naive hardware-only scale-out degrades throughput.

Lab shim — see :func:`benchmarks.analyses.fig2b` for the specs, rendering
and paper-shape assertions, and ``benchmarks/suite.py`` for the
manifest entry.
"""

import pytest

from benchmarks.common import lab_experiment, once

pytestmark = pytest.mark.slow


@pytest.mark.benchmark(group="fig2b")
def test_fig2b_naive_scaleout_degrades(benchmark):
    once(benchmark, lambda: lab_experiment("fig2b"))
