"""Table I: concurrency-aware model training and prediction.

Lab shim — see :func:`benchmarks.analyses.table1` for the two training
sweeps, the 1-vs-2-MySQL scaling-correction probes, and the Table I
assertions; ``benchmarks/suite.py`` carries the manifest entry (all
four specs run as one engine batch, so a worker pool drains the whole
point set).
"""

import pytest

from benchmarks.common import lab_experiment, once

pytestmark = pytest.mark.slow


@pytest.mark.benchmark(group="table1")
def test_table1_model_training(benchmark):
    once(benchmark, lambda: lab_experiment("table1"))
