"""Fig 5 (a)-(f): DCM vs EC2-AutoScale under the "Large Variation" trace.

Lab shim — see :func:`benchmarks.analyses.fig5` for the paired autoscale
specs, the stability/efficiency table and sparkline rendering, and the
paper's stability/throughput/VM-cost assertions;
``benchmarks/suite.py`` carries the manifest entry.
"""

import pytest

from benchmarks.common import lab_experiment, once

pytestmark = pytest.mark.slow


@pytest.mark.benchmark(group="fig5")
def test_fig5_dcm_vs_ec2_autoscale(benchmark):
    once(benchmark, lambda: lab_experiment("fig5"))
