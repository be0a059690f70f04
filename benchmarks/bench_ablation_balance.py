"""Ablation: γ(K) — load balancing, skew, and the connection tar-pit.

Lab shim — see :func:`benchmarks.analyses.ablation_balance` for the
(policy × pool sizing × skew) grid and the three asserted effects
(least-conn self-corrects, round-robin pays for skew, the oversized-pool
tar-pit); ``benchmarks/suite.py`` carries the manifest entry.
"""

import pytest

from benchmarks.common import lab_experiment, once

pytestmark = pytest.mark.slow


@pytest.mark.benchmark(group="ablation")
def test_ablation_gamma_vs_imbalance(benchmark):
    once(benchmark, lambda: lab_experiment("ablation_balance"))
