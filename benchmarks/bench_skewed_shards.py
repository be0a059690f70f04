"""Skewed shards: DCM vs hardware-only scaling with one hot MySQL shard.

Lab shim — see :func:`benchmarks.analyses.skewed_shards` for the sharded
scenario specs, the post-run settling, and the shard-book assertions;
``benchmarks/suite.py`` carries the manifest entry.
"""

import pytest

from benchmarks.common import lab_experiment, once

pytestmark = pytest.mark.slow


@pytest.mark.benchmark(group="skewed_shards")
def test_skewed_shards_dcm_vs_hardware_only(benchmark):
    once(benchmark, lambda: lab_experiment("skewed_shards"))
