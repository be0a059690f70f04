"""Kernel microbenchmarks: event dispatch, timeouts, pools, conditions, Fig 5.

Unlike the figure benches this one regenerates no paper artefact — it
tracks the *speed of the simulator itself*, the denominator of every other
experiment.  The scenarios live in :mod:`repro.perf.kernel`; the lab
records the report as a *volatile* bench artifact (wall-clock rates differ
run to run by design, so ``repro lab diff`` reports changes
informationally, never as deltas).  See
:func:`benchmarks.analyses.kernel` and ``benchmarks/suite.py``.

Run standalone for the full suite and a committed-baseline comparison::

    PYTHONPATH=src python benchmarks/bench_kernel.py --baseline BENCH_kernel.json

which is exactly ``repro perf`` (see DESIGN.md, "Kernel performance").
"""

import sys

import pytest

from benchmarks.common import lab_experiment, once
from repro.perf import autoscale_digest, run_fig5

pytestmark = pytest.mark.slow


@pytest.mark.benchmark(group="kernel")
def test_kernel_suite(benchmark):
    once(benchmark, lambda: lab_experiment("kernel"))


@pytest.mark.benchmark(group="kernel")
def test_kernel_same_seed_digest(benchmark):
    """Two same-seed Fig-5 runs must be bit-identical (digest equality)."""
    first = autoscale_digest(once(benchmark, run_fig5))
    second = autoscale_digest(run_fig5())
    assert first == second


if __name__ == "__main__":
    from repro.perf.suite import main

    sys.exit(main(sys.argv[1:]))
