"""Fig 2(a): MySQL throughput vs request-processing concurrency.

Thin pytest shim over the lab: the specs and the full analysis body
(rendering + the paper's shape assertions) live in
:func:`benchmarks.analyses.fig2a`; ``benchmarks/suite.py``
names them as the ``fig2a`` experiment.  ``lab_experiment`` runs it with
``reanalyze=True`` so the assertions execute on every pytest run, and
``strict=True`` so a failed paper-shape check fails this test.
"""

import pytest

from benchmarks.common import lab_experiment, once

pytestmark = pytest.mark.slow


@pytest.mark.benchmark(group="fig2a")
def test_fig2a_mysql_concurrency_curve(benchmark):
    once(benchmark, lambda: lab_experiment("fig2a"))
