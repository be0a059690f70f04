"""Shared plumbing for the benchmark harnesses — now a lab front-end.

Every benchmark regenerates one of the paper's tables/figures.  The specs
and analysis bodies live in :mod:`benchmarks.analyses`,
``benchmarks/suite.py`` names them as lab experiments, and the
``bench_*.py`` files are thin pytest shims calling
:func:`lab_experiment`, which routes through :func:`repro.lab.run_suite`
(process-pool fan-out + the content-addressed artifact store under
``benchmarks/out/.cache/``).  Artifacts land in
``benchmarks/out/<name>.txt``, byte-identical to the pre-lab harnesses at
any jobs/cache setting.

Engine knobs (environment variables, so ``pytest benchmarks/`` stays the
invocation):

``REPRO_JOBS``
    Worker processes per engine call (default 1).  Results are
    bit-identical at any value.
``REPRO_NO_CACHE``
    Set (to anything) to disable the artifact store.  A warm store answers
    every simulation point from disk, so re-renders are near-instant.

The shims run with ``reanalyze=True`` so the paper-shape assertions in
:mod:`benchmarks.analyses` really execute on every pytest run (points
still come from the store); ``repro lab run benchmarks/suite.py``
additionally reuses stored analysis artifacts, skipping execution
entirely when nothing changed.

Speed knob: several experiments run at ``demand_scale > 1`` — all CPU
demands multiplied, capacities divided, optimal concurrencies untouched
(DESIGN.md §2) — so the full suite completes in minutes.
"""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
CACHE_DIR = os.path.join(OUT_DIR, ".cache")
SUITE_PATH = os.path.join(BENCH_DIR, "suite.py")

#: Engine fan-out for every bench (REPRO_JOBS=8 pytest benchmarks/ ...).
JOBS = max(1, int(os.environ.get("REPRO_JOBS", "1")))

#: Cache switch; on by default so warm re-runs render from disk.
CACHE = "REPRO_NO_CACHE" not in os.environ

#: Paper's Table I values, used for side-by-side rendering and shape checks.
PAPER_TABLE1 = {
    "app": {"S0": 2.84e-2, "alpha": 9.87e-3, "beta": 4.54e-5, "gamma": 11.03,
            "R2": 0.96, "N_b": 20, "Xmax": 946.0},
    "db": {"S0": 7.19e-3, "alpha": 5.04e-3, "beta": 1.65e-6, "gamma": 4.45,
           "R2": 0.97, "N_b": 36, "Xmax": 865.0},
}


def lab_experiment(name: str):
    """Run one named suite experiment through the lab, strictly.

    Builds the suite manifest, narrows it to ``name``, and executes it
    with ``reanalyze=True`` (assertions always run) and ``strict=True``
    (the first assertion failure propagates to pytest).  Returns the
    :class:`repro.lab.SuiteRun`.
    """
    from repro.lab import SuiteManifest, run_suite

    if BENCH_DIR not in sys.path and os.path.dirname(BENCH_DIR) not in sys.path:
        sys.path.insert(0, os.path.dirname(BENCH_DIR))
    manifest = SuiteManifest.load(SUITE_PATH)
    narrowed = SuiteManifest(
        name=manifest.name, experiments=(manifest.experiment(name),)
    )
    return run_suite(
        narrowed,
        out_dir=OUT_DIR,
        store_dir=CACHE_DIR if CACHE else None,
        jobs=JOBS,
        reanalyze=True,
        strict=True,
    )


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
