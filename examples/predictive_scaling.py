#!/usr/bin/env python3
"""Predictive vs reactive DCM on a steady ramp (the paper's §VI direction).

The paper's related work observes that predictive approaches "could avoid
the long setup time" when workload has intrinsic patterns.  This example
runs the reactive DCM and the trend-forecasting extension on the same slow
ramp and shows the forecasted scale-outs landing one-plus control periods
earlier — capacity is in service when the ramp needs it.

Usage::

    python examples/predictive_scaling.py

Set ``REPRO_EXAMPLES_QUICK=1`` for the CI-sized variant.
"""

import os

from repro.analysis import stability_report
from repro.analysis.tables import render_table
from repro.model import ground_truth_models
from repro.scenario import Deployment, ScenarioSpec
from repro.workload import WorkloadTrace

QUICK = os.environ.get("REPRO_EXAMPLES_QUICK", "") == "1"
SCALE = 8.0 if QUICK else 4.0


def main() -> None:
    # A steady climb: the pattern prediction exploits.
    if QUICK:
        trace = WorkloadTrace((0.0, 15.0, 90.0, 120.0), (0.25, 0.25, 1.0, 1.0))
        max_users = 500
    else:
        trace = WorkloadTrace((0.0, 30.0, 150.0, 210.0), (0.25, 0.25, 1.0, 1.0))
        max_users = 1400
    models = ground_truth_models(SCALE)
    runs = {}
    for kind in ("dcm", "predictive"):
        print(f"running {kind} on a steady ramp ...")
        spec = ScenarioSpec(
            controller=kind, workload="trace", trace=trace,
            max_users=max_users, seed=6, demand_scale=SCALE, models=models,
        )
        with Deployment(spec) as dep:
            dep.run()
        runs[kind] = dep

    rows = []
    for kind, dep in runs.items():
        rep = stability_report(
            dep.system.request_log, len(dep.system.failure_log), dep.duration
        )
        first_db = min(
            (t for t, c in dep.controller.scaling_timeline("db") if c > 1),
            default=float("nan"),
        )
        rows.append([kind, first_db, rep.p95_response_time,
                     rep.max_response_time, rep.spike_seconds])
    print(render_table(
        ["controller", "2nd MySQL in service (s)", "p95 RT", "max RT", "spike s"],
        rows,
        title="\n== reactive vs predictive DCM on a steady ramp ==",
    ))
    pred = runs["predictive"].controller
    print(f"\npredictive triggers fired: {pred.predictive_scaleouts}")
    for e in pred.events:
        if e.kind == "predictive_trigger":
            print(f"  t={e.time:5.1f}s {e.tier}: {e.detail}")


if __name__ == "__main__":
    main()
