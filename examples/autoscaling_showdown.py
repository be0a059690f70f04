#!/usr/bin/env python3
"""DCM vs EC2-AutoScale on a bursty trace — a compact Fig 5.

Replays the synthetic "Large Variation" trace against both controllers on
identical systems (same seed, same trace) and prints the stability and
efficiency comparison plus the scaling timelines.
Runs at demand_scale=4 (quarter capacity, quarter request volume — knees
are scale-invariant) so it finishes in about a minute.

Usage::

    python examples/autoscaling_showdown.py [max_users] [demand_scale]

Set ``REPRO_EXAMPLES_QUICK=1`` for the CI-sized variant (short sine trace,
analytic Table-I models instead of offline training).
"""

import os
import sys

from repro.analysis.tables import render_sparkline, render_table
from repro.analysis.timeseries import response_time_series
from repro.model import ground_truth_models
from repro.runner import trained_models
from repro.scenario import Deployment, ScenarioSpec
from repro.workload import large_variation, sine_trace

QUICK = os.environ.get("REPRO_EXAMPLES_QUICK", "") == "1"


def main() -> None:
    if QUICK:
        scale = 8.0
        trace = sine_trace(120.0, 60.0, 0.3, 0.9)
        max_users = 300
        models = ground_truth_models(scale)
    else:
        scale = float(sys.argv[2]) if len(sys.argv) > 2 else 4.0
        max_users = int(sys.argv[1]) if len(sys.argv) > 1 else int(5920 / scale)
        trace = large_variation()
        print(f"offline model training at demand_scale={scale} "
              "(one-time, ~2 min)...")
        models = trained_models(demand_scale=scale, seed=0)

    runs = {}
    for controller in ("ec2", "dcm"):
        print(f"running {controller} against the trace "
              f"({trace.duration:.0f} s, peak {max_users} users) ...")
        spec = ScenarioSpec(
            controller=controller, workload="trace", trace=trace,
            max_users=max_users, seed=7, demand_scale=scale, models=models,
        )
        with Deployment(spec) as dep:
            dep.run()
        runs[controller] = dep

    reports = {name: dep.stability_report() for name, dep in runs.items()}
    rows = [
        [label, getattr(reports["dcm"], attr), getattr(reports["ec2"], attr)]
        for label, attr in [
            ("mean RT (s)", "mean_response_time"),
            ("p95 RT (s)", "p95_response_time"),
            ("p99 RT (s)", "p99_response_time"),
            ("max RT (s)", "max_response_time"),
            ("RT spikes > 1s (episodes)", "spike_episodes"),
            ("seconds in spike", "spike_seconds"),
            ("SLA violations (frac > 1s)", "sla_violation_fraction"),
            ("mean throughput (req/s)", "throughput_mean"),
            ("VM-seconds", "vm_seconds"),
        ]
    ]
    print(render_table(["metric", "DCM", "EC2-AutoScale"], rows,
                       title="\n== stability & efficiency =="))

    for name, dep in runs.items():
        rt = response_time_series(dep.system.request_log, dep.duration, 5.0,
                                  percentile=95.0)
        print(f"\n{name} p95 RT over time: {render_sparkline(rt.values)}")
        print(f"{name} app VMs: {dep.controller.scaling_timeline('app')}")
        print(f"{name} db  VMs: {dep.controller.scaling_timeline('db')}")
    print("\nDCM soft-resource re-allocations:")
    for e in runs["dcm"].system.control_log:
        if e.actor == "app-agent" and e.kind == "apply":
            print(f"  t={e.time:6.1f}s  ->  {e.detail}")


if __name__ == "__main__":
    main()
