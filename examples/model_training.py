#!/usr/bin/env python3
"""Train the concurrency-aware model exactly as Section V-A does.

Sweeps JMeter concurrency against the full system with the target tier as
the bottleneck, fits Eq (7) by least squares, and prints the Table-I-style
row: (S0, alpha, beta, R^2, N_b, X_max).  Takes a minute or two per tier —
it runs real closed-loop sweeps, not curve evaluations.

Usage::

    python examples/model_training.py [app|db|both]

Set ``REPRO_EXAMPLES_QUICK=1`` for the CI-sized variant (a thinned sweep;
the fitted parameters get noisier but the Table-I shape survives).
"""

import os
import sys

from repro.analysis.tables import render_table
from repro.model import AllocationPlanner
from repro.runner import run_many, training_outcome, training_specs

QUICK = os.environ.get("REPRO_EXAMPLES_QUICK", "") == "1"

PAPER = {
    "app": {"S0": 2.84e-2, "alpha": 9.87e-3, "beta": 4.54e-5, "gamma": 11.03,
            "R2": 0.96, "N_b": 20, "Xmax": 946},
    "db": {"S0": 7.19e-3, "alpha": 5.04e-3, "beta": 1.65e-6, "gamma": 4.45,
           "R2": 0.97, "N_b": 36, "Xmax": 865},
}


def main() -> None:
    which = sys.argv[1] if len(sys.argv) > 1 else "both"
    tiers = ("app", "db") if which == "both" else (which,)
    outcomes = {}
    for tier in tiers:
        print(f"training {tier} model (JMeter sweep; ~1 min) ...")
        specs = training_specs(
            tier,
            seed=0,
            levels=(1, 3, 8, 16, 25, 36, 55, 80, 110) if QUICK else None,
            warmup=2.0 if QUICK else 4.0,
            duration=8.0 if QUICK else 24.0,
        )
        outcomes[tier] = training_outcome(tier, run_many(specs).value)

    rows = []
    for tier, outcome in outcomes.items():
        fit = outcome.fit
        paper = PAPER[tier]
        rescaled = fit.model.rescaled(paper["gamma"])
        rows.append([f"{tier} S0 (x gamma)", paper["S0"], rescaled.s0])
        rows.append([f"{tier} alpha (x gamma)", paper["alpha"], rescaled.alpha])
        rows.append([f"{tier} beta (x gamma)", paper["beta"], rescaled.beta])
        rows.append([f"{tier} R^2", paper["R2"], fit.r_squared])
        rows.append([f"{tier} N_b", paper["N_b"], fit.model.optimal_concurrency_int()])
        rows.append([f"{tier} X_max", paper["Xmax"], fit.model.max_throughput()])
    print(render_table(["quantity", "paper", "measured"], rows,
                       title="\n== Table I reproduction =="))

    if len(outcomes) == 2:
        planner = AllocationPlanner(headroom=1.1)
        for k_app, k_db in ((1, 1), (2, 1), (2, 2), (3, 2)):
            plan = planner.plan(
                outcomes["app"].model, outcomes["db"].model, k_app, k_db,
                active_fraction=0.5,
            )
            print(f"topology 1/{k_app}/{k_db}: {plan.describe()}")


if __name__ == "__main__":
    main()
