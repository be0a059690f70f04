#!/usr/bin/env python3
"""Find a server's concurrency knee by direct stress (the Fig 2(a) method).

Stresses a standalone MySQL (or Tomcat) server with closed-loop query
streams whose population *is* the request-processing concurrency — the
paper's Section II-B methodology — and prints the throughput curve with its
measured knee, next to the analytic optimum from the ground-truth
contention law.

Usage::

    python examples/concurrency_knee.py [db|app]

Set ``REPRO_EXAMPLES_QUICK=1`` for the CI-sized variant.
"""

import os
import sys

from repro.analysis.tables import render_sparkline, render_table
from repro.ntier.contention import MYSQL_CONTENTION, TOMCAT_CONTENTION
from repro.runner import stress_sweep

QUICK = os.environ.get("REPRO_EXAMPLES_QUICK", "") == "1"


def main() -> None:
    tier = sys.argv[1] if len(sys.argv) > 1 else "db"
    if tier not in ("db", "app"):
        raise SystemExit("usage: concurrency_knee.py [db|app]")

    if QUICK:
        levels = (1, 5, 20, 40, 80, 160, 400)
        warmup, duration = 1.0, 3.0
    else:
        levels = (1, 2, 5, 10, 20, 30, 40, 60, 80, 120, 160, 240, 400, 600)
        warmup, duration = 3.0, 10.0
    print(f"stressing tier {tier!r} at concurrencies {levels} ...")
    points = stress_sweep(
        tier, levels, seed=1, warmup=warmup, duration=duration
    ).value

    rows = [
        [p.target_concurrency, p.measured_concurrency, p.throughput]
        for p in points
    ]
    print(render_table(
        ["target conc", "measured conc", "throughput (req/s)"],
        rows,
        precision=1,
        title=f"\n== {tier} throughput vs request-processing concurrency ==",
    ))
    print("shape:", render_sparkline([p.throughput for p in points]))

    best = max(points, key=lambda p: p.throughput)
    truth = MYSQL_CONTENTION if tier == "db" else TOMCAT_CONTENTION
    print(
        f"\nmeasured knee ~ {best.target_concurrency} "
        f"(analytic optimum of the ground-truth law: {truth.optimal_concurrency()}); "
        f"peak {best.throughput:.0f} req/s"
    )
    print(
        "both too little and too much concurrency hurt — the paper's Fig 2(a)."
    )


if __name__ == "__main__":
    main()
