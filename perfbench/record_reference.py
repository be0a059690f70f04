"""Record ``reference.json``: ``python3 perfbench/record_reference.py``.

Simulates every workload on the simulation seeds of its default and
held-out run seeds and stores each seed's ``sim.*`` statistics.  The
tolerance of a statistic is an absolute deviation: five standard deviations
across those seeds, and at least 2 % of their mean; a statistic that is zero
on every seed must stay exactly zero.  A change that only speeds the
simulator up reproduces the reference exactly; the tolerance admits changes
that move tie-breaks and so resample the same distribution.
"""

from __future__ import annotations

import json
import statistics
import sys

import outcome as oc
import run
from workloads import SEEDS, build_spec

STATS = ("completed", "goodput_rps", "rt_p50_ms", "rt_p99_ms",
         "sla_violation_pct", "fail_pct", "vm_seconds")


def tolerance(values) -> float:
    return max(5.0 * statistics.stdev(values), 0.02 * abs(statistics.fmean(values)))


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    ref = {"tolerance": {}, "workloads": {}}
    for name, run_seeds in SEEDS.items():
        per_seed = {}
        for run_seed in run_seeds:
            for i in range(run.SEEDS_PER_RUN):
                seed = run_seed * 100 + i
                child = run.spawn(build_spec(name, seed).to_json(), "timed")
                if child["problems"]:
                    raise SystemExit(f"{name} seed {seed}: {child['problems']}")
                stats = oc.pool([child["outcome"]])
                per_seed[str(seed)] = {k: stats[k] for k in STATS}
                print(name, seed, per_seed[str(seed)], flush=True)
        ref["workloads"][name] = per_seed
        ref["tolerance"][name] = {
            k: tolerance([s[k] for s in per_seed.values()]) for k in STATS
        }
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
