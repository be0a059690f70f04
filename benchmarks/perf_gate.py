"""The perf gate: the benchmark's ``req_per_host_s`` against a committed record.

    python3 benchmarks/perf_gate.py

``benchmarks/perf_record.json`` names the workloads the gate runs, each
with a seed and its recorded ``req_per_host_s``.  Every workload runs once
through ``BENCHMARK.json``'s ``command`` for its ``run_seconds``, and the
gate exits 1 when a run exits non-zero, reports a failed check
(``correct`` false), or measures ``req_per_host_s`` below the record by
more than the metric's ``BENCHMARK.json`` bound.

It prints one row per workload (record, measured, floor, verdict) and, as
its last line, the fresh record.  To re-record, save that line over
``benchmarks/perf_record.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
RECORD = ROOT / "benchmarks" / "perf_record.json"

#: The gated end-to-end metric.
METRIC = "req_per_host_s"

#: ``run(benchmark, workload, seed) -> (exit code, stdout)``.
Runner = Callable[[dict, str, int], Tuple[int, str]]


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def metric_bound(benchmark: dict) -> float:
    """The allowed fractional drop of :data:`METRIC`."""
    for entry in benchmark["end_to_end"]:
        if entry["name"] == METRIC:
            return float(entry["bound"])
    raise ValueError(f"BENCHMARK.json lists no end-to-end metric {METRIC!r}")


def check_record(record: dict, benchmark: dict) -> None:
    """Refuse a record the gate cannot compare against."""
    listed = {w["name"] for w in benchmark["workloads"]}
    for name, entry in record.items():
        if name not in listed:
            raise ValueError(
                f"record names workload {name!r}, which BENCHMARK.json does "
                f"not list ({sorted(listed)})"
            )
        value = entry.get(METRIC)
        if (not isinstance(entry.get("seed"), int)
                or not isinstance(value, (int, float)) or value <= 0):
            raise ValueError(
                f"record entry {name!r} needs an int seed and a positive "
                f"{METRIC}, got {entry!r}"
            )


def run_benchmark(benchmark: dict, workload: str, seed: int) -> Tuple[int, str]:
    """One run of the benchmark's own command; stderr passes through."""
    command = list(benchmark["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(benchmark["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def judge(recorded: float, bound: float, code: int,
          stdout: str) -> Tuple[Optional[float], float, str]:
    """``(measured, floor, verdict)``; the verdict is ``"ok"`` or why not."""
    floor = recorded * (1.0 - bound)
    if code != 0:
        return None, floor, f"FAIL (exit {code})"
    result = json.loads(stdout.strip().splitlines()[-1])
    measured = float(result["metrics"][METRIC]["value"])
    if not result["correct"]:
        return measured, floor, "FAIL (a check failed)"
    if measured < floor:
        return measured, floor, "FAIL (below floor)"
    return measured, floor, "ok"


def main(benchmark_path: Path = BENCHMARK, record_path: Path = RECORD,
         run: Runner = run_benchmark) -> int:
    benchmark = load_json(benchmark_path)
    record = load_json(record_path)
    check_record(record, benchmark)
    bound = metric_bound(benchmark)
    print(f"{'workload':<14} {'record':>10} {'measured':>10} {'floor':>10}  "
          f"verdict ({METRIC}, bound {bound:.0%})")
    fresh: Dict[str, dict] = {}
    verdicts: List[str] = []
    for name, entry in record.items():
        code, stdout = run(benchmark, name, entry["seed"])
        measured, floor, verdict = judge(entry[METRIC], bound, code, stdout)
        shown = "-" if measured is None else f"{measured:.1f}"
        print(f"{name:<14} {entry[METRIC]:>10.1f} {shown:>10} {floor:>10.1f}  "
              f"{verdict}")
        fresh[name] = {"seed": entry["seed"],
                       METRIC: None if measured is None else round(measured, 1)}
        verdicts.append(verdict)
    print(json.dumps(fresh, sort_keys=True))
    return 0 if all(v == "ok" for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
