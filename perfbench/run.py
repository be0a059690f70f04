"""The simulator's benchmark: ``python3 perfbench/run.py``.

    python3 perfbench/run.py --workload fig5-dcm --seed 7 --seconds 30 --trace 0

Runs one workload of :mod:`workloads` through ``ScenarioSpec`` ->
``Deployment(spec).run()``, each simulation in its own single-threaded
process (:mod:`child`), one after another.  A run simulates ``SEEDS_PER_RUN``
seeds derived from ``--seed`` (``seed * 100 + i``) and pools their simulated
outcomes; it keeps cycling through them for ``--seconds`` of host time so the
host-time medians rest on several processes.

Host times are reported in *nominal* seconds (:mod:`hostspeed`), which
follow the simulator's cost while the host's own speed drifts.  The raw rate
is printed per layer (``host.raw_req_per_s``).

``--trace 0`` prints the end-to-end metrics of :data:`metrics.END_TO_END`;
``--trace 1`` runs the first seed once plainly and once under the profiler
and prints :data:`metrics.PER_LAYER`.  Every simulation is checked
(conservation and ledgers, same seed -> same outcome, traced == untraced,
and the recorded reference in ``reference.json`` where the seed has one).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 with a result line; 1 when a simulation process fails; 2 on a
usage error or when the simulator's sources are not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import outcome as oc
from hostspeed import NOMINAL
from layers import SPAN_TARGETS
from metrics import END_TO_END, LAYERS, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Simulations pooled into one run's simulated outcome.
SEEDS_PER_RUN = 3
#: Set-up-only processes started before the timed ones (they also leave the
#: byte-code caches warm); each timed process adds one more set-up sample.
SETUP_ONLY = 2
#: A simulation process that outlives this is killed and fails the run.
CHILD_TIMEOUT_S = 150.0


class ChildFailed(RuntimeError):
    """A simulation process crashed, hung or printed no result."""


def child_env() -> Dict[str, str]:
    """This process's environment without the simulator's ``REPRO_*``
    switches (scheduler choice, runtime sanitizer, caches)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def spawn(spec_json: str, mode: str, spans: Optional[Path] = None) -> dict:
    """Run one :mod:`child` process; returns its result plus ``setup_s``,
    the host seconds from starting the process to its ``READY``."""
    request = json.dumps({"spec": spec_json, "mode": mode,
                          "spans": None if spans is None else str(spans)})
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=str(ROOT),
        env=child_env(), text=True,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(request)
        proc.stdin.close()
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        line = proc.stdout.readline() if ready == "READY\n" else ""
        proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready != "READY\n" or code != 0 or not line:
        raise ChildFailed(f"{mode} simulation process failed (exit {code})")
    result = json.loads(line)
    result["setup_s"] = setup_s
    return result


def load_reference(workload: str) -> tuple:
    """``(tolerance, {sim seed: stats})`` recorded for ``workload``."""
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    return ref["tolerance"].get(workload, {}), ref["workloads"].get(workload, {})


def sim_problems(workload: str, children: List[dict]) -> List[str]:
    """Checks across the simulations of one run: each child's own books,
    identical outcomes for identical seeds, and the recorded reference."""
    tolerance, reference = load_reference(workload)
    problems: List[str] = []
    first: Dict[int, dict] = {}
    for child in children:
        seed = child["seed"]
        problems += [f"seed {seed}: {p}" for p in child["problems"]]
        out = child["outcome"]
        if seed not in first:
            first[seed] = out
            ref = reference.get(str(seed))
            if ref is not None:
                got = oc.pool([out])
                problems += [f"seed {seed}: {p}"
                             for p in oc.compare_reference(got, ref, tolerance)]
        elif (out["sim"], out["events"]) != (first[seed]["sim"], first[seed]["events"]):
            problems.append(f"seed {seed}: two runs of one seed disagree")
    return problems


def timed_run(specs: Dict[int, str], seconds: float) -> tuple:
    """Plain simulations for ``seconds``; returns (children, set-up samples)."""
    first_spec = next(iter(specs.values()))
    setups = [spawn(first_spec, "setup") for _ in range(SETUP_ONLY)]
    seeds = list(specs)
    children: List[dict] = []
    start = time.perf_counter()
    while True:
        seed = seeds[len(children) % len(seeds)]
        children.append(spawn(specs[seed], "timed"))
        setups.append(children[-1])
        elapsed = time.perf_counter() - start
        per_child = elapsed / len(children)
        if len(children) >= len(seeds) and elapsed + per_child > seconds:
            return children, setups


def nominal_rate(child: dict) -> float:
    """Completed simulated requests per nominal host second."""
    return child["outcome"]["sim"]["completed"] / child["nominal_s"]


def end_to_end(children: List[dict], setups: List[dict]) -> tuple:
    """(end-to-end metrics, pooled ``sim.*`` statistics) of a plain run."""
    by_seed: Dict[int, dict] = {}
    for child in children:
        by_seed.setdefault(child["seed"], child["outcome"])
    pooled = oc.pool([by_seed[s] for s in sorted(by_seed)])
    return {
        "req_per_host_s": statistics.median(nominal_rate(c) for c in children),
        "setup_s": statistics.median(
            s["setup_s"] * s["setup_speed"] / NOMINAL for s in setups),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        "sim.goodput_rps": pooled["goodput_rps"],
        "sim.rt_p50_ms": pooled["rt_p50_ms"],
        "sim.rt_p99_ms": pooled["rt_p99_ms"],
    }, pooled


def per_layer(plain: dict, traced: dict) -> Dict[str, float]:
    """Per-layer metrics from a plain and a traced run of one seed."""
    out = plain["outcome"]
    m = oc.layer_counts(out)
    stats = oc.pool([out])
    for key in ("rt_samples", "sla_violation_pct", "fail_pct", "vm_seconds"):
        m[f"sim.{key}"] = stats[key]
    m["host.raw_req_per_s"] = out["sim"]["completed"] / plain["run_s"]
    m["host.speed"] = plain["nominal_s"] * NOMINAL / plain["run_s"]
    m["host.ns_per_event"] = plain["nominal_s"] * 1e9 / out["events"]
    m["host.trace_overhead_x"] = traced["nominal_s"] / plain["nominal_s"]
    m["setup.import_s"] = plain["import_s"]
    m["setup.build_s"] = plain["build_s"]
    total = sum(traced["layer_s"].values())
    for layer in LAYERS:
        m[f"host.{layer}.self_pct"] = 100.0 * traced["layer_s"].get(layer, 0.0) / total
    for _owner, _method, span in SPAN_TARGETS:
        calls, ms = traced["spans"].get(span, (0, 0.0))
        m[f"{span}_calls"] = calls
        m[f"{span}_host_ms"] = ms
    return m


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, build_spec

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick from {WORKLOADS}",
              file=sys.stderr)
        return 2
    seeds = [args.seed * 100 + i for i in range(SEEDS_PER_RUN)]
    specs = {s: build_spec(args.workload, s).to_json() for s in seeds}

    try:
        if args.trace:
            spans = HERE / "out" / f"{args.workload}-{seeds[0]}.spans.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            plain = spawn(specs[seeds[0]], "timed")
            traced = spawn(specs[seeds[0]], "traced", spans)
            children = [plain, traced]
            problems = sim_problems(args.workload, children)
            values = per_layer(plain, traced)
            table = PER_LAYER
        else:
            children, setups = timed_run(specs, args.seconds)
            problems = sim_problems(args.workload, children)
            values, pooled = end_to_end(children, setups)
            table = END_TO_END
            print(f"{args.workload} seed {args.seed}: {len(children)} simulations "
                  f"of seeds {seeds}; pooled {pooled['rt_samples']} response "
                  f"times, SLA violations {pooled['sla_violation_pct']:.4f} %, "
                  f"failed {pooled['fail_pct']:.4f} %, "
                  f"{pooled['vm_seconds']:.1f} VM-s per simulation")
    except ChildFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, (unit, _better) in table.items():
        print(f"{name} = {values[name]!r} {unit}")
    attempted = sum(c["outcome"]["sim"]["submitted"] for c in children)
    failed = sum(c["outcome"]["sim"]["failed"] + c["outcome"]["sim"]["shed"]
                 for c in children)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _better) in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
