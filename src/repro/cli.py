"""Command-line interface: ``python -m repro <command> ...``.

Gives operators the library's main entry points without writing Python:

``steady``
    Run a fixed topology under a static RUBBoS population and print the
    steady-state table.
``knee``
    Direct-stress a tier across concurrency levels (the Fig 2(a) method).
``train``
    Train the concurrency-aware model per tier and print the Table-I row.
``predict``
    Analytic operating-point prediction (no simulation) across user levels.
``autoscale``
    Replay a trace against a controller ("dcm" / "ec2" / "predictive") and
    print the stability report; optionally save the full artefact JSON.
``sweep``
    Run a population sweep from flags, printing the per-point table and
    engine telemetry (``repro scenario run`` takes a spec file).
``scenario``
    Assemble and run a declarative :class:`repro.scenario.ScenarioSpec`
    from a JSON file through the composition root: ``repro scenario run
    spec.json``.  Prints completion/failure/shed counts, the fault
    injection log, and (with a controller) billed VM-seconds and the
    final app and db server counts.  ``repro scenario run --list`` prints
    every registered controller, workload, fault kind, and resilience
    policy.
``trace``
    Export a built-in workload trace to CSV (or describe it).
``lint``
    Static determinism lint (rules DCM001–DCM010) over source trees;
    defaults to the installed ``repro`` package.  ``--deep`` adds the
    interprocedural dataflow analyses (DCM101–DCM103) with optional
    ``--sarif`` output.  Exits 1 on any finding.
``check``
    Sanitized smoke checks: two-run determinism digest, runtime invariant
    sanitizer, and a VM lifecycle/billing audit.  Exits 1 on failure.
``audit``
    Differential validation & scenario fuzzing (:mod:`repro.audit`):
    ``repro audit --budget N --seed S`` draws N random scenarios across
    the property catalogue (analytical M/M/c oracle, metamorphic and
    conservation properties), shrinks any failure to a minimal JSON spec
    under ``--save-failures``, and exits 1.  ``--properties NAMES``
    restricts the draw (the nightly fault budget passes
    ``--properties fault_conservation``).  ``repro audit replay
    SPEC`` re-checks a saved spec file or a directory of them (e.g. the
    committed ``tests/audit_corpus/``).
``lab``
    Manifest-driven experiment suites on the content-addressed artifact
    store (:mod:`repro.lab`).  ``repro lab run benchmarks/suite.py -k
    fig5`` runs a selection of the committed suite, emits the rendered
    artefacts under ``out/`` beside the manifest, and writes a provenance
    run index; ``--baseline RUN`` diffs the fresh run against a recorded
    one (exit 1 on deltas) and ``--save-baseline FILE`` commits the new
    index.  ``repro lab diff A B`` compares two run indexes (run ids or
    index paths) artifact by artifact with per-metric deltas and store
    integrity verification; ``repro lab gc`` sweeps unreachable store
    objects (stale version, corrupt, orphaned tmp, legacy flat-layout
    entries) and prunes old runs; ``repro lab stats`` prints store
    occupancy.

Every simulation command routes through the experiment engine
(:mod:`repro.runner`): ``--jobs N`` fans points out over N worker
processes, point results live in the artifact store at
``$REPRO_CACHE_DIR`` (default ``benchmarks/out/.cache`` at the repo root),
and ``--no-cache`` runs without a store — results are bit-identical
either way.  Every command accepts ``--seed`` and
honours determinism; heavy commands accept ``--demand-scale`` (see
DESIGN.md §2).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import repro
from repro.analysis.persistence import save_curve, save_run
from repro.analysis.tables import render_sparkline, render_table
from repro.model import predict_curve, specs_from_system
from repro.ntier import HardwareConfig, SoftResourceConfig
from repro.runner import (
    default_cache_dir,
    run,
    run_many,
    stress_sweep,
    sweep_points,
    sweep_specs,
    trained_models,
    training_outcome,
    training_specs,
)
from repro.scenario import ScenarioSpec, build_system
from repro.workload import large_variation, sine_trace, spike_trace

#: Built-in traces addressable from the CLI.
TRACES = {
    "large_variation": large_variation,
    "sine": lambda: sine_trace(600.0, 300.0, 0.3, 0.9),
    "spike": lambda: spike_trace(300.0, 0.3, 0.9, 120.0, 60.0),
}


def _int_list(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints: {err}")


def _engine_kwargs(args: argparse.Namespace) -> dict:
    from repro.lab import ArtifactStore

    store = None if args.no_cache else ArtifactStore(default_cache_dir())
    return {"jobs": args.jobs, "store": store}


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DCM (ICDCS 2017) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def engine(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="worker processes for simulation points (default 1)",
        )
        p.add_argument(
            "--no-cache", action="store_true",
            help="run without the artifact store (no point lookups or writes)",
        )

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="root RNG seed")
        p.add_argument(
            "--demand-scale", type=float, default=1.0,
            help="multiply CPU demands (speed knob; knees invariant)",
        )
        engine(p)

    p = sub.add_parser("steady", help="steady-state run of a fixed topology")
    common(p)
    p.add_argument("--hardware", default="1/1/1", help="#W/#A/#D")
    p.add_argument("--soft", default="1000/100/80", help="#W_T/#A_T/#A_C")
    p.add_argument("--users", type=int, default=1500)
    p.add_argument("--think-time", type=float, default=3.0)
    p.add_argument("--warmup", type=float, default=5.0)
    p.add_argument("--duration", type=float, default=20.0)

    p = sub.add_parser("knee", help="stress one tier across concurrencies")
    common(p)
    p.add_argument("--tier", choices=("app", "db"), default="db")
    p.add_argument(
        "--levels", type=_int_list,
        default=[1, 5, 10, 20, 40, 80, 160, 320, 600],
    )
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--csv", help="write the curve to this CSV path")

    p = sub.add_parser("train", help="train the concurrency-aware model")
    common(p)
    p.add_argument("--tier", choices=("app", "db", "both"), default="both")

    p = sub.add_parser("predict", help="analytic prediction (no simulation)")
    common(p)
    p.add_argument("--hardware", default="1/1/1")
    p.add_argument("--soft", default="1000/100/80")
    p.add_argument("--users", type=_int_list, default=[500, 1500, 3000, 6000])
    p.add_argument("--think-time", type=float, default=3.0)

    p = sub.add_parser("autoscale", help="replay a trace against a controller")
    common(p)
    p.add_argument("--controller", choices=("dcm", "ec2", "predictive"), default="dcm")
    p.add_argument("--trace", choices=sorted(TRACES), default="large_variation")
    p.add_argument("--max-users", type=int, default=None,
                   help="population at trace level 1.0 (default 5920/scale)")
    p.add_argument("--out", help="write the run artefact JSON here")

    p = sub.add_parser("sweep", help="population sweep against the full system")
    common(p)
    p.add_argument("--users", type=_int_list, default=[100, 400, 1600],
                   help="comma-separated user levels")
    p.add_argument("--workload", choices=("jmeter", "rubbos"), default="jmeter")
    p.add_argument("--hardware", default="1/1/1", help="#W/#A/#D")
    p.add_argument("--soft", default="1000/100/80", help="#W_T/#A_T/#A_C")
    p.add_argument("--think-time", type=float, default=3.0)
    p.add_argument("--warmup", type=float, default=4.0)
    p.add_argument("--duration", type=float, default=12.0)
    p.add_argument("--imbalance", type=float, default=0.05)

    p = sub.add_parser(
        "scenario", help="assemble and run a declarative scenario spec"
    )
    p.add_argument("action", choices=["run"], help="what to do with the spec")
    p.add_argument(
        "spec", nargs="?", metavar="SPEC_JSON",
        help="path to a ScenarioSpec JSON file",
    )
    p.add_argument(
        "--until", type=float, default=None, metavar="T",
        help="override the run horizon (absolute simulated seconds)",
    )
    p.add_argument(
        "--list", action="store_true", dest="list_registries",
        help="list registered controllers, workloads, fault kinds, and "
             "resilience policies, then exit",
    )

    p = sub.add_parser("trace", help="export or describe a built-in trace")
    engine(p)
    p.add_argument("--name", choices=sorted(TRACES), default="large_variation")
    p.add_argument("--csv", help="write the trace to this CSV path")

    p = sub.add_parser(
        "lint", help="static determinism lint (DCM001-DCM010, deep DCM10x)"
    )
    p.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the repro package)",
    )
    p.add_argument(
        "--select", type=lambda s: [c for c in s.split(",") if c],
        default=None, metavar="CODES",
        help="comma-separated rule codes to enable (default: all)",
    )
    p.add_argument(
        "--rules", action="store_true",
        help="print the rule table and exit",
    )
    p.add_argument(
        "--deep", action="store_true",
        help="also run the interprocedural dataflow analyses "
             "(DCM101 resource leaks, DCM102 yield protocol, "
             "DCM103 nondeterminism taint)",
    )
    p.add_argument(
        "--sarif", metavar="FILE", default=None,
        help="write findings as a SARIF 2.1.0 document to FILE",
    )

    p = sub.add_parser(
        "check", help="sanitized determinism + invariant smoke checks"
    )
    p.add_argument("--seed", type=int, default=0, help="root RNG seed")
    p.add_argument(
        "--demand-scale", type=float, default=1.0,
        help="multiply CPU demands (speed knob; knees invariant)",
    )

    p = sub.add_parser(
        "audit", help="differential validation & scenario fuzzing"
    )
    p.add_argument(
        "action", nargs="?", default="run", choices=("run", "replay"),
        help="'run' fuzzes fresh scenarios; 'replay' re-checks saved specs",
    )
    p.add_argument(
        "spec", nargs="?", metavar="SPEC",
        help="scenario JSON file or directory of them (replay only)",
    )
    p.add_argument("--seed", type=int, default=0, help="fuzzer root seed")
    p.add_argument(
        "--budget", type=int, default=50, metavar="N",
        help="number of scenarios to generate (default 50)",
    )
    p.add_argument(
        "--save-failures", metavar="DIR", default="audit_failures",
        help="write minimized failing specs here (default audit_failures/)",
    )
    p.add_argument(
        "--max-shrink-runs", type=int, default=48, metavar="N",
        help="re-check budget per failing scenario during shrinking",
    )
    p.add_argument(
        "--properties", type=lambda s: [n for n in s.replace(",", " ").split() if n],
        default=None, metavar="NAMES",
        help="restrict generation to these property names "
             "(comma-separated; default: the full weighted mix)",
    )
    engine(p)

    p = sub.add_parser(
        "lab", help="manifest-driven suites on the artifact store"
    )
    lab_sub = p.add_subparsers(dest="lab_action", required=True)

    def store_opt(lp: argparse.ArgumentParser) -> None:
        lp.add_argument(
            "--store", metavar="DIR", default=None,
            help="artifact store root (default: out/.cache beside the "
                 "manifest, or benchmarks/out/.cache at the repo root)",
        )

    lp = lab_sub.add_parser("run", help="run a suite manifest")
    lp.add_argument("manifest", metavar="MANIFEST",
                    help="suite .py file (its build_suite()) or a "
                         "repro-lab/1 JSON manifest")
    lp.add_argument("-k", dest="keyword", default=None, metavar="SUBSTR",
                    help="select experiments whose name contains SUBSTR")
    lp.add_argument("--tags", default=None, metavar="T[,T...]",
                    help="select experiments carrying any of these tags")
    lp.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes per engine batch (default 1)")
    lp.add_argument("--no-cache", action="store_true",
                    help="bypass the artifact store entirely")
    lp.add_argument("--reanalyze", action="store_true",
                    help="re-run analyses (and their assertions) even when "
                         "every artifact is already stored")
    lp.add_argument("--out", metavar="DIR", default=None,
                    help="rendered-artefact directory (default: out/ beside "
                         "the manifest)")
    lp.add_argument("--quiet", action="store_true",
                    help="suppress per-artifact banners and telemetry")
    lp.add_argument("--baseline", metavar="RUN", default=None,
                    help="after running, diff against this run id or index "
                         "path; exit 1 on deltas")
    lp.add_argument("--save-baseline", metavar="FILE", default=None,
                    help="also write the new run index to FILE")
    store_opt(lp)

    lp = lab_sub.add_parser("diff", help="compare two lab run indexes")
    lp.add_argument("run_a", metavar="RUN_A",
                    help="run id in the store, or path to an index JSON")
    lp.add_argument("run_b", metavar="RUN_B",
                    help="run id in the store, or path to an index JSON")
    store_opt(lp)

    lp = lab_sub.add_parser("gc", help="sweep unreachable store objects")
    lp.add_argument("--keep-runs", type=int, default=None, metavar="N",
                    help="also prune run indexes beyond the newest N")
    lp.add_argument("--dry-run", action="store_true",
                    help="count, but remove nothing")
    store_opt(lp)

    lp = lab_sub.add_parser("stats", help="store occupancy counters")
    store_opt(lp)

    return parser


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _steady_rows(steady) -> List[List[object]]:
    rows = [
        ["throughput (req/s)", steady.throughput],
        ["mean RT (s)", steady.mean_response_time],
        ["completed", float(steady.completed)],
        ["failed", float(steady.failed)],
    ]
    for tier in ("web", "app", "db"):
        rows.append([f"{tier} concurrency", steady.tier_concurrency[tier]])
        rows.append([f"{tier} cpu util", steady.tier_utilization[tier]])
    return rows


def cmd_steady(args: argparse.Namespace) -> int:
    spec = ScenarioSpec(
        hardware=args.hardware,
        soft=args.soft,
        users=args.users,
        workload="rubbos",
        think_time=args.think_time,
        seed=args.seed,
        demand_scale=args.demand_scale,
        monitoring=False,
        warmup=args.warmup,
        duration=args.duration,
    )
    res = run(spec, **_engine_kwargs(args))
    print(render_table(["metric", "value"], _steady_rows(res.value.steady),
                       title=f"steady state: {args.hardware} @ {args.soft}, "
                             f"{args.users} users"))
    print(res.telemetry.render())
    return 0


def cmd_knee(args: argparse.Namespace) -> int:
    res = stress_sweep(
        args.tier,
        args.levels,
        seed=args.seed,
        demand_scale=args.demand_scale,
        duration=args.duration,
        **_engine_kwargs(args),
    )
    points = res.value
    rows = [[p.target_concurrency, p.measured_concurrency, p.throughput]
            for p in points]
    print(render_table(
        ["concurrency", "measured", "throughput (req/s)"], rows,
        title=f"{args.tier} concurrency sweep",
    ))
    print("shape:", render_sparkline([p.throughput for p in points]))
    best = max(points, key=lambda p: p.throughput)
    print(f"knee ~ {best.target_concurrency} at {best.throughput:.0f} req/s")
    print(res.telemetry.render())
    if args.csv:
        save_curve(args.csv, "concurrency",
                   [(p.target_concurrency, p.throughput) for p in points],
                   y_label="throughput")
        print(f"curve written to {args.csv}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    tiers = ("app", "db") if args.tier == "both" else (args.tier,)
    specs = {
        tier: training_specs(tier, seed=args.seed, demand_scale=args.demand_scale)
        for tier in tiers
    }
    res = run_many(
        [spec for tier in tiers for spec in specs[tier]], **_engine_kwargs(args)
    )
    values = iter(res.value)
    for tier in tiers:
        results = [next(values) for _ in specs[tier]]
        print(training_outcome(tier, results).fit.summary())
    print(res.telemetry.render())
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    _env, system = build_system(
        hardware=HardwareConfig.parse(args.hardware),
        soft=SoftResourceConfig.parse(args.soft),
        seed=args.seed,
        demand_scale=args.demand_scale,
    )
    specs = specs_from_system(system)
    curve = predict_curve(args.users, args.think_time, specs)
    rows = [
        [p.users, p.throughput, p.response_time,
         "yes" if p.saturated else "no", p.bottleneck]
        for p in curve
    ]
    print(render_table(
        ["users", "throughput", "RT (s)", "saturated", "bottleneck"], rows,
        title=f"analytic prediction: {args.hardware} @ {args.soft}",
    ))
    return 0


def cmd_autoscale(args: argparse.Namespace) -> int:
    trace = TRACES[args.trace]()
    max_users = args.max_users or max(1, int(5920 / args.demand_scale))
    print("training offline models (once per scale) ...", file=sys.stderr)
    models = trained_models(args.demand_scale, args.seed)
    spec = ScenarioSpec(
        controller=args.controller,
        workload="trace",
        trace=trace,
        max_users=max_users,
        seed=args.seed,
        demand_scale=args.demand_scale,
        models=models,
    )
    res = run(spec, **_engine_kwargs(args))
    dep = res.value
    print(render_table(
        ["metric", "value"], dep.stability_report().rows(),
        title=f"{args.controller} on {args.trace} ({max_users} peak users)",
    ))
    for tier in ("app", "db"):
        print(f"{tier} VMs: {dep.controller.scaling_timeline(tier)}")
    print(res.telemetry.render())
    if args.out:
        save_run(dep, args.out)
        print(f"artefact written to {args.out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    specs = sweep_specs(
        args.users,
        hardware=args.hardware,
        soft=args.soft,
        workload=args.workload,
        think_time=args.think_time,
        seed=args.seed,
        demand_scale=args.demand_scale,
        warmup=args.warmup,
        duration=args.duration,
        imbalance=args.imbalance,
    )
    res = run_many(specs, **_engine_kwargs(args))
    rows = [
        [p.users, p.steady.throughput, p.steady.mean_response_time,
         p.steady.tier_concurrency["app"], p.steady.tier_concurrency["db"]]
        for p in sweep_points(specs, res.value)
    ]
    print(render_table(
        ["users", "throughput", "RT (s)", "app conc", "db conc"], rows,
        title=(f"{args.workload} sweep: {args.hardware} @ {args.soft}, "
               f"seed {args.seed}"),
    ))
    print(res.telemetry.render())
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    from repro.lab import render_scenario_report, scenario_report_payload
    from repro.scenario import Deployment, ScenarioSpec, registries

    if args.list_registries:
        rows = [
            [group, name]
            for group, registry in sorted(registries().items())
            for name in registry.names()
        ]
        print(render_table(["registry", "name"], rows,
                           title="scenario registries"))
        return 0
    if args.spec is None:
        raise SystemExit("repro scenario run: a SPEC_JSON file is required "
                         "(or pass --list to see the registries)")
    spec = ScenarioSpec.from_json(Path(args.spec).read_text())
    with Deployment(spec) as dep:
        dep.run(until=args.until)
    print(render_scenario_report(Path(args.spec).name,
                                 scenario_report_payload(dep, args.until)))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    trace = TRACES[args.name]()
    print(f"{args.name}: duration {trace.duration:.0f}s, "
          f"peak-to-mean {trace.peak_to_mean:.2f}")
    levels = [lvl for _t, lvl in trace.sample(max(1.0, trace.duration / 60))]
    print("shape:", render_sparkline(levels))
    if args.csv:
        trace.to_csv(args.csv)
        print(f"trace written to {args.csv}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.check import RULES, lint_paths, render_diagnostics
    from repro.check.flow import FLOW_RULES

    if args.rules:
        rows = [[r.code, r.name, r.summary] for r in (*RULES, *FLOW_RULES)]
        print(render_table(["code", "name", "catches"], rows,
                           title="determinism lint rules"))
        return 0
    paths = args.paths or [os.path.dirname(os.path.abspath(repro.__file__))]
    diagnostics = lint_paths(paths, select=args.select, deep=args.deep)

    if args.sarif:
        from repro.check.flow.sarif import write_sarif

        write_sarif(diagnostics, (*RULES, *FLOW_RULES), args.sarif)
        print(f"SARIF report written to {args.sarif}")

    if diagnostics:
        print(render_diagnostics(diagnostics))
        print(f"{len(diagnostics)} finding(s); "
              "suppress a line with '# repro: noqa[DCM00x]' plus a reason")
        return 1
    print("determinism lint: clean")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from repro.check import run_smoke

    outcomes = run_smoke(seed=args.seed, demand_scale=args.demand_scale)
    rows = [[o.name, "PASS" if o.passed else "FAIL", o.detail]
            for o in outcomes]
    print(render_table(["check", "verdict", "detail"], rows,
                       title=f"sanitized smoke checks (seed {args.seed})"))
    return 0 if all(o.passed for o in outcomes) else 1


def _audit_spec_paths(spec: Optional[str]) -> List[Path]:
    if spec is None:
        raise SystemExit("repro audit replay: a spec file or directory is required")
    path = Path(spec)
    if path.is_dir():
        found = sorted(path.glob("*.json"))
        if not found:
            raise SystemExit(f"repro audit replay: no *.json specs in {path}")
        return found
    if not path.exists():
        raise SystemExit(f"repro audit replay: {path} does not exist")
    return [path]


def cmd_audit(args: argparse.Namespace) -> int:
    from repro.audit import Scenario, generate_scenarios, run_scenario, shrink

    engine_kwargs = _engine_kwargs(args)

    if args.action == "replay":
        rows = []
        failed = 0
        for path in _audit_spec_paths(args.spec):
            scenario = Scenario.load(path)
            result = run_scenario(scenario, **engine_kwargs)
            rows.append([path.name, scenario.property,
                         "PASS" if result.passed else "FAIL"])
            if not result.passed:
                failed += 1
                for failure in result.failures:
                    print(f"{path.name}: {failure}", file=sys.stderr)
        print(render_table(["spec", "property", "verdict"], rows,
                           title="audit corpus replay"))
        return 1 if failed else 0

    scenarios = generate_scenarios(args.seed, args.budget, properties=args.properties)
    rows = []
    failing: List[Scenario] = []
    for i, scenario in enumerate(scenarios):
        result = run_scenario(scenario, **engine_kwargs)
        rows.append([str(i), scenario.property,
                     "PASS" if result.passed else "FAIL"])
        if not result.passed:
            failing.append(scenario)
            for failure in result.failures:
                print(f"scenario {i} ({scenario.property}): {failure}",
                      file=sys.stderr)
    print(render_table(["#", "property", "verdict"], rows,
                       title=f"audit: seed {args.seed}, budget {args.budget}"))
    if not failing:
        print(f"audit: all {len(scenarios)} scenarios passed")
        return 0

    out_dir = Path(args.save_failures)
    out_dir.mkdir(parents=True, exist_ok=True)
    for scenario in failing:
        small, runs = shrink(
            scenario, max_runs=args.max_shrink_runs, **engine_kwargs
        )
        dest = out_dir / f"{small.property}-{small.seed}.json"
        small.save(dest)
        print(f"audit: shrunk {scenario.property} failure in {runs} runs "
              f"-> {dest}", file=sys.stderr)
    print(f"audit: {len(failing)}/{len(scenarios)} scenarios FAILED; "
          f"minimized specs in {out_dir}/", file=sys.stderr)
    return 1


def _lab_store_dir(args: argparse.Namespace) -> str:
    return args.store or default_cache_dir()


def _lab_run(args: argparse.Namespace) -> int:
    import json

    from repro.lab import SuiteManifest, diff_runs, manifest_roots, run_suite

    manifest_path = os.path.abspath(args.manifest)
    # Dotted analysis refs ("benchmarks.analyses:fig5") and a suite .py
    # file's own imports resolve relative to the manifest's repository,
    # not the caller's cwd.
    manifest_dir = os.path.dirname(manifest_path)
    for entry in (os.path.dirname(manifest_dir), manifest_dir):
        if entry and entry not in sys.path:
            sys.path.insert(0, entry)
    manifest = SuiteManifest.load(manifest_path)
    out_default, store_default = manifest_roots(manifest_path)
    tags = tuple(t for t in (args.tags or "").split(",") if t)

    suite_run = run_suite(
        manifest,
        out_dir=args.out or out_default,
        store_dir=None if args.no_cache else (args.store or store_default),
        jobs=args.jobs,
        reanalyze=args.reanalyze,
        quiet=args.quiet,
        keyword=args.keyword,
        tags=tags,
    )

    rows = []
    for result in suite_run.results.values():
        rows.append([
            result.name, result.status,
            f"{result.points_hits}/{result.points_misses}",
            f"{result.analyses_hits}/{result.analyses_misses}",
            result.error or "-",
        ])
    print(render_table(
        ["experiment", "status", "points h/m", "analyses h/m", "error"],
        rows, title=f"lab run {suite_run.run_id}: {suite_run.suite}",
    ))
    if suite_run.index_path:
        print(f"run index written to {suite_run.index_path}")

    if args.save_baseline:
        with open(args.save_baseline, "w", encoding="utf-8") as fh:
            json.dump(suite_run.index, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline written to {args.save_baseline}")

    if not suite_run.ok:
        return 1
    if args.baseline:
        store = suite_run.store
        if store is None:
            raise SystemExit("repro lab run: --baseline needs the store "
                             "(drop --no-cache)")
        base_index = store.read_run_index(args.baseline)
        if args.keyword or tags:
            # A selected run covers a subset of the suite; diff only the
            # experiments (and comparisons) it actually produced, so a
            # full-suite baseline does not fail the subset on "removed".
            base_index = dict(base_index)
            for section in ("experiments", "comparisons"):
                ours = suite_run.index.get(section) or {}
                base_index[section] = {
                    name: rec
                    for name, rec in (base_index.get(section) or {}).items()
                    if name in ours
                }
        report = diff_runs(store, base_index, suite_run.index)
        print(report.render())
        return 0 if report.empty else 1
    return 0


def cmd_lab(args: argparse.Namespace) -> int:
    from repro.lab import ArtifactStore, diff_runs

    if args.lab_action == "run":
        return _lab_run(args)

    store = ArtifactStore(_lab_store_dir(args))
    if args.lab_action == "diff":
        report = diff_runs(
            store,
            store.read_run_index(args.run_a),
            store.read_run_index(args.run_b),
        )
        print(report.render())
        return 0 if report.empty else 1
    if args.lab_action == "gc":
        removed = store.gc(keep_runs=args.keep_runs, dry_run=args.dry_run)
        verb = "would remove" if args.dry_run else "removed"
        print(f"lab gc ({store.root}): " + ", ".join(
            f"{count} {category}" for category, count in sorted(removed.items())
        ) + f" {verb}")
        return 0
    stats = store.stats()
    rows = [[name, stats[name]] for name in sorted(stats)]
    print(render_table(["stat", "value"], rows,
                       title=f"lab store: {store.root}"))
    return 0


_COMMANDS = {
    "steady": cmd_steady,
    "knee": cmd_knee,
    "train": cmd_train,
    "predict": cmd_predict,
    "autoscale": cmd_autoscale,
    "scenario": cmd_scenario,
    "sweep": cmd_sweep,
    "trace": cmd_trace,
    "lint": cmd_lint,
    "check": cmd_check,
    "audit": cmd_audit,
    "lab": cmd_lab,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
