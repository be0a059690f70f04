"""Analysis steps: functions from experiment values to lab artifacts.

An analysis is ``fn(ctx) -> dict`` where ``ctx`` is an
:class:`AnalysisContext` carrying the experiment's specs and their
executed values in entry order (a
:class:`~repro.runner.points.SteadyResult` per steady-state point, the
stopped :class:`~repro.scenario.Deployment` per full run).  The returned
dict becomes the artifact payload; recognised keys:

``text``
    Rendered report text — written to ``out/<name>.txt`` (plus trailing
    newline, exactly the historical benchmark ``emit`` contract) and
    echoed to stdout under a banner.
``metrics``
    Flat ``{name: number}`` dict; recorded in the run index and compared
    by ``repro lab diff``.
``data``
    Arbitrary JSON payload (figure data, run reports, ...).
``type``
    Artifact type (default ``"table"``).

Resolution: :func:`resolve_analysis` accepts a built-in name from
:data:`LAB_ANALYSES` or an importable ``"package.module:function"``
dotted reference (e.g. ``"benchmarks.analyses:fig5"``).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.registry import Registry

#: Built-in analysis name -> ``fn(ctx) -> payload dict``.
LAB_ANALYSES = Registry("lab analysis")


@dataclass
class AnalysisContext:
    """Everything an analysis function sees.

    ``store`` and ``jobs`` are the suite run's own, so an analysis that
    runs points itself (the Fig 2(a) stress harness) shares the store and
    the worker count.
    """

    suite: str
    experiment: str
    specs: Tuple[Any, ...]
    values: List[Any]
    params: Dict[str, Any] = field(default_factory=dict)
    store: Any = None
    jobs: int = 1

    def deployments(self) -> List[Any]:
        """The stopped deployments of the experiment's full runs — live
        objects: an analysis may settle their clocks further and read
        balancer/shard/cache state."""
        from repro.scenario import Deployment

        return [v for v in self.values if isinstance(v, Deployment)]


@dataclass
class CompareContext:
    """What a comparison analysis sees: per-experiment artifact records."""

    suite: str
    name: str
    #: experiment -> artifact name -> record dict (with "metrics", ...).
    experiments: Dict[str, Dict[str, Dict[str, Any]]]
    params: Dict[str, Any] = field(default_factory=dict)


def resolve_analysis(ref: str) -> Callable[[Any], Dict[str, Any]]:
    """A built-in name or a ``"module:function"`` dotted reference."""
    if ref in LAB_ANALYSES:
        return LAB_ANALYSES[ref]
    if ":" in ref:
        module_name, _, attr = ref.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError as err:
            raise ConfigurationError(
                f"analysis {ref!r}: cannot import {module_name!r}: {err}"
            ) from None
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise ConfigurationError(
                f"analysis {ref!r}: {module_name!r} has no callable {attr!r}"
            )
        return fn
    raise ConfigurationError(
        f"unknown analysis {ref!r}; built-ins: {LAB_ANALYSES.names()} "
        f"(or use a 'module:function' reference)"
    )


# ---------------------------------------------------------------------------
# Scenario reporting (satellite: per-tier resilience composition)
# ---------------------------------------------------------------------------

def scenario_report_payload(dep, horizon: Optional[float] = None) -> Dict[str, Any]:
    """JSON-safe summary of one stopped deployment run to ``horizon``
    (default: its duration), including the per-tier resilience policy
    composition (which chain wraps which tier, with per-policy dispatch
    counters) — the piece that makes fault suites diffable across runs.
    With a hypervisor it also carries the billed VM-seconds and the final
    app and db server counts."""
    system = dep.system
    if horizon is None:
        horizon = dep.duration
    payload: Dict[str, Any] = {
        "controller": dep.spec.controller,
        "workload": dep.spec.workload,
        "horizon": float(horizon),
        "completed": int(system.completed_count()),
        "failed": int(len(system.failure_log)),
        "shed": int(len(system.shed_log)),
    }
    if dep.injector is not None:
        payload["faults"] = [
            {"kind": e.kind, "phase": e.phase, "time": e.time}
            for e in dep.injector.log
        ]
    if dep.hypervisor is not None:
        payload["vm_seconds"] = dep.hypervisor.billing.vm_seconds(horizon)
        payload["servers"] = {
            tier: dep.controller.scaling_timeline(tier)[-1][1]
            for tier in ("app", "db")
        }
    if getattr(dep, "resilience_chains", None):
        payload["resilience"] = dep.resilience_report()
    return payload


def render_scenario_report(name: str, payload: Dict[str, Any]) -> str:
    """ASCII rendering of :func:`scenario_report_payload`."""
    from repro.analysis.tables import render_table

    rows: List[List[object]] = [
        ["controller", payload.get("controller") or "-"],
        ["workload", payload.get("workload") or "-"],
        ["simulated seconds", float(payload["horizon"])],
        ["completed requests", float(payload["completed"])],
        ["failed requests", float(payload["failed"])],
        ["shed requests", float(payload["shed"])],
    ]
    for event in payload.get("faults", ()):
        rows.append([f"fault {event['kind']} {event['phase']}", event["time"]])
    if "vm_seconds" in payload:
        rows.append(["VM-seconds", payload["vm_seconds"]])
    for tier, count in payload.get("servers", {}).items():
        rows.append([f"{tier} servers (final)", float(count)])
    text = render_table(["metric", "value"], rows, title=f"scenario: {name}")
    resilience = payload.get("resilience")
    if resilience:
        text += "\n" + render_resilience_report(resilience)
    return text


def render_resilience_report(report: Dict[str, Any]) -> str:
    """Composition + counters table for a deployment's policy chains."""
    from repro.analysis.tables import render_table

    rows: List[List[object]] = []
    for tier in sorted(report):
        tier_report = report[tier]
        rows.append([tier, tier_report["chain"], "-", "-", "-", "-"])
        for link in tier_report["policies"]:
            rows.append([
                tier, f"  {link['kind']}", link["calls"], link["ok"],
                link["shed"], link["failed"],
            ])
    return render_table(
        ["tier", "policy chain", "calls", "ok", "shed", "failed"], rows,
        title="resilience policy composition",
    )


# ---------------------------------------------------------------------------
# Built-ins
# ---------------------------------------------------------------------------

@LAB_ANALYSES.register("steady_table")
def steady_table(ctx: AnalysisContext) -> Dict[str, Any]:
    """Per-spec steady-state metrics for steady/sweep-shaped experiments."""
    from repro.analysis.tables import table_artifact

    rows: List[List[object]] = []
    metrics: Dict[str, float] = {}
    for i, (spec, value) in enumerate(zip(ctx.specs, ctx.values)):
        steady = getattr(value, "steady", None)
        if steady is None:
            continue
        label = f"{spec.hardware} @ {spec.soft} x{spec.users}"
        rows.append([
            label, steady.throughput, steady.mean_response_time,
            float(steady.completed), float(steady.failed),
        ])
        metrics[f"throughput[{i}]"] = steady.throughput
        metrics[f"mean_rt[{i}]"] = steady.mean_response_time
    return table_artifact(
        ["point", "throughput", "mean RT (s)", "completed", "failed"], rows,
        title=f"{ctx.experiment}: steady-state points", metrics=metrics,
    )


@LAB_ANALYSES.register("scenario_report")
def scenario_report(ctx: AnalysisContext) -> Dict[str, Any]:
    """Render every full run in the experiment (with resilience
    composition when policies are installed)."""
    deployments = ctx.deployments()
    if not deployments:
        raise ConfigurationError(
            f"experiment {ctx.experiment!r} has no full runs (scenario "
            f"specs without warmup) for the scenario_report analysis"
        )
    chunks: List[str] = []
    metrics: Dict[str, float] = {}
    reports = []
    for i, dep in enumerate(deployments):
        payload = scenario_report_payload(dep)
        reports.append(payload)
        label = ctx.experiment if len(deployments) == 1 else f"{ctx.experiment}[{i}]"
        chunks.append(render_scenario_report(label, payload))
        prefix = "" if len(deployments) == 1 else f"[{i}]"
        metrics[f"completed{prefix}"] = float(payload["completed"])
        metrics[f"failed{prefix}"] = float(payload["failed"])
        metrics[f"shed{prefix}"] = float(payload["shed"])
        if "vm_seconds" in payload:
            metrics[f"vm_seconds{prefix}"] = float(payload["vm_seconds"])
    return {
        "text": "\n\n".join(chunks),
        "metrics": metrics,
        "data": {"scenarios": reports},
        "type": "report",
    }


@LAB_ANALYSES.register("metric_compare")
def metric_compare(ctx: CompareContext) -> Dict[str, Any]:
    """Side-by-side metric table across experiments (the default
    comparison analysis).  Metrics are matched by ``artifact.metric``
    name; missing cells render as ``-``."""
    from repro.analysis.tables import table_artifact

    columns = list(ctx.experiments)
    merged: Dict[str, Dict[str, float]] = {}
    for experiment, artifacts in ctx.experiments.items():
        for artifact_name, record in artifacts.items():
            for metric, value in (record.get("metrics") or {}).items():
                merged.setdefault(f"{artifact_name}.{metric}", {})[experiment] = value
    rows: List[List[object]] = []
    metrics: Dict[str, float] = {}
    for metric in sorted(merged):
        row: List[object] = [metric]
        for experiment in columns:
            value = merged[metric].get(experiment)
            row.append("-" if value is None else value)
            if value is not None:
                metrics[f"{experiment}.{metric}"] = value
        rows.append(row)
    payload = table_artifact(
        ["metric"] + columns, rows,
        title=f"comparison {ctx.name}: {' vs '.join(columns)}",
        metrics=metrics,
    )
    payload["type"] = "report"
    return payload
