"""Sanitized smoke checks behind the ``repro check`` CLI command.

Three fast end-to-end probes, all run with every sanitizer domain armed:

``determinism``
    Execute the same small steady-state point twice from one seed and
    compare sha256 digests of the canonical JSON results.  Any wall-clock
    read, stray RNG, or order-dependent iteration that reaches the event
    queue shows up here as a digest mismatch.
``invariants``
    The steady-state runs above already exercise the inline sanitizer
    hooks (clock monotonicity, pool accounting, request conservation);
    this check reports that they ran violation-free.
``lifecycle``
    A miniature cluster scenario — provision, boot, serve, drain,
    terminate — followed by the VM-lifecycle and billing audits.
``scenario``
    A tiny full-stack :class:`repro.scenario.Deployment` (monitoring
    pipeline + EC2 controller + RUBBoS users) built, run, and torn down
    under the sanitizer; teardown must leave no live agent/controller
    processes behind.
``stateful``
    A cached + sharded deployment (cache-aside tier, 2 consistent-hash
    shards each primary + replica, read/write mix) run under the
    sanitizer; the cache must take hits, every shard must conserve
    routed = completed + failed, and writes must reach shard primaries.
``lab``
    A one-experiment suite manifest round-tripped through JSON, run
    twice against a throwaway artifact store: the second run must be a
    100% store hit and ``repro lab diff`` of the two runs must be empty.

All imports of the heavyweight packages happen inside the functions so
``repro.check`` stays importable before (and by) ``sim``/``ntier``/``runner``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, List

from repro.check import config as check_config
from repro.check.sanitizer import audit_billing
from repro.errors import InvariantViolation

__all__ = ["SmokeOutcome", "result_digest", "run_smoke"]


@dataclass(frozen=True)
class SmokeOutcome:
    """One smoke check's verdict."""

    name: str
    passed: bool
    detail: str


def result_digest(encoded: Any) -> str:
    """sha256 of the canonical JSON encoding of a point result."""
    text = json.dumps(encoded, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _steady_spec(seed: int, demand_scale: float):
    from repro.scenario import ScenarioSpec

    return ScenarioSpec(
        users=40,
        workload="rubbos",
        seed=seed,
        demand_scale=demand_scale,
        monitoring=False,
        warmup=2.0,
        duration=6.0,
    )


def _determinism_check(seed: int, demand_scale: float) -> List[SmokeOutcome]:
    from repro.runner.points import execute_steady

    spec = _steady_spec(seed, demand_scale)
    first = execute_steady(spec)
    second = execute_steady(spec)
    digests = (result_digest(first), result_digest(second))
    if digests[0] != digests[1]:
        return [SmokeOutcome(
            "determinism", False,
            f"same seed, different results: {digests[0][:12]} vs {digests[1][:12]}",
        )]
    return [
        SmokeOutcome("determinism", True,
                     f"two runs @ seed {seed} -> {digests[0][:12]}"),
        SmokeOutcome("invariants", True,
                     "sanitizer hooks ran violation-free during both runs"),
    ]


def _lifecycle_check() -> SmokeOutcome:
    from repro.cluster import Hypervisor
    from repro.sim import Environment

    env = Environment()
    hypervisor = Hypervisor(env, preparation_period=15.0)
    vm, ready = hypervisor.provision("vm-smoke")
    env.run(until=ready)
    env.run(until=env.now + 30.0)
    hypervisor.terminate(vm)
    killed_mid_boot, _ = hypervisor.provision("vm-smoke-aborted")
    env.run(until=env.now + 5.0)
    hypervisor.terminate(killed_mid_boot)
    env.run(until=env.now + 20.0)
    audit_billing(hypervisor)
    return SmokeOutcome(
        "lifecycle", True,
        f"billing matches RUNNING integral "
        f"({hypervisor.billing.vm_seconds():.1f} VM-seconds)",
    )


def _scenario_check(seed: int, demand_scale: float) -> SmokeOutcome:
    from repro.scenario import Deployment, ScenarioSpec

    spec = ScenarioSpec(
        seed=seed,
        demand_scale=demand_scale,
        controller="ec2",
        workload="rubbos",
        users=20,
        duration=12.0,
    )
    with Deployment(spec) as dep:
        dep.run()
        agent_procs = [a._process for a in dep.fleet.agents.values()]
    dep.stop()  # idempotent by contract
    # Stopped loops exit at their next tick; settle the clock to flush them.
    dep.env.run(until=dep.env.now + 2 * dep.policy.control_period)
    leftovers = [
        p for p in agent_procs + [dep.controller._process] if p.is_alive
    ]
    if leftovers:
        return SmokeOutcome(
            "scenario", False,
            f"{len(leftovers)} agent/controller processes alive after stop()",
        )
    return SmokeOutcome(
        "scenario", True,
        f"full-stack deployment ran {spec.duration:.0f}s and tore down clean "
        f"({dep.system.completed_count()} requests served)",
    )


def _stateful_check(seed: int, demand_scale: float) -> SmokeOutcome:
    from repro.ntier import CacheSpec, ShardingSpec
    from repro.scenario import Deployment, ScenarioSpec

    spec = ScenarioSpec(
        hardware="1/2/1",
        seed=seed,
        demand_scale=demand_scale,
        monitoring=False,
        workload="rubbos",
        users=20,
        think_time=1.0,
        duration=10.0,
        cache=CacheSpec(),
        sharding=ShardingSpec(shards=2, replicas=1),
        write_fraction=0.15,
    )
    with Deployment(spec) as dep:
        dep.run()
    system = dep.system
    # Settle in-flight closed-loop requests so the books can balance.
    dep.env.run(until=dep.env.now + 30.0)
    stats = system.db_balancer.shard_stats()
    problems: List[str] = []
    if system.completed_count() <= 0:
        problems.append("no requests completed")
    if system.cache.hit_rate() <= 0.0:
        problems.append("cache took no hits")
    for sid, st in stats.items():
        if st["routed"] != st["completed"] + st["failed"]:
            problems.append(
                f"shard {sid} leaked: routed={st['routed']} != "
                f"completed={st['completed']} + failed={st['failed']}"
            )
    writes = sum(
        s.completions for s in system.tier_servers("db") if s.role == "primary"
    )
    if writes <= 0:
        problems.append("no queries reached a shard primary")
    if problems:
        return SmokeOutcome("stateful", False, "; ".join(problems))
    return SmokeOutcome(
        "stateful", True,
        f"cache hit rate {system.cache.hit_rate():.2f}, shards routed "
        f"{[st['routed'] for st in stats.values()]}, books balance",
    )


def _lab_check(seed: int, demand_scale: float) -> SmokeOutcome:
    import os
    import shutil
    import tempfile

    from repro.lab import (
        AnalysisStep, ExperimentEntry, SuiteManifest, diff_runs, run_suite,
    )

    spec = _steady_spec(seed, demand_scale)
    manifest = SuiteManifest(
        name="lab-smoke",
        experiments=(ExperimentEntry(
            name="steady",
            specs=(spec,),
            analyses=(AnalysisStep("steady_table"),),
        ),),
    )
    if SuiteManifest.from_json(manifest.to_json()) != manifest:
        return SmokeOutcome("lab", False, "manifest JSON round-trip drifted")
    root = tempfile.mkdtemp(prefix="repro-lab-smoke-")
    try:
        kwargs = dict(
            out_dir=os.path.join(root, "out"),
            store_dir=os.path.join(root, "store"),
            strict=True,
            quiet=True,
        )
        first = run_suite(manifest, **kwargs)
        second = run_suite(manifest, **kwargs)
        if not second.fully_cached:
            return SmokeOutcome(
                "lab", False, "repeated run missed the artifact store"
            )
        report = diff_runs(second.store, first.index, second.index)
        if not report.empty:
            return SmokeOutcome(
                "lab", False, f"self-diff found deltas: {report.render()}"
            )
        return SmokeOutcome(
            "lab", True,
            f"manifest round-trips; rerun is a 100% store hit with an "
            f"empty diff ({report.artifacts_compared} artifact(s))",
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run_smoke(seed: int = 0, demand_scale: float = 1.0) -> List[SmokeOutcome]:
    """Run every smoke check with all sanitizer domains armed."""
    outcomes: List[SmokeOutcome] = []
    with check_config.override(True):
        try:
            outcomes.extend(_determinism_check(seed, demand_scale))
        except InvariantViolation as err:
            outcomes.append(SmokeOutcome("invariants", False, str(err)))
        try:
            outcomes.append(_lifecycle_check())
        except InvariantViolation as err:
            outcomes.append(SmokeOutcome("lifecycle", False, str(err)))
        try:
            outcomes.append(_scenario_check(seed, demand_scale))
        except InvariantViolation as err:
            outcomes.append(SmokeOutcome("scenario", False, str(err)))
        try:
            outcomes.append(_stateful_check(seed, demand_scale))
        except InvariantViolation as err:
            outcomes.append(SmokeOutcome("stateful", False, str(err)))
        try:
            outcomes.append(_lab_check(seed, demand_scale))
        except InvariantViolation as err:
            outcomes.append(SmokeOutcome("lab", False, str(err)))
    return outcomes
