"""Metamorphic and conservation properties over the simulator.

Each property is a predicate that must hold for *every* point in its
parameter space — no golden values, only relations the system must
satisfy by construction:

* ``mmc_oracle`` — with contention degenerated, a Tomcat station matches
  the M/M/c closed forms (see :mod:`repro.audit.oracles`);
* ``rr_fairness`` — the round-robin balancer starts at backend 0, never
  double-picks, and splits work exactly evenly, including across
  membership churn;
* ``k_server_symmetry`` — K identical perfectly-balanced app servers end
  a steady run with near-identical per-server busy concurrency;
* ``service_time_scaling`` — scaling all demands by a power of two (and
  the clock with them) reproduces the concurrency trace and rescaled
  throughput to ulp-level precision;
* ``seed_permutation`` — the experiment engine returns identical results
  regardless of spec submission order;
* ``store_conservation`` — broker stores neither lose nor duplicate
  messages under consumers that abandon their polls.
* ``scenario_roundtrip`` — a fuzzed :class:`repro.scenario.ScenarioSpec`
  survives its JSON round-trip unchanged, and two deployments built from
  it by the composition root replay identically.
* ``fault_conservation`` — under an injected fault (VM crash, tier
  partition, latency spike, broker outage, slow node) with any shipped
  resilience policy, every submitted request completes, fails, or is
  accounted as shed — none silently lost — servers conserve
  arrivals = completions + failures even across a crash, and no
  completed request duplicates committed database work (the retry
  idempotency guard).
* ``shard_conservation`` — with the MySQL tier sharded (consistent-hash
  ring, primary + replicas per shard), every routed request lands on
  exactly one shard member and is accounted, the ring is deterministic,
  and the books still balance across a primary crash + replica failover
  and a mid-run scale-out onto the hottest shard.

Properties are registered in :data:`PROPERTIES`; the fuzzer draws
scenarios from each property's ``generate`` and the shrinker minimises
failing ones toward each parameter's ``floors``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Tuple

import numpy as np

from repro.audit.oracles import check_mmc_oracle
from repro.errors import ConfigurationError

#: Engine-level steady runs: allowed relative spread (max-min)/max of the
#: per-server busy concurrency across K identical round-robin'd servers.
#: Calibrated at ~2x the worst spread (0.089, K=4) seen over the
#: generator envelope — short runs of exponential demands are noisy.
SYMMETRY_SPREAD_TOL = 0.18


@dataclass(frozen=True)
class Scenario:
    """One replayable audit scenario: a property plus its parameter point."""

    property: str
    params: Dict[str, Any]
    seed: int

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any]) -> "Scenario":
        return cls(
            property=str(obj["property"]),
            params=dict(obj["params"]),
            seed=int(obj["seed"]),
        )

    def save(self, path: Path) -> None:
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: Path) -> "Scenario":
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass
class PropertyResult:
    """Outcome of checking one scenario."""

    passed: bool
    failures: List[str] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class AuditProperty:
    """A registered property: how to draw scenarios and how to check one.

    ``floors`` gives the minimum value per shrinkable numeric parameter;
    the shrinker never proposes below them.  ``weight`` biases the
    fuzzer's property choice (cheap properties get fuzzed more).
    """

    name: str
    generate: Callable[[np.random.Generator], Dict[str, Any]]
    check: Callable[..., PropertyResult]
    floors: Mapping[str, Any]
    weight: float


# ---------------------------------------------------------------------------
# mmc_oracle
# ---------------------------------------------------------------------------

def _gen_mmc(rng: np.random.Generator) -> Dict[str, Any]:
    return {
        "servers": int(rng.integers(1, 7)),
        "rho": round(float(rng.uniform(0.3, 0.8)), 3),
        "arrivals": int(rng.integers(2000, 5001)),
        "service_mean": round(float(rng.uniform(0.01, 0.05)), 4),
    }


def _check_mmc(params: Dict[str, Any], seed: int, **_: Any) -> PropertyResult:
    failures, details = check_mmc_oracle(params, seed)
    return PropertyResult(passed=not failures, failures=failures, details=details)


# ---------------------------------------------------------------------------
# rr_fairness
# ---------------------------------------------------------------------------

class _StubBackend:
    """Minimal stand-in for a TierServer behind a Balancer."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.accepting = True
        self.outstanding = 0


def _gen_rr(rng: np.random.Generator) -> Dict[str, Any]:
    backends = int(rng.integers(2, 7))
    picks = int(rng.integers(backends, 61))
    churn: List[List[int]] = []
    for _ in range(int(rng.integers(0, 4))):
        churn.append(
            [int(rng.integers(1, picks)), int(rng.integers(0, backends))]
        )
    churn.sort()
    return {"backends": backends, "picks": picks, "churn_events": churn}


def _check_rr(params: Dict[str, Any], seed: int, **_: Any) -> PropertyResult:
    from repro.ntier.balancer import Balancer

    k = int(params["backends"])
    picks = int(params["picks"])
    churn = [(int(i), int(b)) for i, b in params.get("churn_events", [])]

    backends = [_StubBackend(f"s{j}") for j in range(k)]
    balancer = Balancer("audit-rr", policy="round_robin")
    for b in backends:
        balancer.add(b)

    failures: List[str] = []
    chosen: List[_StubBackend] = []
    # Segments of stable membership: fairness is asserted per segment,
    # against the eligible count the segment was picked under.
    segment: List[int] = []
    segment_eligible = k

    def close_segment(eligible: int) -> None:
        if len(segment) >= 2 * eligible > 0:
            counts: Dict[int, int] = {}
            for j in segment:
                counts[j] = counts.get(j, 0) + 1
            lo, hi = min(counts.values()), max(counts.values())
            if len(counts) < eligible or hi - lo > 1:
                failures.append(
                    f"unfair stable segment of {len(segment)} picks over "
                    f"{eligible} backends: counts={sorted(counts.items())}"
                )
        segment.clear()

    for i in range(picks):
        flipped = False
        for when, idx in churn:
            if when == i:
                target = backends[idx]
                # Never drain the last accepting backend.
                if target.accepting and sum(b.accepting for b in backends) == 1:
                    continue
                target.accepting = not target.accepting
                flipped = True
        if flipped:
            close_segment(segment_eligible)
            segment_eligible = sum(1 for b in backends if b.accepting)
        pick = balancer.pick()
        chosen.append(pick)
        segment.append(backends.index(pick))
        if not pick.accepting:
            failures.append(f"pick {i} chose drained backend {pick.name}")
        if (
            i > 0
            and pick is chosen[i - 1]
            and chosen[i - 1].accepting
            and sum(b.accepting for b in backends) >= 2
        ):
            failures.append(f"pick {i} repeated {pick.name} with others eligible")
    close_segment(segment_eligible)

    if not churn:
        if chosen[0] is not backends[0]:
            failures.append(f"first pick was {chosen[0].name}, expected s0")
        # Exact fairness with extras on the earliest backends.
        counts = [sum(1 for c in chosen if c is b) for b in backends]
        ceil_n, extras = -(-picks // k), picks % k
        expected = [ceil_n] * extras + [ceil_n - (1 if extras else 0)] * (k - extras)
        if extras == 0:
            expected = [picks // k] * k
        if counts != expected:
            failures.append(
                f"unfair rotation: counts={counts}, expected {expected}"
            )

    return PropertyResult(
        passed=not failures,
        failures=failures,
        details={"picks": [c.name for c in chosen]},
    )


# ---------------------------------------------------------------------------
# k_server_symmetry
# ---------------------------------------------------------------------------

def _gen_symmetry(rng: np.random.Generator) -> Dict[str, Any]:
    return {
        "app_servers": int(rng.integers(2, 5)),
        "users": int(rng.integers(30, 91)),
        "warmup": round(float(rng.uniform(2.0, 4.0)), 2),
        "duration": round(float(rng.uniform(6.0, 10.0)), 2),
    }


def _check_symmetry(
    params: Dict[str, Any], seed: int, *, jobs: int = 1, store: Any = None
) -> PropertyResult:
    from repro.runner import run
    from repro.scenario import ScenarioSpec

    k = int(params["app_servers"])
    spec = ScenarioSpec(
        hardware=f"1/{k}/1",
        users=int(params["users"]),
        workload="jmeter",
        seed=seed,
        monitoring=False,
        warmup=float(params["warmup"]),
        duration=float(params["duration"]),
        imbalance=0.0,
        balancer_policy="round_robin",
    )
    result = run(spec, jobs=jobs, store=store).value
    busy = result.server_busy["app"]
    failures: List[str] = []
    if result.steady.completed <= 0:
        failures.append("steady run completed no requests")
    spread = (max(busy) - min(busy)) / max(busy) if max(busy) > 0 else 0.0
    if spread > SYMMETRY_SPREAD_TOL:
        failures.append(
            f"per-server busy concurrency spread {spread:.3f} > "
            f"{SYMMETRY_SPREAD_TOL} across {k} identical servers: {busy}"
        )
    return PropertyResult(
        passed=not failures,
        failures=failures,
        details={"server_busy": list(busy), "spread": spread},
    )


# ---------------------------------------------------------------------------
# service_time_scaling
# ---------------------------------------------------------------------------

def _gen_scaling(rng: np.random.Generator) -> Dict[str, Any]:
    return {
        "tier": str(rng.choice(["app", "db"])),
        "concurrency": int(rng.integers(2, 25)),
        "factor_exp": int(rng.integers(1, 3)),  # scale by 2 or 4
        "warmup": round(float(rng.uniform(1.0, 2.0)), 2),
        "duration": round(float(rng.uniform(4.0, 8.0)), 2),
    }


def _check_scaling(
    params: Dict[str, Any], seed: int, *, jobs: int = 1, store: Any = None
) -> PropertyResult:
    from repro.runner import stress_sweep

    factor = float(2 ** int(params["factor_exp"]))
    warmup, duration = float(params["warmup"]), float(params["duration"])
    a, b = (
        stress_sweep(
            str(params["tier"]), [int(params["concurrency"])], seed=seed,
            demand_scale=scale, warmup=warmup * scale,
            duration=duration * scale, jobs=jobs, store=store,
        ).value[0]
        for scale in (1.0, factor)
    )
    failures: List[str] = []
    # Power-of-two scaling commutes with IEEE rounding, so the runs would
    # be bit-identical but for the kernel's completion-batching tolerance
    # (an absolute floor, deliberately not scale-covariant); that leaves
    # ulp-level residue, hence a 1e-6 band instead of exact equality.
    rtol = 1e-6
    if abs(a.measured_concurrency - b.measured_concurrency) > rtol * abs(
        a.measured_concurrency
    ):
        failures.append(
            "measured concurrency not invariant under power-of-two time "
            f"scaling: {a.measured_concurrency!r} != {b.measured_concurrency!r}"
        )
    if abs(a.throughput - b.throughput * factor) > rtol * abs(a.throughput):
        failures.append(
            "throughput did not rescale: "
            f"{a.throughput!r} != {b.throughput!r} * {factor}"
        )
    return PropertyResult(
        passed=not failures,
        failures=failures,
        details={
            "base_throughput": a.throughput,
            "scaled_throughput": b.throughput,
            "concurrency": a.measured_concurrency,
        },
    )


# ---------------------------------------------------------------------------
# seed_permutation
# ---------------------------------------------------------------------------

def _gen_permutation(rng: np.random.Generator) -> Dict[str, Any]:
    return {
        "points": int(rng.integers(2, 5)),
        "users": int(rng.integers(20, 61)),
        "warmup": 1.5,
        "duration": round(float(rng.uniform(3.0, 5.0)), 2),
    }


def _check_permutation(
    params: Dict[str, Any], seed: int, *, jobs: int = 1, store: Any = None
) -> PropertyResult:
    from repro.runner import run_many
    from repro.scenario import ScenarioSpec

    specs = [
        ScenarioSpec(
            users=int(params["users"]),
            workload="jmeter",
            seed=seed + i,
            monitoring=False,
            warmup=float(params["warmup"]),
            duration=float(params["duration"]),
        )
        for i in range(int(params["points"]))
    ]
    forward = run_many(specs, jobs=jobs, store=store).value
    # The reversed pass runs storeless, so this also cross-checks fresh
    # recomputation against whatever the first pass stored.
    backward = run_many(list(reversed(specs)), jobs=jobs).value
    failures: List[str] = []
    for i, (f, b) in enumerate(zip(forward, reversed(backward))):
        if asdict(f.steady) != asdict(b.steady) or f.server_busy != b.server_busy:
            failures.append(
                f"spec {i} (seed {specs[i].seed}) result depends on "
                "submission order"
            )
    return PropertyResult(
        passed=not failures,
        failures=failures,
        details={"throughputs": [f.steady.throughput for f in forward]},
    )


# ---------------------------------------------------------------------------
# store_conservation
# ---------------------------------------------------------------------------

def _gen_store(rng: np.random.Generator) -> Dict[str, Any]:
    return {
        "messages": int(rng.integers(1, 31)),
        "gap_mean": round(float(rng.uniform(0.2, 3.0)), 3),
        "poll_timeout": round(float(rng.uniform(0.1, 2.0)), 3),
        "consumers": int(rng.integers(1, 4)),
        "cancel": bool(rng.integers(0, 2)),
    }


def _check_store(params: Dict[str, Any], seed: int, **_: Any) -> PropertyResult:
    from repro.sim import Environment, RandomStreams, Store

    messages = int(params["messages"])
    gap_mean = float(params["gap_mean"])
    poll_timeout = float(params["poll_timeout"])
    consumers = int(params["consumers"])
    cancel = bool(params.get("cancel", False))

    env = Environment()
    rng = RandomStreams(seed).stream("audit.store.gaps")
    store = Store(env, name="audit-store")
    produced: List[int] = []
    delivered: List[int] = []
    horizon = messages * gap_mean + 30.0 * poll_timeout + 5.0

    def producer():
        for i in range(messages):
            yield env.timeout(float(rng.exponential(gap_mean)))
            produced.append(i)
            store.put(i)

    def consumer():
        # Poll-with-timeout consumer: every timed-out poll abandons its
        # getter, either explicitly (cancel) or by walking away — the
        # store must not hand later messages to those dead getters.
        while env.now < horizon:
            ev = store.get()
            result = yield env.any_of([ev, env.timeout(poll_timeout)])
            if ev in result:
                delivered.append(result[ev])
            elif cancel:
                ev.cancel()

    env.process(producer())
    for _ in range(consumers):
        env.process(consumer())
    env.run(until=horizon + poll_timeout + 1.0)

    leftover: List[int] = []
    while True:
        item = store.try_get()
        if item is None:
            break
        leftover.append(item)

    failures: List[str] = []
    if len(delivered) != len(set(delivered)):
        failures.append(f"duplicate delivery: {sorted(delivered)}")
    accounted = sorted(delivered + leftover)
    if accounted != sorted(produced):
        lost = sorted(set(produced) - set(accounted))
        failures.append(
            f"conservation violated: produced {len(produced)}, delivered "
            f"{len(delivered)}, leftover {len(leftover)}"
            + (f", lost {lost}" if lost else "")
        )
    return PropertyResult(
        passed=not failures,
        failures=failures,
        details={"delivered": len(delivered), "leftover": len(leftover)},
    )


# ---------------------------------------------------------------------------
# scenario_roundtrip
# ---------------------------------------------------------------------------

def _gen_scenario(rng: np.random.Generator) -> Dict[str, Any]:
    return {
        "controller": str(rng.choice(["none", "ec2", "static"])),
        "users": int(rng.integers(10, 41)),
        "duration": round(float(rng.uniform(6.0, 12.0)), 2),
        "demand_scale": round(float(rng.uniform(2.0, 6.0)), 2),
    }


def _check_scenario(params: Dict[str, Any], seed: int, **_: Any) -> PropertyResult:
    from repro.lab.store import payload_digest
    from repro.scenario import Deployment, ScenarioSpec

    controller = None if params["controller"] == "none" else str(params["controller"])
    spec = ScenarioSpec(
        seed=seed,
        demand_scale=float(params["demand_scale"]),
        controller=controller,
        target_servers={"app": 2} if controller == "static" else None,
        workload="rubbos",
        users=int(params["users"]),
        duration=float(params["duration"]),
    )
    failures: List[str] = []
    if ScenarioSpec.from_json(spec.to_json()) != spec:
        failures.append("ScenarioSpec JSON round-trip changed the spec")
    digests: List[str] = []
    completed = 0
    for _i in range(2):
        with Deployment(spec) as dep:
            dep.run()
        completed = dep.system.completed_count()
        digests.append(payload_digest(dep.system.request_log))
    if digests[0] != digests[1]:
        failures.append(
            f"same spec, different request logs: {digests[0][:12]} vs "
            f"{digests[1][:12]}"
        )
    return PropertyResult(
        passed=not failures,
        failures=failures,
        details={"digest": digests[0][:16], "completed": completed},
    )


# ---------------------------------------------------------------------------
# fault_conservation
# ---------------------------------------------------------------------------

#: How long the quiescence loop waits (simulated seconds) for in-flight
#: work to resolve after the run horizon — abandoned (timed-out) attempts
#: and retry backoffs all finish well inside this.
_FAULT_GRACE = 240.0

_FAULT_KINDS = (
    "vm_crash", "tier_partition", "latency_spike", "broker_outage", "slow_node",
)
_FAULT_POLICIES = (
    "none", "retry", "timeout", "circuit_breaker", "retry+circuit_breaker",
    "bulkhead", "shed",
)


def _gen_faults(rng: np.random.Generator) -> Dict[str, Any]:
    return {
        "fault": str(rng.choice(list(_FAULT_KINDS))),
        "policy": str(rng.choice(list(_FAULT_POLICIES))),
        "app_servers": int(rng.integers(2, 4)),
        "users": int(rng.integers(20, 61)),
        "demand_scale": round(float(rng.uniform(1.0, 5.0)), 2),
        "duration": round(float(rng.uniform(8.0, 16.0)), 2),
        "fault_at": round(float(rng.uniform(1.0, 5.0)), 2),
        "fault_duration": round(float(rng.uniform(1.0, 4.0)), 2),
    }


def _fault_scenario_spec(params: Dict[str, Any], seed: int):
    """Translate a parameter point into a fault-bearing ScenarioSpec."""
    from repro.faults import (
        BrokerOutage, LatencySpike, PolicyConfig, SlowNode, TierPartition, VMCrash,
    )
    from repro.scenario import ScenarioSpec

    at = float(params["fault_at"])
    dur = float(params["fault_duration"])
    kind = str(params["fault"])
    if kind == "vm_crash":
        fault, tier = VMCrash(at=at, tier="app", index=0), "app"
    elif kind == "tier_partition":
        fault, tier = TierPartition(at=at, tier="db", duration=dur), "db"
    elif kind == "latency_spike":
        fault, tier = LatencySpike(at=at, tier="app", extra=0.5, duration=dur), "app"
    elif kind == "broker_outage":
        fault, tier = BrokerOutage(at=at, duration=dur), "app"
    elif kind == "slow_node":
        fault, tier = SlowNode(at=at, tier="db", index=0, factor=6.0, duration=dur), "db"
    else:
        raise ConfigurationError(f"unknown fault kind {kind!r}")

    policies = {
        "none": (),
        "retry": (PolicyConfig("retry", tier, {"attempts": 3, "base_delay": 0.05}),),
        "retry_noguard": (
            PolicyConfig("retry_noguard", tier, {"attempts": 3, "base_delay": 0.05}),
        ),
        "timeout": (PolicyConfig("timeout", tier, {"deadline": 3.0}),),
        "circuit_breaker": (
            PolicyConfig(
                "circuit_breaker", tier,
                {"failure_threshold": 3, "recovery_time": 1.0},
            ),
        ),
        "retry+circuit_breaker": (
            PolicyConfig("retry", tier, {"attempts": 3, "base_delay": 0.05}),
            PolicyConfig(
                "circuit_breaker", tier,
                {"failure_threshold": 3, "recovery_time": 1.0},
            ),
        ),
        "bulkhead": (PolicyConfig("bulkhead", tier, {"limit": 30}),),
        "shed": (PolicyConfig("shed", tier, {"max_outstanding": 40}),),
    }
    policy = str(params["policy"])
    if policy not in policies:
        raise ConfigurationError(
            f"unknown resilience policy combo {policy!r}; "
            f"pick from {sorted(policies)}"
        )
    return ScenarioSpec(
        hardware=f"1/{int(params['app_servers'])}/1",
        seed=seed,
        demand_scale=float(params.get("demand_scale", 1.0)),
        # The broker exists only when the fault needs one: the property is
        # about request conservation, not the metric pipeline.
        monitoring=(kind == "broker_outage"),
        workload="rubbos",
        users=int(params["users"]),
        think_time=1.0,
        duration=float(params["duration"]),
        faults=(fault,),
        resilience=policies[policy],
    )


def _check_faults(params: Dict[str, Any], seed: int, **_: Any) -> PropertyResult:
    """Conservation under failure: every submitted request completes, fails,
    or is accounted as shed — none silently lost — and no completed request
    duplicates committed database work (retry idempotency)."""
    from repro.scenario import Deployment, ScenarioSpec

    spec = _fault_scenario_spec(params, seed)
    failures: List[str] = []
    if ScenarioSpec.from_json(spec.to_json()) != spec:
        failures.append("fault-bearing ScenarioSpec JSON round-trip changed it")

    dep = Deployment(spec)
    system = dep.system
    system.audit_requests = []
    dep.run()
    dep.stop()

    def quiet() -> bool:
        return system.inflight == 0 and all(
            s.outstanding == 0 and s.inflight == 0
            for s in system.all_servers() + system.removed_servers
        )

    # Quiesce: closed-loop sessions finish their in-flight request after
    # stop(); abandoned (timed-out) attempts and retry backoffs drain too.
    deadline = dep.env.now + _FAULT_GRACE
    while not quiet() and dep.env.now < deadline:
        dep.env.run(until=min(dep.env.now + 5.0, deadline))

    if not quiet():
        stuck = [
            f"{s.name}:{s.outstanding}"
            for s in system.all_servers() + system.removed_servers
            if s.outstanding != 0 or s.inflight != 0
        ]
        failures.append(
            f"system did not quiesce within {_FAULT_GRACE}s grace: "
            f"client inflight={system.inflight}, servers={stuck}"
        )

    completed = system.completed_count()
    failed = len(system.failure_log)
    shed = len(system.shed_log)
    if system.submitted != completed + failed + shed:
        failures.append(
            f"request conservation violated: submitted={system.submitted} != "
            f"completed={completed} + failed={failed} + shed={shed}"
        )

    for request in system.audit_requests:
        expected = len(request.demand.db_queries)
        if request.completed is not None and request.db_commits != expected:
            failures.append(
                f"request {request.request_id} completed with "
                f"{request.db_commits} DB commits, expected {expected} — "
                "a retry duplicated (or lost) committed work"
            )
            break
        if request.completed is None and request.db_commits > expected:
            failures.append(
                f"failed request {request.request_id} committed "
                f"{request.db_commits} > {expected} queries — duplicated work"
            )
            break

    for server in system.all_servers() + system.removed_servers:
        if server.arrivals != server.completions + server.failures:
            failures.append(
                f"{server.name}: arrivals={server.arrivals} != "
                f"completions={server.completions} + failures={server.failures}"
            )

    return PropertyResult(
        passed=not failures,
        failures=failures,
        details={
            "submitted": system.submitted,
            "completed": completed,
            "failed": failed,
            "shed": shed,
            "injections": (
                [] if dep.injector is None
                else [f"{e.time:.2f}:{e.kind}:{e.phase}" for e in dep.injector.log]
            ),
        },
    )


# ---------------------------------------------------------------------------
# shard_conservation
# ---------------------------------------------------------------------------

def _gen_shards(rng: np.random.Generator) -> Dict[str, Any]:
    return {
        "shards": int(rng.integers(2, 4)),
        "replicas": int(rng.integers(0, 3)),
        "zipf": round(float(rng.uniform(0.8, 1.5)), 2),
        "with_cache": bool(rng.integers(0, 2)),
        "write_fraction": round(float(rng.uniform(0.0, 0.3)), 2),
        "users": int(rng.integers(20, 61)),
        "duration": round(float(rng.uniform(8.0, 16.0)), 2),
        "crash_at": round(float(rng.uniform(1.0, 5.0)), 2),
        "rebalance_at": round(float(rng.uniform(5.0, 7.0)), 2),
    }


def _check_shards(params: Dict[str, Any], seed: int, **_: Any) -> PropertyResult:
    """Sharded-tier conservation: every request the router sends to a shard
    arrives at exactly one of its members and is accounted (completed or
    failed) — across a primary crash + replica failover and a mid-run
    scale-out that lands on the hottest shard — and the consistent-hash
    ring routes each key to exactly one live shard."""
    from repro.faults import ShardPrimaryCrash
    from repro.ntier import CacheSpec, ShardingSpec
    from repro.scenario import Deployment, ScenarioSpec

    shards = int(params["shards"])
    replicas = int(params["replicas"])
    zipf = float(params["zipf"])
    sharding = ShardingSpec(shards=shards, replicas=replicas, zipf=zipf)
    cache = CacheSpec(zipf=zipf) if bool(params.get("with_cache")) else None
    duration = float(params["duration"])
    spec = ScenarioSpec(
        hardware="1/2/1",
        seed=seed,
        monitoring=False,
        workload="rubbos",
        users=int(params["users"]),
        think_time=1.0,
        duration=duration,
        sharding=sharding,
        cache=cache,
        write_fraction=float(params.get("write_fraction", 0.0)),
        faults=(ShardPrimaryCrash(at=float(params["crash_at"]), shard=0),),
    )
    failures: List[str] = []
    if ScenarioSpec.from_json(spec.to_json()) != spec:
        failures.append("sharded ScenarioSpec JSON round-trip changed it")

    dep = Deployment(spec)
    system = dep.system
    router = system.db_balancer
    # Mid-run scale-out: the new MySQL joins the hottest shard as a
    # replica, so the router's membership churns while requests are in
    # flight on both sides of the change.
    dep.run(until=min(float(params["rebalance_at"]), duration))
    added = system.add_mysql()
    dep.run(until=duration)
    dep.stop()

    def quiet() -> bool:
        return system.inflight == 0 and all(
            s.outstanding == 0 and s.inflight == 0
            for s in system.all_servers() + system.removed_servers
        )

    deadline = dep.env.now + _FAULT_GRACE
    while not quiet() and dep.env.now < deadline:
        dep.env.run(until=min(dep.env.now + 5.0, deadline))
    if not quiet():
        failures.append(
            f"system did not quiesce within {_FAULT_GRACE}s grace "
            f"(client inflight={system.inflight})"
        )

    completed = system.completed_count()
    failed = len(system.failure_log)
    shed = len(system.shed_log)
    if system.submitted != completed + failed + shed:
        failures.append(
            f"request conservation violated: submitted={system.submitted} != "
            f"completed={completed} + failed={failed} + shed={shed}"
        )

    stats = router.shard_stats()
    for sid, st in stats.items():
        if st["routed"] != st["arrivals"]:
            failures.append(
                f"shard {sid}: routed {st['routed']} requests but members "
                f"saw {st['arrivals']} arrivals — the router lost or "
                "duplicated a dispatch"
            )
        if st["routed"] != st["completed"] + st["failed"]:
            failures.append(
                f"shard {sid}: routed={st['routed']} != completed="
                f"{st['completed']} + failed={st['failed']} after quiesce"
            )
    total_routed = sum(st["routed"] for st in stats.values())
    if total_routed != router.dispatches:
        failures.append(
            f"router dispatched {router.dispatches} but shards account "
            f"{total_routed}"
        )
    if added.shard is None:
        failures.append(f"mid-run {added.name} was not assigned to a shard")

    # Ring sanity: every key in the population resolves to exactly one of
    # the configured shards, deterministically.
    for key in range(0, sharding.keys, max(1, sharding.keys // 97)):
        sid = router.ring.lookup(key)
        if sid != router.ring.lookup(key) or not 0 <= sid < shards:
            failures.append(f"ring lookup unstable or out of range for {key}")
            break

    return PropertyResult(
        passed=not failures,
        failures=failures,
        details={
            "submitted": system.submitted,
            "completed": completed,
            "failed": failed,
            "per_shard_routed": {sid: st["routed"] for sid, st in stats.items()},
            "hit_rate": None if system.cache is None else system.cache.hit_rate(),
        },
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

PROPERTIES: Dict[str, AuditProperty] = {
    p.name: p
    for p in (
        AuditProperty(
            name="mmc_oracle",
            generate=_gen_mmc,
            check=_check_mmc,
            floors={"servers": 1, "rho": 0.3, "arrivals": 500, "service_mean": 0.01},
            weight=3.0,
        ),
        AuditProperty(
            name="rr_fairness",
            generate=_gen_rr,
            check=_check_rr,
            floors={"backends": 2, "picks": 2},
            weight=4.0,
        ),
        AuditProperty(
            name="k_server_symmetry",
            generate=_gen_symmetry,
            check=_check_symmetry,
            floors={"app_servers": 2, "users": 10, "warmup": 1.0, "duration": 2.0},
            weight=1.0,
        ),
        AuditProperty(
            name="service_time_scaling",
            generate=_gen_scaling,
            check=_check_scaling,
            floors={"concurrency": 1, "factor_exp": 1, "warmup": 0.5, "duration": 1.0},
            weight=1.5,
        ),
        AuditProperty(
            name="seed_permutation",
            generate=_gen_permutation,
            check=_check_permutation,
            floors={"points": 2, "users": 5, "duration": 1.0},
            weight=1.0,
        ),
        AuditProperty(
            name="store_conservation",
            generate=_gen_store,
            check=_check_store,
            floors={
                "messages": 1,
                "gap_mean": 0.1,
                "poll_timeout": 0.05,
                "consumers": 1,
            },
            weight=4.0,
        ),
        AuditProperty(
            name="scenario_roundtrip",
            generate=_gen_scenario,
            check=_check_scenario,
            floors={"users": 5, "duration": 2.0, "demand_scale": 1.0},
            weight=1.0,
        ),
        AuditProperty(
            name="shard_conservation",
            generate=_gen_shards,
            check=_check_shards,
            floors={
                "shards": 2,
                "replicas": 0,
                "zipf": 0.5,
                "users": 10,
                "duration": 4.0,
                "crash_at": 0.5,
                "rebalance_at": 1.0,
            },
            weight=2.0,
        ),
        AuditProperty(
            name="fault_conservation",
            generate=_gen_faults,
            check=_check_faults,
            floors={
                "app_servers": 2,
                "users": 10,
                "demand_scale": 1.0,
                "duration": 4.0,
                "fault_at": 0.5,
                "fault_duration": 0.5,
            },
            weight=2.5,
        ),
    )
}


def run_scenario(
    scenario: Scenario, *, jobs: int = 1, store: Any = None
) -> PropertyResult:
    """Check one scenario against its property; engine-backed properties
    run their points on ``store`` (an
    :class:`~repro.lab.store.ArtifactStore`, or ``None`` for none)."""
    prop = PROPERTIES.get(scenario.property)
    if prop is None:
        raise ConfigurationError(
            f"unknown audit property {scenario.property!r}; "
            f"pick from {sorted(PROPERTIES)}"
        )
    return prop.check(scenario.params, scenario.seed, jobs=jobs, store=store)
