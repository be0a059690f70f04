"""The benchmark's three workloads, built from public ``ScenarioSpec`` fields.

Every spec here uses only fields that describe the modelled system (topology,
soft configuration, stateful tiers, monitoring, controller, workload, trace,
duration).  None sets the kernel's ``scheduler``: the benchmark times whatever
the simulator's default is.

* ``fig5-dcm`` -- the paper's Fig-5 DCM run over the Large Variation trace:
  per-user closed-loop sessions, the full agents -> broker -> collector ->
  DCM -> VM-agent pipeline, stateless browse-only tiers.
* ``lv-100k`` -- 10^5 users as an aggregate (batched) population replaying
  the start of Large Variation on 1/1/1 with monitoring off and no
  controller: the kernel and the n-tier hot path alone, under overload.
* ``stateful-zipf`` -- three shards (primary + one replica) behind a
  cache-aside tier, Zipf-1.4 keys, 10 % writes and DCM on a sine trace.
"""

from __future__ import annotations

from typing import Dict, Optional

#: Workload name -> (default seed, held-out seed).  A gain claimed on the
#: default seed must also hold on the held-out one.
SEEDS: Dict[str, tuple] = {
    "fig5-dcm": (7, 1007),
    "lv-100k": (3, 1003),
    "stateful-zipf": (11, 1011),
}

WORKLOADS = tuple(SEEDS)

# Sizes: each simulation completes about 30-40 k requests in roughly ten
# host seconds, so a run fits three seeds (about 90-115 k pooled requests).
# Scaling demand up and users down by one factor keeps the utilisation
# profile: the Fig-5 run is the lab's (scale 4, 1480 users) at a quarter of
# the users, the stateful run the lab's skewed-shards shape at half.
FIG5_SCALE = 16.0
FIG5_MAX_USERS = 370

LV_USERS = 100_000
LV_DURATION = 35.0

SHARDS_SCALE = 8.0
SHARDS_MAX_USERS = 300
SHARDS_TRACE_S = 480.0


def ground_truth_models(demand_scale: float) -> dict:
    """Analytic Table-I seed models, rescaled to ``demand_scale``.

    The knee is invariant under the rescale, so DCM needs no training sweep.
    The benchmark keeps its own copy so that it depends on the simulator's
    public API only, not on the benchmark harnesses under ``benchmarks/``.
    """
    from repro.model import ConcurrencyModel

    return {
        "app": ConcurrencyModel(
            s0=2.84e-2 / 11.03 * demand_scale,
            alpha=9.87e-3 / 11.03 * demand_scale,
            beta=4.54e-5 / 11.03 * demand_scale,
            tier="app",
        ),
        "db": ConcurrencyModel(
            s0=7.19e-3 / 4.45 * demand_scale,
            alpha=5.04e-3 / 4.45 * demand_scale,
            beta=1.65e-6 / 4.45 * demand_scale,
            tier="db",
        ),
    }


def build_spec(name: str, seed: int, duration: Optional[float] = None):
    """The ``ScenarioSpec`` of workload ``name`` for ``seed``.

    ``duration`` shortens the horizon (the smoke tests use it); ``None``
    keeps the workload's full length.
    """
    from repro.ntier import CacheSpec, ShardingSpec
    from repro.scenario import ScenarioSpec
    from repro.workload import large_variation, sine_trace

    if name == "fig5-dcm":
        return ScenarioSpec(
            hardware="1/1/1",
            soft="1000/100/80",
            seed=seed,
            demand_scale=FIG5_SCALE,
            controller="dcm",
            models=ground_truth_models(FIG5_SCALE),
            workload="trace",
            trace=large_variation(),
            max_users=FIG5_MAX_USERS,
            think_time=3.0,
            duration=duration,
        )
    if name == "lv-100k":
        return ScenarioSpec(
            hardware="1/1/1",
            soft="1000/100/80",
            seed=seed,
            monitoring=False,
            workload="batched-trace",
            trace=large_variation(),
            max_users=LV_USERS,
            think_time=3.0,
            batches=8,
            window=1000,
            duration=LV_DURATION if duration is None else duration,
        )
    if name == "stateful-zipf":
        zipf = 1.4
        return ScenarioSpec(
            hardware="1/1/1",
            seed=seed,
            demand_scale=SHARDS_SCALE,
            controller="dcm",
            models=ground_truth_models(SHARDS_SCALE),
            workload="trace",
            trace=sine_trace(duration=SHARDS_TRACE_S, period=120.0,
                             low=0.25, high=1.0),
            max_users=SHARDS_MAX_USERS,
            sharding=ShardingSpec(shards=3, replicas=1, zipf=zipf),
            cache=CacheSpec(capacity=1024, zipf=zipf),
            write_fraction=0.1,
            duration=duration,
        )
    raise KeyError(f"unknown workload {name!r}; pick from {WORKLOADS}")
