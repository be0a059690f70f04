"""Point execution — the worker side of the engine.

A *point* is one independent simulation whose result the engine stores:
a steady-state :class:`~repro.scenario.ScenarioSpec` (one with
``warmup`` set), or one level of the Fig 2(a) bare-server stress harness.
The executors here take the point's plain description, run it, and
return its **encoded** (JSON-able) result; the engine decodes it with the
matching ``decode_*`` function.  Fresh and stored results go through the
same encode/decode round-trip, so values are bit-identical regardless of
worker count or store state (Python floats survive JSON exactly).

These functions are module-level so :class:`concurrent.futures.ProcessPoolExecutor`
can pickle them by reference.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Tuple

from repro.errors import ConfigurationError
from repro.scenario import Deployment, SteadyState, measure_steady_state
from repro.workload.servlets import Servlet, ServletCatalog


@dataclass(frozen=True)
class SteadyResult:
    """Decoded result of one steady-state point.

    ``server_busy`` maps each tier to the sorted per-server mean busy
    concurrency over the *whole* run (warmup included), which is what the
    balance ablation inspects for skew asymmetry.
    """

    steady: SteadyState
    server_busy: Dict[str, Tuple[float, ...]]


@dataclass(frozen=True)
class StressPoint:
    """One point of a direct-stress sweep."""

    target_concurrency: int
    measured_concurrency: float
    throughput: float  # HTTP-equivalent requests/s


def execute_steady(spec) -> Dict[str, Any]:
    """Warm ``spec`` up for ``spec.warmup`` seconds, measure over
    ``spec.duration`` seconds, and encode the result."""
    with Deployment(spec) as dep:
        dep.start()
        steady = measure_steady_state(
            dep.env, dep.system, spec.warmup, spec.duration
        )
        server_busy = {
            tier: sorted(
                s.cpu.busy_integral() / dep.env.now
                for s in dep.system.tier_servers(tier)
            )
            for tier in ("web", "app", "db")
        }
    return {"steady": asdict(steady), "server_busy": server_busy}


def decode_steady(encoded: Dict[str, Any]) -> SteadyResult:
    return SteadyResult(
        steady=SteadyState(**encoded["steady"]),
        server_busy={
            tier: tuple(vals) for tier, vals in encoded["server_busy"].items()
        },
    )


def _stress_servlet(catalog: ServletCatalog, tier: str) -> Tuple[Servlet, float]:
    """A synthetic single-tier servlet matching the mix's mean demands.

    Returns the servlet and the visit ratio used to normalise throughput to
    HTTP-equivalents.
    """
    means = catalog.mean_demands()
    if tier == "db":
        queries = means["db_queries"]
        per_query = means["db_total"] / queries
        return (
            Servlet("StressQuery", "browse", 0.0, 0.0, (per_query,)),
            queries,
        )
    if tier == "app":
        return Servlet("StressServlet", "browse", 0.0, means["tomcat"], ()), 1.0
    raise ConfigurationError(f"unsupported stress tier {tier!r}")


def execute_stress(point: Dict[str, Any]) -> Dict[str, Any]:
    """Drive one bare server at a fixed concurrency (the Fig 2(a) method).

    ``point`` carries ``tier``, ``concurrency``, ``seed``, ``demand_scale``,
    ``warmup``, ``duration`` and ``demand_distribution``.
    """
    from repro.ntier import MySQLServer, TomcatServer
    from repro.ntier.balancer import Balancer
    from repro.ntier.request import Request
    from repro.sim import Environment, RandomStreams
    from repro.sim.rng import BlockDraws
    from repro.workload import browse_only_catalog

    tier = point["tier"]
    conc = point["concurrency"]
    demand_distribution = point["demand_distribution"]
    catalog = browse_only_catalog(
        demand_distribution=demand_distribution,
        demand_scale=point["demand_scale"],
    )
    servlet, visit_ratio = _stress_servlet(catalog, tier)

    env = Environment()
    streams = RandomStreams(point["seed"])
    # The loops below are the stream's only consumer: draw it in blocks.
    draws = BlockDraws(streams.stream("stress.demand"), "exponential")
    if tier == "db":
        server = MySQLServer(env, "mysql-stress", max_connections=10 * conc + 50)
    else:
        dummy = Balancer("stress-db")
        server = TomcatServer(
            env, "tomcat-stress", db_balancer=dummy, threads=conc, db_connections=1
        )

    def loop():
        while True:
            demand = servlet.draw_demand(draws, demand_distribution)
            request = Request(servlet=servlet, created=env.now, demand=demand)
            if tier == "db":
                yield server.handle(request, demand=demand.db_queries[0])
            else:
                yield server.handle(request)

    for _ in range(conc):
        env.process(loop())
    warmup, duration = point["warmup"], point["duration"]
    env.run(until=warmup)
    base_completions = server.completions
    base_busy = server.cpu.busy_integral()
    env.run(until=warmup + duration)
    return {
        "target_concurrency": conc,
        "measured_concurrency": (server.cpu.busy_integral() - base_busy) / duration,
        "throughput": (server.completions - base_completions)
        / duration
        / visit_ratio,
    }


def decode_stress(encoded: Dict[str, Any]) -> StressPoint:
    return StressPoint(**encoded)
