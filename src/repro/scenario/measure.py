"""Steady-state measurement over a running deployment.

Measurement lives next to the composition root that produces the systems
it measures; the engine measures every steady-state point
(a :class:`~repro.scenario.ScenarioSpec` with ``warmup`` set) with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.ntier import NTierSystem
    from repro.sim import Environment


@dataclass(frozen=True)
class SteadyState:
    """Measured steady-state operating point of one run window."""

    throughput: float
    mean_response_time: float
    tier_concurrency: Dict[str, float]
    tier_utilization: Dict[str, float]
    tier_efficiency: Dict[str, float]
    tier_busy_fraction: Dict[str, float]
    completed: int
    failed: int


def measure_steady_state(
    env: "Environment",
    system: "NTierSystem",
    warmup: float,
    duration: float,
) -> SteadyState:
    """Run ``warmup`` then ``duration`` seconds; report windowed stats."""
    if warmup < 0 or duration <= 0:
        raise ConfigurationError("need warmup >= 0 and duration > 0")
    env.run(until=env.now + warmup)
    base_completed = system.completed_count()
    base_failed = len(system.failure_log)
    base_int: Dict[str, Tuple[float, float, float, float]] = {}
    servers = system.all_servers()
    for s in servers:
        base_int[s.name] = (
            s.cpu.busy_integral(),
            s.cpu.utilization_integral(),
            s.cpu.efficiency_integral(),
            s.cpu.nonidle_integral(),
        )
    start = env.now
    env.run(until=start + duration)

    completed_rows = [
        rt for created, rt in system.request_log if created + rt >= start
    ]
    completed = system.completed_count() - base_completed
    tier_conc: Dict[str, List[float]] = {}
    tier_util: Dict[str, List[float]] = {}
    tier_eff: Dict[str, List[float]] = {}
    tier_busy: Dict[str, List[float]] = {}
    for s in servers:
        b0, u0, e0, i0 = base_int[s.name]
        tier_conc.setdefault(s.tier, []).append((s.cpu.busy_integral() - b0) / duration)
        tier_util.setdefault(s.tier, []).append(
            (s.cpu.utilization_integral() - u0) / duration
        )
        tier_eff.setdefault(s.tier, []).append(
            (s.cpu.efficiency_integral() - e0) / duration
        )
        tier_busy.setdefault(s.tier, []).append(
            (s.cpu.nonidle_integral() - i0) / duration
        )
    return SteadyState(
        throughput=completed / duration,
        mean_response_time=float(np.mean(completed_rows)) if completed_rows else 0.0,
        tier_concurrency={t: float(np.mean(v)) for t, v in tier_conc.items()},
        tier_utilization={t: float(np.mean(v)) for t, v in tier_util.items()},
        tier_efficiency={t: float(np.mean(v)) for t, v in tier_eff.items()},
        tier_busy_fraction={t: float(np.mean(v)) for t, v in tier_busy.items()},
        completed=completed,
        failed=len(system.failure_log) - base_failed,
    )
