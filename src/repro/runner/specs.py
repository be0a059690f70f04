"""The paper's sweeps as lists of :class:`~repro.scenario.ScenarioSpec`.

Every run is a ``ScenarioSpec``; the functions here only *build* the
steady-state points of the paper's procedures and *reduce* the engine's
values (in spec order) back into their results:

* :func:`sweep_specs` / :func:`sweep_points` — a JMeter or RUBBoS
  population sweep against the full system;
* :func:`training_specs` / :func:`training_outcome` — the model-training
  procedure of Section V-A (Table I);
* :func:`validation_specs` / :func:`validation_curves` — the Fig 4
  experiment: one topology, several soft allocations, a user ramp.

Seed derivation
---------------
A sweep point's seed is ``root + users`` (``seed_mode="offset"``, the
default) or the root itself (``"fixed"``).  That seed feeds
:class:`repro.sim.RandomStreams`, which spawns every component's ``numpy``
generator via ``SeedSequence`` spawn keys.  The derivation is a pure
function of the sweep's arguments, never of scheduling, and it is part of
each spec, so the spec JSON is both the execution plan and the store key.
Training points are exactly the matching sweep points, so the two share
store entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.model import (
    ConcurrencyModel,
    FitResult,
    bin_samples,
    fit_concurrency_model,
)
from repro.ntier.softconfig import HardwareConfig, SoftResourceConfig
from repro.scenario import ScenarioSpec, SteadyState

#: JMeter levels for model training ("concurrency from 1 to 200").
TRAINING_LEVELS: Tuple[int, ...] = (
    1, 2, 3, 5, 8, 12, 16, 20, 25, 30, 36, 44, 55, 65, 80, 100, 130, 160, 200
)

#: DB-model training levels.  The 1/2/1 bottleneck topology saturates the
#: single MySQL well before 200 users, so the ramp stops at 120.
DB_TRAINING_LEVELS: Tuple[int, ...] = (
    1, 2, 3, 5, 8, 12, 16, 20, 25, 30, 36, 44, 55, 65, 80, 90, 100, 110, 120
)


@dataclass(frozen=True)
class SweepPoint:
    """One JMeter operating point against the full system."""

    users: int
    steady: SteadyState


@dataclass(frozen=True)
class TrainingOutcome:
    """Everything the Table I row for one tier needs."""

    tier: str
    fit: FitResult
    samples: List[Tuple[float, float]]

    @property
    def model(self) -> ConcurrencyModel:
        """The fitted model."""
        return self.fit.model


@dataclass(frozen=True)
class ValidationCurve:
    """Throughput-vs-users curve for one soft allocation."""

    soft: SoftResourceConfig
    users: Tuple[int, ...]
    throughput: Tuple[float, ...]
    mean_response_time: Tuple[float, ...]

    @property
    def peak_throughput(self) -> float:
        """Best sustained throughput across the user ramp."""
        return max(self.throughput)


def sweep_specs(
    users_levels: Sequence[int],
    *,
    hardware="1/1/1",
    soft=SoftResourceConfig.DEFAULT,
    workload: str = "jmeter",
    think_time: float = 3.0,
    seed: int = 0,
    demand_scale: float = 1.0,
    warmup: float = 4.0,
    duration: float = 12.0,
    imbalance: float = 0.05,
    seed_mode: str = "offset",
) -> List[ScenarioSpec]:
    """One steady-state point per population level, in level order."""
    if workload not in ("rubbos", "jmeter"):
        raise ConfigurationError(f"unknown sweep workload {workload!r}")
    if seed_mode not in ("offset", "fixed"):
        raise ConfigurationError(f"unknown seed_mode {seed_mode!r}")
    if not users_levels:
        raise ConfigurationError("users_levels must not be empty")
    return [
        ScenarioSpec(
            hardware=hardware, soft=soft, users=int(users), workload=workload,
            think_time=think_time,
            seed=seed + int(users) if seed_mode == "offset" else seed,
            demand_scale=demand_scale, monitoring=False, warmup=warmup,
            duration=duration, imbalance=imbalance,
        )
        for users in users_levels
    ]


def sweep_points(
    specs: Sequence[ScenarioSpec], results: Sequence
) -> List[SweepPoint]:
    """Pair each sweep spec's population with its measured steady state."""
    return [SweepPoint(spec.users, r.steady) for spec, r in zip(specs, results)]


def training_hardware(tier: str) -> HardwareConfig:
    """The bottleneck-forcing topology for ``tier``: Tomcat saturates on
    1/1/1, MySQL on 1/2/1."""
    if tier not in ("app", "db"):
        raise ConfigurationError(f"cannot train tier {tier!r}")
    return HardwareConfig(1, 1, 1) if tier == "app" else HardwareConfig(1, 2, 1)


def training_specs(
    tier: str,
    *,
    seed: int = 0,
    demand_scale: float = 1.0,
    levels: Optional[Sequence[int]] = None,
    warmup: float = 4.0,
    duration: float = 24.0,
) -> List[ScenarioSpec]:
    """The JMeter sweep behind one tier's Table I row (Section V-A)."""
    hardware = training_hardware(tier)
    if levels is None:
        levels = TRAINING_LEVELS if tier == "app" else DB_TRAINING_LEVELS
    return sweep_specs(
        levels, hardware=hardware, seed=seed, demand_scale=demand_scale,
        warmup=warmup, duration=duration,
    )


def training_outcome(tier: str, results: Sequence) -> TrainingOutcome:
    """Fit Eq (7) on one tier's training points (engine values in spec
    order); points where the tier is idle or served nothing are skipped."""
    servers = getattr(training_hardware(tier), tier)
    samples = []
    for r in results:
        steady = r.steady
        busy = steady.tier_busy_fraction.get(tier, 0.0)
        if steady.throughput <= 0 or busy < 0.05:
            continue
        samples.append((
            steady.tier_concurrency[tier] / busy,
            steady.throughput / servers / busy,
        ))
    binned = bin_samples(samples, bin_width=1.0)
    fit = fit_concurrency_model(binned, tier=tier)
    return TrainingOutcome(tier=tier, fit=fit, samples=samples)


def validation_specs(
    *,
    hardware,
    soft_configs: Sequence,
    user_levels: Sequence[int],
    seed: int = 0,
    demand_scale: float = 1.0,
    think_time: float = 3.0,
    warmup: float = 5.0,
    duration: float = 20.0,
    imbalance: float = 0.05,
) -> List[ScenarioSpec]:
    """The Fig 4 grid: every soft allocation across the RUBBoS user ramp,
    allocation-major.  The seed offset is the user level, identical across
    allocations, so curves differ only by the allocation under test."""
    if not soft_configs:
        raise ConfigurationError("soft_configs must not be empty")
    return [
        spec
        for soft in soft_configs
        for spec in sweep_specs(
            user_levels, hardware=hardware, soft=soft, workload="rubbos",
            think_time=think_time, seed=seed, demand_scale=demand_scale,
            warmup=warmup, duration=duration, imbalance=imbalance,
        )
    ]


def validation_curves(
    specs: Sequence[ScenarioSpec], results: Sequence
) -> List[ValidationCurve]:
    """Group validation points by soft allocation, in first-seen order."""
    rows: Dict[SoftResourceConfig, List] = {}
    for spec, r in zip(specs, results):
        rows.setdefault(spec.soft, []).append((spec.users, r.steady))
    return [
        ValidationCurve(
            soft=soft,
            users=tuple(users for users, _ in points),
            throughput=tuple(s.throughput for _, s in points),
            mean_response_time=tuple(s.mean_response_time for _, s in points),
        )
        for soft, points in rows.items()
    ]


_MODEL_CACHE: Dict[Tuple[float, int], Dict[str, ConcurrencyModel]] = {}


def trained_models(
    demand_scale: float = 1.0, seed: int = 0
) -> Dict[str, ConcurrencyModel]:
    """Offline-trained models per tier, cached in memory per (scale, seed).

    This is what DCM seeds its online estimator with when a spec carries
    no ``models`` — the paper trains with JMeter before the autoscaling
    runs.
    """
    from repro.runner.engine import run_many

    key = (demand_scale, seed)
    if key not in _MODEL_CACHE:
        specs = {
            tier: training_specs(tier, seed=seed, demand_scale=demand_scale)
            for tier in ("app", "db")
        }
        _MODEL_CACHE[key] = {
            tier: training_outcome(tier, run_many(tier_specs).value).model
            for tier, tier_specs in specs.items()
        }
    return _MODEL_CACHE[key]
