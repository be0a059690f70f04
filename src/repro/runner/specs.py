"""Frozen experiment specifications — the engine's unit of work.

A *spec* is a frozen, hashable dataclass that fully describes one
experiment: every field that can affect the simulation outcome is part of
the spec.  Specs round-trip through JSON (``to_json`` / ``spec_from_json``)
and the engine derives content-addressed cache keys and per-point seeds
from the spec alone, so a spec is both the execution plan and the cache
identity of its results.

Seed derivation
---------------
Each spec carries one root ``seed``.  Sweep-shaped specs derive a per-point
seed as ``root + point offset`` (the offset is the point's own coordinate —
the user level or concurrency level), exactly as the pre-engine runners
did; that per-point seed then feeds :class:`repro.sim.RandomStreams`, which
spawns every component's ``numpy`` generator via ``SeedSequence`` spawn
keys.  The derivation is a pure function of the spec, never of scheduling,
so results are bit-identical at any worker count — and bit-identical to the
legacy serial API.

Cache keys
----------
``spec.cache_key()`` is ``sha256(canonical spec JSON + repro.__version__)``;
the engine uses the same construction per *point* (see
:func:`repro.runner.cache.point_key`), so re-running a suite recomputes
only points whose parameters — or the package version — changed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.control.policy import ScalingPolicy
from repro.errors import ConfigurationError
from repro.model.service_time import ConcurrencyModel
from repro.ntier.contention import ContentionModel
from repro.ntier.softconfig import HardwareConfig, SoftResourceConfig
from repro.workload.traces import WorkloadTrace

#: JMeter levels for model training ("concurrency from 1 to 200").
TRAINING_LEVELS: Tuple[int, ...] = (
    1, 2, 3, 5, 8, 12, 16, 20, 25, 30, 36, 44, 55, 65, 80, 100, 130, 160, 200
)

#: DB-model training levels (see analysis/experiments.py for the rationale).
DB_TRAINING_LEVELS: Tuple[int, ...] = (
    1, 2, 3, 5, 8, 12, 16, 20, 25, 30, 36, 44, 55, 65, 80, 90, 100, 110, 120
)


# ---------------------------------------------------------------------------
# JSON helpers
# ---------------------------------------------------------------------------

def _canonical_json(obj: Any) -> str:
    """Stable, compact JSON used for hashing and persistence."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _enc_contention(model: Optional[ContentionModel]) -> Optional[Dict[str, Any]]:
    if model is None:
        return None
    return {"s0": model.s0, "alpha": model.alpha, "beta": model.beta,
            "delta": model.delta, "knee": model.knee}


def _dec_contention(obj: Optional[Dict[str, Any]]) -> Optional[ContentionModel]:
    return None if obj is None else ContentionModel(**obj)


def _enc_model(model: ConcurrencyModel) -> Dict[str, Any]:
    return {"s0": model.s0, "alpha": model.alpha, "beta": model.beta,
            "gamma": model.gamma, "tier": model.tier}


def _enc_policy(policy: Optional[ScalingPolicy]) -> Optional[Dict[str, Any]]:
    if policy is None:
        return None
    return {f.name: getattr(policy, f.name) for f in fields(policy)}


def _freeze_int_seq(seq: Sequence[int], label: str) -> Tuple[int, ...]:
    out = tuple(int(v) for v in seq)
    if not out:
        raise ConfigurationError(f"{label} must not be empty")
    return out


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

class _SpecBase:
    """Shared JSON / cache-key plumbing (subclasses are frozen dataclasses)."""

    kind: ClassVar[str] = ""

    def to_json_obj(self) -> Dict[str, Any]:
        raise NotImplementedError

    def to_json(self) -> str:
        """Canonical JSON text for this spec (stable across runs)."""
        return _canonical_json(self.to_json_obj())

    def cache_key(self) -> str:
        """``sha256(spec JSON + repro.__version__)`` — the spec's identity."""
        from repro import __version__

        digest = hashlib.sha256()
        digest.update(self.to_json().encode("utf-8"))
        digest.update(b"\0")
        digest.update(__version__.encode("utf-8"))
        return digest.hexdigest()

    def payloads(self) -> Optional[List[Dict[str, Any]]]:
        """Shardable per-point payload dicts, or ``None`` if the spec must
        execute in-process (see :class:`AutoscaleSpec`)."""
        raise NotImplementedError

    def reduce(self, results: List[Any]) -> Any:
        """Combine decoded per-point results (in payload order) into the
        spec's final value."""
        raise NotImplementedError


def _steady_payload(
    *,
    hardware: HardwareConfig,
    soft: SoftResourceConfig,
    users: int,
    workload: str,
    think_time: float,
    seed: int,
    demand_scale: float,
    warmup: float,
    duration: float,
    imbalance: float,
    demand_distribution: str,
    balancer_policy: str,
    mysql_contention: Optional[ContentionModel],
    tomcat_contention: Optional[ContentionModel],
) -> Dict[str, Any]:
    """One steady-state measurement, fully described as plain JSON data.

    This payload is what workers execute and what the cache key hashes; two
    specs that request the same operating point share cache entries.
    """
    return {
        "kind": "steady",
        "hardware": str(hardware),
        "soft": str(soft),
        "users": int(users),
        "workload": workload,
        "think_time": float(think_time),
        "seed": int(seed),
        "demand_scale": float(demand_scale),
        "warmup": float(warmup),
        "duration": float(duration),
        "imbalance": float(imbalance),
        "demand_distribution": demand_distribution,
        "balancer_policy": balancer_policy,
        "mysql_contention": _enc_contention(mysql_contention),
        "tomcat_contention": _enc_contention(tomcat_contention),
    }


@dataclass(frozen=True)
class SteadySpec(_SpecBase):
    """One steady-state run of a fixed topology under a fixed population.

    The root ``seed`` is used as-is (there is only one point).  ``workload``
    selects the generator: ``"rubbos"`` (closed loop, exponential think
    time) or ``"jmeter"`` (closed loop, zero think).
    """

    kind: ClassVar[str] = "steady"

    hardware: HardwareConfig = HardwareConfig(1, 1, 1)
    soft: SoftResourceConfig = SoftResourceConfig.DEFAULT
    users: int = 100
    workload: str = "rubbos"
    think_time: float = 3.0
    seed: int = 0
    demand_scale: float = 1.0
    warmup: float = 5.0
    duration: float = 20.0
    imbalance: float = 0.05
    demand_distribution: str = "exponential"
    balancer_policy: str = "least_conn"
    mysql_contention: Optional[ContentionModel] = None
    tomcat_contention: Optional[ContentionModel] = None

    def __post_init__(self) -> None:
        if isinstance(self.hardware, str):
            object.__setattr__(self, "hardware", HardwareConfig.parse(self.hardware))
        if isinstance(self.soft, str):
            object.__setattr__(self, "soft", SoftResourceConfig.parse(self.soft))
        if self.workload not in ("rubbos", "jmeter"):
            raise ConfigurationError(f"unknown workload {self.workload!r}")
        if self.users < 1:
            raise ConfigurationError(f"users must be >= 1, got {self.users}")

    def payloads(self) -> List[Dict[str, Any]]:
        return [_steady_payload(
            hardware=self.hardware, soft=self.soft, users=self.users,
            workload=self.workload, think_time=self.think_time, seed=self.seed,
            demand_scale=self.demand_scale, warmup=self.warmup,
            duration=self.duration, imbalance=self.imbalance,
            demand_distribution=self.demand_distribution,
            balancer_policy=self.balancer_policy,
            mysql_contention=self.mysql_contention,
            tomcat_contention=self.tomcat_contention,
        )]

    def reduce(self, results: List[Any]) -> Any:
        return results[0]

    def to_json_obj(self) -> Dict[str, Any]:
        return self.payloads()[0]

    @classmethod
    def from_json_obj(cls, obj: Dict[str, Any]) -> "SteadySpec":
        return cls(
            hardware=obj["hardware"], soft=obj["soft"], users=obj["users"],
            workload=obj["workload"], think_time=obj["think_time"],
            seed=obj["seed"], demand_scale=obj["demand_scale"],
            warmup=obj["warmup"], duration=obj["duration"],
            imbalance=obj["imbalance"],
            demand_distribution=obj["demand_distribution"],
            balancer_policy=obj["balancer_policy"],
            mysql_contention=_dec_contention(obj.get("mysql_contention")),
            tomcat_contention=_dec_contention(obj.get("tomcat_contention")),
        )


@dataclass(frozen=True)
class SweepSpec(_SpecBase):
    """A population sweep against the full system — one point per level.

    ``seed_mode="offset"`` derives each point's seed as ``seed + users``
    (the legacy ``jmeter_sweep`` scheme); ``"fixed"`` uses the root seed for
    every point.
    """

    kind: ClassVar[str] = "sweep"

    users_levels: Tuple[int, ...] = (1,)
    hardware: HardwareConfig = HardwareConfig(1, 1, 1)
    soft: SoftResourceConfig = SoftResourceConfig.DEFAULT
    workload: str = "jmeter"
    think_time: float = 3.0
    seed: int = 0
    demand_scale: float = 1.0
    warmup: float = 4.0
    duration: float = 12.0
    imbalance: float = 0.05
    seed_mode: str = "offset"

    def __post_init__(self) -> None:
        if isinstance(self.hardware, str):
            object.__setattr__(self, "hardware", HardwareConfig.parse(self.hardware))
        if isinstance(self.soft, str):
            object.__setattr__(self, "soft", SoftResourceConfig.parse(self.soft))
        object.__setattr__(
            self, "users_levels", _freeze_int_seq(self.users_levels, "users_levels")
        )
        if self.workload not in ("rubbos", "jmeter"):
            raise ConfigurationError(f"unknown workload {self.workload!r}")
        if self.seed_mode not in ("offset", "fixed"):
            raise ConfigurationError(f"unknown seed_mode {self.seed_mode!r}")

    def point_seed(self, users: int) -> int:
        """Deterministic per-point seed (pure function of the spec)."""
        return self.seed + users if self.seed_mode == "offset" else self.seed

    def payloads(self) -> List[Dict[str, Any]]:
        return [_steady_payload(
            hardware=self.hardware, soft=self.soft, users=users,
            workload=self.workload, think_time=self.think_time,
            seed=self.point_seed(users), demand_scale=self.demand_scale,
            warmup=self.warmup, duration=self.duration,
            imbalance=self.imbalance, demand_distribution="exponential",
            balancer_policy="least_conn", mysql_contention=None,
            tomcat_contention=None,
        ) for users in self.users_levels]

    def reduce(self, results: List[Any]) -> Any:
        from repro.analysis.experiments import SweepPoint

        return [SweepPoint(users, r.steady)
                for users, r in zip(self.users_levels, results)]

    def to_json_obj(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "users_levels": list(self.users_levels),
            "hardware": str(self.hardware),
            "soft": str(self.soft),
            "workload": self.workload,
            "think_time": self.think_time,
            "seed": self.seed,
            "demand_scale": self.demand_scale,
            "warmup": self.warmup,
            "duration": self.duration,
            "imbalance": self.imbalance,
            "seed_mode": self.seed_mode,
        }

    @classmethod
    def from_json_obj(cls, obj: Dict[str, Any]) -> "SweepSpec":
        data = dict(obj)
        data.pop("kind", None)
        data["users_levels"] = tuple(data["users_levels"])
        return cls(**data)


@dataclass(frozen=True)
class StressSpec(_SpecBase):
    """Direct single-tier stress at matched concurrency (the Fig 2(a)
    method).  Per-point seed is ``seed + concurrency``."""

    kind: ClassVar[str] = "stress"

    tier: str = "db"
    concurrencies: Tuple[int, ...] = (1,)
    seed: int = 0
    demand_scale: float = 1.0
    warmup: float = 3.0
    duration: float = 15.0
    demand_distribution: str = "exponential"

    def __post_init__(self) -> None:
        if self.tier not in ("app", "db"):
            raise ConfigurationError(f"unsupported stress tier {self.tier!r}")
        object.__setattr__(
            self,
            "concurrencies",
            _freeze_int_seq(self.concurrencies, "concurrencies"),
        )
        for conc in self.concurrencies:
            if conc < 1:
                raise ConfigurationError(f"concurrency must be >= 1, got {conc}")

    def payloads(self) -> List[Dict[str, Any]]:
        return [{
            "kind": "stress",
            "tier": self.tier,
            "concurrency": conc,
            "seed": self.seed + conc,
            "demand_scale": self.demand_scale,
            "warmup": self.warmup,
            "duration": self.duration,
            "demand_distribution": self.demand_distribution,
        } for conc in self.concurrencies]

    def reduce(self, results: List[Any]) -> Any:
        return list(results)

    def to_json_obj(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "tier": self.tier,
            "concurrencies": list(self.concurrencies),
            "seed": self.seed,
            "demand_scale": self.demand_scale,
            "warmup": self.warmup,
            "duration": self.duration,
            "demand_distribution": self.demand_distribution,
        }

    @classmethod
    def from_json_obj(cls, obj: Dict[str, Any]) -> "StressSpec":
        data = dict(obj)
        data.pop("kind", None)
        data["concurrencies"] = tuple(data["concurrencies"])
        return cls(**data)


@dataclass(frozen=True)
class TrainingSpec(_SpecBase):
    """The paper's model-training procedure for one tier (Section V-A).

    The sweep points are identical to the equivalent :class:`SweepSpec`
    (Tomcat bottleneck on 1/1/1, MySQL bottleneck on 1/2/1), so training
    shares cache entries with any sweep that touched the same operating
    points.  The least-squares fit runs in the reduce step.
    """

    kind: ClassVar[str] = "training"

    tier: str = "app"
    seed: int = 0
    demand_scale: float = 1.0
    levels: Optional[Tuple[int, ...]] = None
    warmup: float = 4.0
    duration: float = 24.0

    def __post_init__(self) -> None:
        if self.tier not in ("app", "db"):
            raise ConfigurationError(f"cannot train tier {self.tier!r}")
        if self.levels is not None:
            object.__setattr__(
                self, "levels", _freeze_int_seq(self.levels, "levels")
            )

    @property
    def hardware(self) -> HardwareConfig:
        """The bottleneck-forcing topology for this tier."""
        return HardwareConfig(1, 1, 1) if self.tier == "app" else HardwareConfig(1, 2, 1)

    @property
    def effective_levels(self) -> Tuple[int, ...]:
        if self.levels is not None:
            return self.levels
        return TRAINING_LEVELS if self.tier == "app" else DB_TRAINING_LEVELS

    def sweep_spec(self) -> SweepSpec:
        """The underlying JMeter sweep this training parameterises."""
        return SweepSpec(
            users_levels=self.effective_levels,
            hardware=self.hardware,
            soft=SoftResourceConfig.DEFAULT,
            workload="jmeter",
            seed=self.seed,
            demand_scale=self.demand_scale,
            warmup=self.warmup,
            duration=self.duration,
        )

    def payloads(self) -> List[Dict[str, Any]]:
        return self.sweep_spec().payloads()

    def reduce(self, results: List[Any]) -> Any:
        from repro.analysis.experiments import TrainingOutcome, hardware_count
        from repro.model import bin_samples, fit_concurrency_model

        hardware = self.hardware
        samples = []
        for users, r in zip(self.effective_levels, results):
            steady = r.steady
            busy = steady.tier_busy_fraction.get(self.tier, 0.0)
            if steady.throughput <= 0 or busy < 0.05:
                continue
            samples.append(
                (
                    steady.tier_concurrency[self.tier] / busy,
                    steady.throughput / hardware_count(hardware, self.tier) / busy,
                )
            )
        binned = bin_samples(samples, bin_width=1.0)
        fit = fit_concurrency_model(binned, tier=self.tier)
        return TrainingOutcome(tier=self.tier, fit=fit, samples=samples)

    def to_json_obj(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "tier": self.tier,
            "seed": self.seed,
            "demand_scale": self.demand_scale,
            "levels": None if self.levels is None else list(self.levels),
            "warmup": self.warmup,
            "duration": self.duration,
        }

    @classmethod
    def from_json_obj(cls, obj: Dict[str, Any]) -> "TrainingSpec":
        data = dict(obj)
        data.pop("kind", None)
        if data.get("levels") is not None:
            data["levels"] = tuple(data["levels"])
        return cls(**data)


@dataclass(frozen=True)
class ValidationSpec(_SpecBase):
    """The Fig 4 experiment: one hardware topology, several soft
    allocations, a ramp of RUBBoS users.  Per-point seed is
    ``seed + users`` (identical across allocations, as in the legacy
    runner, so curves differ only by the allocation under test)."""

    kind: ClassVar[str] = "validation"

    hardware: HardwareConfig = HardwareConfig(1, 1, 1)
    soft_configs: Tuple[SoftResourceConfig, ...] = (SoftResourceConfig.DEFAULT,)
    user_levels: Tuple[int, ...] = (100,)
    seed: int = 0
    demand_scale: float = 1.0
    think_time: float = 3.0
    warmup: float = 5.0
    duration: float = 20.0
    imbalance: float = 0.05

    def __post_init__(self) -> None:
        if isinstance(self.hardware, str):
            object.__setattr__(self, "hardware", HardwareConfig.parse(self.hardware))
        softs = tuple(
            SoftResourceConfig.parse(s) if isinstance(s, str) else s
            for s in self.soft_configs
        )
        if not softs:
            raise ConfigurationError("soft_configs must not be empty")
        object.__setattr__(self, "soft_configs", softs)
        object.__setattr__(
            self, "user_levels", _freeze_int_seq(self.user_levels, "user_levels")
        )

    def payloads(self) -> List[Dict[str, Any]]:
        return [_steady_payload(
            hardware=self.hardware, soft=soft, users=users,
            workload="rubbos", think_time=self.think_time,
            seed=self.seed + users, demand_scale=self.demand_scale,
            warmup=self.warmup, duration=self.duration,
            imbalance=self.imbalance, demand_distribution="exponential",
            balancer_policy="least_conn", mysql_contention=None,
            tomcat_contention=None,
        ) for soft in self.soft_configs for users in self.user_levels]

    def reduce(self, results: List[Any]) -> Any:
        from repro.analysis.experiments import ValidationCurve

        curves = []
        per_soft = len(self.user_levels)
        for i, soft in enumerate(self.soft_configs):
            chunk = results[i * per_soft:(i + 1) * per_soft]
            curves.append(ValidationCurve(
                soft=soft,
                users=self.user_levels,
                throughput=tuple(r.steady.throughput for r in chunk),
                mean_response_time=tuple(
                    r.steady.mean_response_time for r in chunk
                ),
            ))
        return curves

    def to_json_obj(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "hardware": str(self.hardware),
            "soft_configs": [str(s) for s in self.soft_configs],
            "user_levels": list(self.user_levels),
            "seed": self.seed,
            "demand_scale": self.demand_scale,
            "think_time": self.think_time,
            "warmup": self.warmup,
            "duration": self.duration,
            "imbalance": self.imbalance,
        }

    @classmethod
    def from_json_obj(cls, obj: Dict[str, Any]) -> "ValidationSpec":
        data = dict(obj)
        data.pop("kind", None)
        data["soft_configs"] = tuple(data["soft_configs"])
        data["user_levels"] = tuple(data["user_levels"])
        return cls(**data)


@dataclass(frozen=True)
class AutoscaleSpec(_SpecBase):
    """One controller replaying one trace — the Fig 5 harness.

    The run's value (:class:`repro.analysis.experiments.AutoscaleRun`)
    retains the live simulation objects the benchmarks inspect (collector
    records, scaling timelines, agents), so this spec executes in-process
    and is not disk-cacheable; the engine runs it serially and reports it
    as a cache miss in the telemetry.
    """

    kind: ClassVar[str] = "autoscale"

    controller: str = "dcm"
    trace: WorkloadTrace = field(
        default_factory=lambda: WorkloadTrace((0.0, 60.0), (0.5, 0.5))
    )
    max_users: int = 100
    seed: int = 0
    demand_scale: float = 1.0
    policy: Optional[ScalingPolicy] = None
    initial_soft: SoftResourceConfig = SoftResourceConfig.DEFAULT
    models: Optional[Tuple[Tuple[str, ConcurrencyModel], ...]] = None
    imbalance: float = 0.05
    think_time: float = 3.0
    online_refit: bool = True
    preparation_periods: Optional[Tuple[Tuple[str, float], ...]] = None

    def __post_init__(self) -> None:
        if self.controller not in ("dcm", "ec2", "predictive"):
            raise ConfigurationError(f"unknown controller {self.controller!r}")
        if isinstance(self.initial_soft, str):
            object.__setattr__(
                self, "initial_soft", SoftResourceConfig.parse(self.initial_soft)
            )
        if isinstance(self.models, dict):
            object.__setattr__(self, "models", tuple(sorted(self.models.items())))
        if isinstance(self.preparation_periods, dict):
            object.__setattr__(
                self,
                "preparation_periods",
                tuple(sorted(self.preparation_periods.items())),
            )
        if self.max_users < 1:
            raise ConfigurationError(f"max_users must be >= 1, got {self.max_users}")

    def payloads(self) -> Optional[List[Dict[str, Any]]]:
        return None

    def execute(self) -> Any:
        from repro.analysis import experiments

        return experiments._autoscale_core(self)

    def reduce(self, results: List[Any]) -> Any:
        return results[0]

    def to_json_obj(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "controller": self.controller,
            "trace": {"times": list(self.trace.times),
                      "levels": list(self.trace.levels)},
            "max_users": self.max_users,
            "seed": self.seed,
            "demand_scale": self.demand_scale,
            "policy": _enc_policy(self.policy),
            "initial_soft": str(self.initial_soft),
            "models": None if self.models is None else {
                tier: _enc_model(m) for tier, m in self.models
            },
            "imbalance": self.imbalance,
            "think_time": self.think_time,
            "online_refit": self.online_refit,
            "preparation_periods": None if self.preparation_periods is None
            else dict(self.preparation_periods),
        }

    @classmethod
    def from_json_obj(cls, obj: Dict[str, Any]) -> "AutoscaleSpec":
        models = obj.get("models")
        return cls(
            controller=obj["controller"],
            trace=WorkloadTrace(
                tuple(obj["trace"]["times"]), tuple(obj["trace"]["levels"])
            ),
            max_users=obj["max_users"],
            seed=obj["seed"],
            demand_scale=obj["demand_scale"],
            policy=None if obj.get("policy") is None
            else ScalingPolicy(**obj["policy"]),
            initial_soft=obj["initial_soft"],
            models=None if models is None else {
                tier: ConcurrencyModel(**m) for tier, m in models.items()
            },
            imbalance=obj["imbalance"],
            think_time=obj["think_time"],
            online_refit=obj["online_refit"],
            preparation_periods=None if obj.get("preparation_periods") is None
            else dict(obj["preparation_periods"]),
        )


#: Registry used by :func:`spec_from_json`.
SPEC_KINDS: Dict[str, type] = {
    cls.kind: cls
    for cls in (SteadySpec, SweepSpec, StressSpec, TrainingSpec,
                ValidationSpec, AutoscaleSpec)
}


def spec_from_json(text: str) -> _SpecBase:
    """Reconstruct any spec from its ``to_json()`` text."""
    obj = json.loads(text)
    kind = obj.get("kind")
    cls = SPEC_KINDS.get(kind)
    if cls is None:
        raise ConfigurationError(f"unknown spec kind {kind!r}")
    return cls.from_json_obj(obj)
