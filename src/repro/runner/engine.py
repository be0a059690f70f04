"""The parallel experiment engine.

``run_many(specs, jobs=..., store=...)`` is the single entry point every
benchmark, example, and CLI command routes a batch of
:class:`~repro.scenario.ScenarioSpec`\\ s through.  A spec with ``warmup``
set is a steady-state *point*; all points of a batch go through one pass:

1. each point is keyed by its canonical spec JSON (:func:`store_key`) and
   answered from the :class:`~repro.lab.store.ArtifactStore` it is handed
   when possible (no store, no lookups and no writes),
2. the remaining points fan out over a ``ProcessPoolExecutor`` (``fork``
   start method; serial when ``jobs == 1``, when only one point is
   pending, or when the platform lacks ``fork``) and are written back,
3. results come back in submission order (scheduling never affects
   output) as :class:`~repro.runner.points.SteadyResult`\\ s.

A spec without ``warmup`` is a full run: it executes in-process after the
point pass and its value is the stopped :class:`~repro.scenario.Deployment`.
:func:`stress_sweep` drives the Fig 2(a) bare-server harness through the
same point pass.

Determinism: every point's seed is part of its spec (see
:mod:`repro.runner.specs` for the sweep derivations) and both fresh and
stored results pass through the same JSON encode/decode, so values are
bit-identical at any worker count and across cold/warm stores.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.lab.store import ArtifactStore, artifact_key, canonical_json
from repro.runner.points import (
    decode_steady,
    decode_stress,
    execute_steady,
    execute_stress,
)
from repro.scenario import Deployment, ScenarioSpec


def repo_root(start: Optional[str] = None) -> Optional[str]:
    """The nearest enclosing directory holding ``pyproject.toml`` or
    ``.git``, or ``None`` when ``start`` is not inside a repo."""
    here = os.path.abspath(start or os.getcwd())
    while True:
        if any(
            os.path.exists(os.path.join(here, marker))
            for marker in ("pyproject.toml", ".git")
        ):
            return here
        parent = os.path.dirname(here)
        if parent == here:
            return None
        here = parent


def default_cache_dir() -> str:
    """The default store root: ``$REPRO_CACHE_DIR``, else
    ``<repo root>/benchmarks/out/.cache`` (the current working directory
    stands in for the repo root outside a repo).  The CLI opens its store
    here; the engine itself never does."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return override
    anchor = repo_root() or os.getcwd()
    return os.path.join(anchor, "benchmarks", "out", ".cache")


def store_key(producer: Dict[str, Any]) -> str:
    """The store key of one point: :func:`repro.lab.store.artifact_key` of
    its plain-JSON description.

    With the sanitizer armed (see :mod:`repro.check`), the
    canonical JSON is decoded back and compared against the description —
    one that changes shape through JSON (tuples, NaN, non-string keys)
    would silently decouple the key from what actually runs.
    """
    from repro.check import config as _checks
    from repro.check.sanitizer import verify_payload_roundtrip

    if _checks.enabled():
        verify_payload_roundtrip(producer, canonical_json(producer))
    return artifact_key(producer)


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass
class RunTelemetry:
    """Timing and store accounting for one engine invocation."""

    jobs: int
    store: Optional[str] = None  # store root; None when running storeless
    points: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    wall_seconds: float = 0.0
    busy_seconds: float = 0.0
    point_seconds: List[float] = field(default_factory=list)

    @property
    def worker_utilization(self) -> float:
        """Fraction of the worker pool's wall-clock spent computing."""
        if self.wall_seconds <= 0 or self.jobs <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (self.wall_seconds * self.jobs))

    def render(self) -> str:
        """ASCII telemetry table (see :func:`repro.analysis.tables.render_run_telemetry`)."""
        from repro.analysis.tables import render_run_telemetry

        return render_run_telemetry(self)


@dataclass
class EngineResult:
    """What :func:`run` / :func:`run_many` return: value plus telemetry."""

    value: Any
    telemetry: RunTelemetry


#: One point: (key producer, executor, executor argument, decoder).
_Point = Tuple[Dict[str, Any], Callable[[Any], Dict[str, Any]], Any,
               Callable[[Dict[str, Any]], Any]]


def _timed(task: Tuple[Callable[[Any], Dict[str, Any]], Any]) -> Tuple[Dict[str, Any], float]:
    execute, arg = task
    start = time.perf_counter()  # repro: noqa[DCM001] -- wall-clock telemetry, never reaches results
    encoded = execute(arg)
    return encoded, time.perf_counter() - start  # repro: noqa[DCM001] -- telemetry


def _point_pass(
    points: Sequence[_Point],
    *,
    jobs: int,
    store: Optional[ArtifactStore],
    telemetry: RunTelemetry,
) -> List[Any]:
    """Store lookup, fork pool, store write; decoded values in order."""
    keys = [store_key(producer) for producer, _ex, _arg, _dec in points]
    encoded: List[Any] = [None] * len(points)
    pending = []
    for i, key in enumerate(keys):
        entry = store.get(key) if store is not None else None
        if entry is not None:
            encoded[i] = entry["payload"]
            telemetry.cache_hits += 1
            telemetry.point_seconds.append(0.0)
        else:
            pending.append(i)
    telemetry.points += len(points)

    if pending:
        tasks = [(points[i][1], points[i][2]) for i in pending]
        workers = min(jobs, len(tasks))
        if workers > 1 and _fork_available():
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
                outputs = list(pool.map(_timed, tasks))
        else:
            outputs = [_timed(task) for task in tasks]
        for i, (result, seconds) in zip(pending, outputs):
            encoded[i] = result
            telemetry.cache_misses += 1
            telemetry.busy_seconds += seconds
            telemetry.point_seconds.append(seconds)
            if store is not None:
                store.put(keys[i], result, producer=points[i][0], type="point")
    return [point[3](enc) for point, enc in zip(points, encoded)]


def _start(jobs: int, store: Optional[ArtifactStore]) -> Tuple[RunTelemetry, float]:
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    telemetry = RunTelemetry(jobs=jobs, store=store.root if store else None)
    return telemetry, time.perf_counter()  # repro: noqa[DCM001] -- wall-clock telemetry, never reaches results


def run(
    spec: ScenarioSpec, *, jobs: int = 1, store: Optional[ArtifactStore] = None
) -> EngineResult:
    """Execute one spec; see :func:`run_many`."""
    result = run_many([spec], jobs=jobs, store=store)
    return EngineResult(value=result.value[0], telemetry=result.telemetry)


def run_many(
    specs: Sequence[ScenarioSpec],
    *,
    jobs: int = 1,
    store: Optional[ArtifactStore] = None,
) -> EngineResult:
    """Execute several :class:`~repro.scenario.ScenarioSpec`\\ s as one batch.

    All steady-state points (``warmup`` set) share one store pass and one
    worker pool, so a heterogeneous benchmark (e.g. two training sweeps
    plus two capacity probes) saturates the workers; full runs execute
    serially afterwards and count as uncached points.  ``value`` is the
    list of per-spec values in input order: a
    :class:`~repro.runner.points.SteadyResult` per point, the stopped
    :class:`~repro.scenario.Deployment` per full run.
    """
    telemetry, start = _start(jobs, store)
    for spec in specs:
        if not isinstance(spec, ScenarioSpec):
            raise ConfigurationError(
                f"the engine runs ScenarioSpecs, got {type(spec).__name__}"
            )
    steady = [i for i, spec in enumerate(specs) if spec.warmup is not None]
    values: List[Any] = [None] * len(specs)
    results = _point_pass(
        [(specs[i].to_json_obj(), execute_steady, specs[i], decode_steady)
         for i in steady],
        jobs=jobs, store=store, telemetry=telemetry,
    )
    for i, value in zip(steady, results):
        values[i] = value

    for i, spec in enumerate(specs):
        if spec.warmup is not None:
            continue
        t0 = time.perf_counter()  # repro: noqa[DCM001] -- wall-clock telemetry, never reaches results
        with Deployment(spec) as dep:
            dep.run()
        seconds = time.perf_counter() - t0  # repro: noqa[DCM001] -- telemetry
        telemetry.points += 1
        telemetry.cache_misses += 1
        telemetry.busy_seconds += seconds
        telemetry.point_seconds.append(seconds)
        values[i] = dep

    telemetry.wall_seconds = time.perf_counter() - start  # repro: noqa[DCM001] -- telemetry
    return EngineResult(value=values, telemetry=telemetry)


def stress_sweep(
    tier: str,
    levels: Sequence[int],
    *,
    seed: int = 0,
    demand_scale: float = 1.0,
    warmup: float = 3.0,
    duration: float = 15.0,
    demand_distribution: str = "exponential",
    jobs: int = 1,
    store: Optional[ArtifactStore] = None,
) -> EngineResult:
    """Direct single-tier stress at each concurrency in ``levels`` (the
    Fig 2(a) method): one bare server, no deployment.  Each level is a
    point of the shared point pass with seed ``seed + level``; ``value``
    is the list of :class:`~repro.runner.points.StressPoint`\\ s."""
    if tier not in ("app", "db"):
        raise ConfigurationError(f"unsupported stress tier {tier!r}")
    if not levels or any(int(conc) < 1 for conc in levels):
        raise ConfigurationError(f"stress levels must be >= 1, got {list(levels)}")
    telemetry, start = _start(jobs, store)
    points = []
    for conc in levels:
        point = {
            "kind": "stress",
            "tier": tier,
            "concurrency": int(conc),
            "seed": seed + int(conc),
            "demand_scale": demand_scale,
            "warmup": warmup,
            "duration": duration,
            "demand_distribution": demand_distribution,
        }
        points.append((point, execute_stress, point, decode_stress))
    value = _point_pass(points, jobs=jobs, store=store, telemetry=telemetry)
    telemetry.wall_seconds = time.perf_counter() - start  # repro: noqa[DCM001] -- telemetry
    return EngineResult(value=value, telemetry=telemetry)
