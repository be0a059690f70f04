"""repro.runner — the parallel experiment engine.

Every run is a :class:`~repro.scenario.ScenarioSpec`.  :func:`run` /
:func:`run_many` execute them with process-pool fan-out over the
steady-state points and keep point results in the
:class:`~repro.lab.store.ArtifactStore` they are handed
(:mod:`repro.runner.engine`); :mod:`repro.runner.specs` builds the
paper's sweeps as spec lists and reduces their values.  See DESIGN.md §3
"Experiment engine".
"""

from repro.runner.engine import (
    EngineResult,
    RunTelemetry,
    default_cache_dir,
    run,
    run_many,
    store_key,
    stress_sweep,
)
from repro.runner.points import SteadyResult, StressPoint
from repro.runner.specs import (
    DB_TRAINING_LEVELS,
    TRAINING_LEVELS,
    SweepPoint,
    TrainingOutcome,
    ValidationCurve,
    sweep_points,
    sweep_specs,
    trained_models,
    training_outcome,
    training_specs,
    validation_curves,
    validation_specs,
)

__all__ = [
    "DB_TRAINING_LEVELS",
    "EngineResult",
    "RunTelemetry",
    "SteadyResult",
    "StressPoint",
    "SweepPoint",
    "TRAINING_LEVELS",
    "TrainingOutcome",
    "ValidationCurve",
    "default_cache_dir",
    "run",
    "run_many",
    "store_key",
    "stress_sweep",
    "sweep_points",
    "sweep_specs",
    "trained_models",
    "training_outcome",
    "training_specs",
    "validation_curves",
    "validation_specs",
]
