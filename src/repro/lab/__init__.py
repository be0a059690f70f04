"""`repro.lab`: manifest-driven experiment suites on a content-addressed
artifact store.

The lab layer turns the benchmark/analysis stack declarative:

- :mod:`repro.lab.manifest` — frozen ``SuiteManifest`` (schema
  ``repro-lab/1``) naming experiments (``ScenarioSpec`` lists), their
  analysis steps, and cross-experiment comparisons; built from a suite
  ``.py`` file or read from JSON.
- :mod:`repro.lab.store` — typed content-addressed store for all derived
  outputs (point results, tables, reports, bench JSON), keyed by
  ``sha256(producer-spec + inputs + version)``, with per-run provenance
  indexes and garbage collection; the engine reads and writes it
  directly.
- :mod:`repro.lab.run` — the suite executor (``repro lab run``).
- :mod:`repro.lab.diff` — cross-run metric/digest comparison
  (``repro lab diff``).
- :mod:`repro.lab.analyses` — built-in analysis steps plus resolution of
  ``"module:function"`` references (e.g. ``benchmarks.analyses:fig5``).
"""

from repro.lab.analyses import (
    LAB_ANALYSES,
    AnalysisContext,
    CompareContext,
    render_resilience_report,
    render_scenario_report,
    resolve_analysis,
    scenario_report_payload,
)
from repro.lab.diff import Delta, DiffReport, diff_runs
from repro.lab.manifest import (
    SCHEMA,
    AnalysisStep,
    ComparisonEntry,
    ExperimentEntry,
    SuiteManifest,
    manifest_roots,
)
from repro.lab.run import ExperimentResult, SuiteRun, run_suite
from repro.lab.store import (
    ARTIFACT_TYPES,
    ArtifactStore,
    artifact_key,
    canonical_json,
    payload_digest,
)

__all__ = [
    "ARTIFACT_TYPES",
    "AnalysisContext",
    "AnalysisStep",
    "ArtifactStore",
    "CompareContext",
    "ComparisonEntry",
    "Delta",
    "DiffReport",
    "ExperimentEntry",
    "ExperimentResult",
    "LAB_ANALYSES",
    "SCHEMA",
    "SuiteManifest",
    "SuiteRun",
    "artifact_key",
    "canonical_json",
    "diff_runs",
    "manifest_roots",
    "payload_digest",
    "render_resilience_report",
    "render_scenario_report",
    "resolve_analysis",
    "run_suite",
    "scenario_report_payload",
]
