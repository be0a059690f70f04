"""Suite manifests — the lab's declarative experiment descriptions.

A :class:`SuiteManifest` (schema ``repro-lab/1``) is a frozen,
JSON-round-tripping description of a whole experiment suite: named
*experiments* (each a list of :class:`~repro.scenario.ScenarioSpec`\\ s
plus the analysis steps that turn their values into artifacts) and
cross-experiment *comparisons*.  It follows the conventions of
:mod:`repro.scenario.spec`: frozen dataclasses, ``__post_init__``
validation that fails fast with :class:`~repro.errors.ConfigurationError`,
canonical JSON via ``to_json`` / ``from_json``, and a schema tag checked
with :class:`~repro.errors.SchemaError` on load.

The committed suite is code: :meth:`SuiteManifest.load` builds a manifest
from a ``.py`` file's ``build_suite()`` (``benchmarks/suite.py``) and
still reads JSON manifests.  Analysis steps name either a built-in from
:data:`repro.lab.analyses.LAB_ANALYSES` or any importable
``"package.module:function"`` dotted reference.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SchemaError
from repro.scenario.spec import SCHEMA as SCENARIO_SCHEMA, ScenarioSpec

#: Schema tag written by :meth:`SuiteManifest.to_json_obj`.
SCHEMA = "repro-lab/1"

_ACCEPTED_SCHEMAS = (SCHEMA,)

#: Spec kinds of the retired runner spec classes; manifests written before
#: every run became a ScenarioSpec carry them.
RETIRED_KINDS = ("steady", "sweep", "stress", "training", "validation", "autoscale")

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


def _canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _check_name(name: str, what: str) -> None:
    if not isinstance(name, str) or not _NAME.match(name):
        raise ConfigurationError(
            f"{what} name {name!r} must match {_NAME.pattern}"
        )


def _decode_spec(obj: Any) -> ScenarioSpec:
    if not isinstance(obj, dict):
        raise ConfigurationError(
            f"spec entry must be an object, got {type(obj).__name__}"
        )
    kind = obj.get("kind")
    if kind in RETIRED_KINDS:
        raise SchemaError(
            f"spec kind {kind!r} is retired; describe the run as a "
            f"ScenarioSpec (kind 'scenario', schema {SCENARIO_SCHEMA!r}; set "
            f"'warmup' for a steady-state point)"
        )
    return ScenarioSpec.from_json_obj(obj)


@dataclass(frozen=True)
class AnalysisStep:
    """One analysis: a function applied to the experiment's values.

    ``analysis`` names a built-in (:data:`repro.lab.analyses.LAB_ANALYSES`
    key) or an importable ``"module:function"`` dotted reference.  ``name``
    is the artifact name (and the ``out/<name>.txt`` file for text
    payloads); it defaults to the last path component of ``analysis``.
    ``params`` is an arbitrary JSON object handed to the function — it
    participates in the artifact key, so changing a parameter invalidates
    exactly that artifact.
    """

    analysis: str
    name: Optional[str] = None
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.analysis:
            raise ConfigurationError("analysis reference must not be empty")
        if isinstance(self.params, dict):
            object.__setattr__(
                self, "params", tuple(sorted(self.params.items()))
            )
        _check_name(self.artifact_name, "analysis artifact")

    @property
    def artifact_name(self) -> str:
        if self.name:
            return self.name
        return self.analysis.split(":")[-1].split(".")[-1]

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def to_json_obj(self) -> Dict[str, Any]:
        obj: Dict[str, Any] = {"analysis": self.analysis}
        if self.name:
            obj["name"] = self.name
        if self.params:
            obj["params"] = self.params_dict()
        return obj

    @classmethod
    def from_json_obj(cls, obj: Dict[str, Any]) -> "AnalysisStep":
        return cls(
            analysis=obj.get("analysis", ""),
            name=obj.get("name"),
            params=obj.get("params", {}),
        )


@dataclass(frozen=True)
class ExperimentEntry:
    """One named experiment: specs to execute + analyses over their values.

    ``specs`` may be empty for analysis-only experiments (e.g. the
    Fig 2(a) stress harness, whose parameters are analysis params);
    ``analyses`` must not be empty — an experiment that records no
    artifact leaves nothing to cache, compare, or diff.
    """

    name: str
    specs: Tuple[ScenarioSpec, ...] = ()
    analyses: Tuple[AnalysisStep, ...] = ()
    tags: Tuple[str, ...] = ()
    title: str = ""

    def __post_init__(self) -> None:
        _check_name(self.name, "experiment")
        specs = tuple(
            _decode_spec(s) if isinstance(s, dict) else s for s in self.specs
        )
        for spec in specs:
            if not isinstance(spec, ScenarioSpec):
                raise ConfigurationError(
                    f"experiment {self.name!r}: {type(spec).__name__} is "
                    f"not a ScenarioSpec"
                )
        object.__setattr__(self, "specs", specs)
        analyses = tuple(
            AnalysisStep.from_json_obj(a) if isinstance(a, dict) else a
            for a in self.analyses
        )
        if not analyses:
            raise ConfigurationError(
                f"experiment {self.name!r} needs at least one analysis step"
            )
        names = [a.artifact_name for a in analyses]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"experiment {self.name!r}: duplicate artifact names {names}"
            )
        object.__setattr__(self, "analyses", analyses)
        object.__setattr__(self, "tags", tuple(str(t) for t in self.tags))

    def to_json_obj(self) -> Dict[str, Any]:
        obj: Dict[str, Any] = {
            "name": self.name,
            "specs": [s.to_json_obj() for s in self.specs],
            "analyses": [a.to_json_obj() for a in self.analyses],
        }
        if self.title:
            obj["title"] = self.title
        if self.tags:
            obj["tags"] = list(self.tags)
        return obj

    @classmethod
    def from_json_obj(cls, obj: Dict[str, Any]) -> "ExperimentEntry":
        return cls(
            name=obj.get("name", ""),
            specs=tuple(obj.get("specs", ())),
            analyses=tuple(obj.get("analyses", ())),
            tags=tuple(obj.get("tags", ())),
            title=obj.get("title", ""),
        )


@dataclass(frozen=True)
class ComparisonEntry:
    """A cross-experiment report: metrics of several experiments side by
    side (rendered by the built-in ``metric_compare`` analysis unless
    ``analysis`` names another one)."""

    name: str
    experiments: Tuple[str, ...] = ()
    analysis: str = "metric_compare"
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        _check_name(self.name, "comparison")
        object.__setattr__(
            self, "experiments", tuple(str(e) for e in self.experiments)
        )
        if len(self.experiments) < 2:
            raise ConfigurationError(
                f"comparison {self.name!r} needs at least two experiments"
            )
        if isinstance(self.params, dict):
            object.__setattr__(self, "params", tuple(sorted(self.params.items())))

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def to_json_obj(self) -> Dict[str, Any]:
        obj: Dict[str, Any] = {
            "name": self.name,
            "experiments": list(self.experiments),
        }
        if self.analysis != "metric_compare":
            obj["analysis"] = self.analysis
        if self.params:
            obj["params"] = self.params_dict()
        return obj

    @classmethod
    def from_json_obj(cls, obj: Dict[str, Any]) -> "ComparisonEntry":
        return cls(
            name=obj.get("name", ""),
            experiments=tuple(obj.get("experiments", ())),
            analysis=obj.get("analysis", "metric_compare"),
            params=obj.get("params", {}),
        )


@dataclass(frozen=True)
class SuiteManifest:
    """The whole suite: experiments + comparisons, JSON-round-tripping."""

    name: str
    experiments: Tuple[ExperimentEntry, ...] = ()
    comparisons: Tuple[ComparisonEntry, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        _check_name(self.name, "suite")
        experiments = tuple(
            ExperimentEntry.from_json_obj(e) if isinstance(e, dict) else e
            for e in self.experiments
        )
        if not experiments:
            raise ConfigurationError(f"suite {self.name!r} has no experiments")
        names = [e.name for e in experiments]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"suite {self.name!r}: duplicate experiment names {names}"
            )
        object.__setattr__(self, "experiments", experiments)
        comparisons = tuple(
            ComparisonEntry.from_json_obj(c) if isinstance(c, dict) else c
            for c in self.comparisons
        )
        known = set(names)
        comparison_names = [c.name for c in comparisons]
        if len(set(comparison_names)) != len(comparison_names):
            raise ConfigurationError(
                f"suite {self.name!r}: duplicate comparison names "
                f"{comparison_names}"
            )
        for comparison in comparisons:
            missing = [e for e in comparison.experiments if e not in known]
            if missing:
                raise ConfigurationError(
                    f"comparison {comparison.name!r} references unknown "
                    f"experiments {missing}"
                )
        object.__setattr__(self, "comparisons", comparisons)

    def experiment(self, name: str) -> ExperimentEntry:
        for entry in self.experiments:
            if entry.name == name:
                return entry
        raise ConfigurationError(f"no experiment named {name!r} in suite {self.name!r}")

    def select(
        self,
        keyword: Optional[str] = None,
        tags: Sequence[str] = (),
    ) -> "SuiteManifest":
        """A sub-suite: experiments matching the keyword substring and/or
        carrying any of ``tags``; comparisons whose inputs all survive."""
        chosen = []
        for entry in self.experiments:
            if keyword and keyword not in entry.name:
                continue
            if tags and not (set(tags) & set(entry.tags)):
                continue
            chosen.append(entry)
        if not chosen:
            raise ConfigurationError(
                f"selection (keyword={keyword!r}, tags={list(tags)!r}) "
                f"matches no experiment in suite {self.name!r}"
            )
        names = {e.name for e in chosen}
        comparisons = tuple(
            c for c in self.comparisons
            if all(e in names for e in c.experiments)
        )
        return SuiteManifest(
            name=self.name, experiments=tuple(chosen), comparisons=comparisons
        )

    # -- JSON ----------------------------------------------------------------

    def to_json_obj(self) -> Dict[str, Any]:
        obj: Dict[str, Any] = {
            "schema": SCHEMA,
            "name": self.name,
            "experiments": [e.to_json_obj() for e in self.experiments],
        }
        if self.comparisons:
            obj["comparisons"] = [c.to_json_obj() for c in self.comparisons]
        return obj

    def to_json(self) -> str:
        """Canonical JSON text (stable across runs — hash-friendly)."""
        return _canonical_json(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj: Dict[str, Any]) -> "SuiteManifest":
        schema = obj.get("schema")
        if schema not in _ACCEPTED_SCHEMAS:
            raise SchemaError(
                f"unsupported lab manifest schema {schema!r}; accepted: "
                f"{list(_ACCEPTED_SCHEMAS)}"
            )
        return cls(
            name=obj.get("name", ""),
            experiments=tuple(obj.get("experiments", ())),
            comparisons=tuple(obj.get("comparisons", ())),
        )

    @classmethod
    def from_json(cls, text: str) -> "SuiteManifest":
        try:
            obj = json.loads(text)
        except ValueError as err:
            raise SchemaError(f"malformed manifest JSON: {err}") from None
        if not isinstance(obj, dict):
            raise SchemaError("manifest JSON must be an object")
        return cls.from_json_obj(obj)

    @classmethod
    def load(cls, path: str) -> "SuiteManifest":
        """Read a manifest file (``repro lab run <path>``): a ``.py`` file
        is imported and its ``build_suite()`` called; anything else is read
        as JSON."""
        if path.endswith(".py"):
            return cls._build(path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise ConfigurationError(f"cannot read manifest {path!r}: {err}") from None
        return cls.from_json(text)

    @classmethod
    def _build(cls, path: str) -> "SuiteManifest":
        if not os.path.isfile(path):
            raise ConfigurationError(f"cannot read manifest {path!r}")
        module_spec = importlib.util.spec_from_file_location(
            "_repro_suite", os.path.abspath(path)
        )
        module = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(module)
        build = getattr(module, "build_suite", None)
        manifest = build() if callable(build) else None
        if not isinstance(manifest, cls):
            raise ConfigurationError(
                f"{path}: build_suite() must return a SuiteManifest"
            )
        return manifest


def manifest_roots(path: str) -> Tuple[str, str]:
    """Default (out_dir, store_dir) for a manifest file path.

    Outputs land beside the manifest (``<dir>/out``) and the store under
    them (``<dir>/out/.cache``) — for ``benchmarks/suite.py`` that is
    exactly the benchmark harnesses' historical layout.
    """
    base = os.path.dirname(os.path.abspath(path))
    out_dir = os.path.join(base, "out")
    return out_dir, os.path.join(out_dir, ".cache")
