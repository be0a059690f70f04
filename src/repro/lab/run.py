"""Executing a suite manifest: specs → engine/deployments → artifacts.

:func:`run_suite` is the lab's engine.  For each experiment it first
derives every analysis artifact's content-addressed key — the producer
spec hashes the experiment name, the analysis reference and params, and
the JSON of every spec in the entry, so the key *is* the experiment's
provenance.  If the store already holds every artifact (and the caller
did not ask to ``reanalyze``), the experiment is answered entirely from
the store: no simulation, no analysis, byte-identical ``out/`` files
restored from the recorded payloads.  That is what makes a repeated
``repro lab run`` of an unchanged manifest a 100% store hit.

Fresh executions run an experiment's specs as one
:func:`repro.runner.run_many` batch on the suite's own store (one shared
store pass + worker pool over the steady-state points, then the full runs
in-process); a suite run without a store leaves no point results
anywhere.  Analyses see the values via
:class:`~repro.lab.analyses.AnalysisContext`; their returned payloads are
stored as typed artifacts and their ``text`` is written to
``out/<name>.txt`` with the historical ``emit`` byte contract
(``text + "\\n"``).

Every run writes a provenance index (``runs/<run_id>/index.json``,
schema ``repro-lab-run/1``) recording spec keys, artifact keys, payload
digests and metrics — the input to :func:`repro.lab.diff.diff_runs` —
plus each experiment's host seconds, which the differ ignores.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.lab.analyses import AnalysisContext, CompareContext, resolve_analysis
from repro.lab.manifest import ExperimentEntry, SuiteManifest
from repro.lab.store import ArtifactStore, RUN_SCHEMA, artifact_key, payload_digest

#: Payload keys recognised from analysis functions.
_PAYLOAD_KEYS = ("text", "metrics", "data")


@dataclass
class ExperimentResult:
    """One experiment's outcome within a suite run."""

    name: str
    status: str = "ok"  # "ok" | "cached" | "failed"
    error: Optional[str] = None
    artifacts: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    points_hits: int = 0
    points_misses: int = 0
    analyses_hits: int = 0
    analyses_misses: int = 0
    #: Host seconds from the experiment's start to its end, analyses included.
    wall_seconds: float = 0.0


@dataclass
class SuiteRun:
    """What :func:`run_suite` returns."""

    run_id: str
    suite: str
    index: Dict[str, Any]
    results: Dict[str, ExperimentResult]
    store: Optional[ArtifactStore]
    out_dir: str
    index_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        return all(r.status != "failed" for r in self.results.values())

    @property
    def fully_cached(self) -> bool:
        """Whether every experiment was answered from the store."""
        return bool(self.results) and all(
            r.status == "cached" for r in self.results.values()
        )

    def totals(self) -> Dict[str, int]:
        return {
            "points_hits": sum(r.points_hits for r in self.results.values()),
            "points_misses": sum(r.points_misses for r in self.results.values()),
            "analyses_hits": sum(r.analyses_hits for r in self.results.values()),
            "analyses_misses": sum(r.analyses_misses for r in self.results.values()),
        }


def _emit_text(out_dir: str, name: str, text: str, quiet: bool) -> None:
    """The historical benchmark ``emit``: persist + banner-print."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    if not quiet:
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{text}\n")


def _normalize_payload(raw: Any, step_name: str) -> Tuple[Dict[str, Any], str]:
    """Validate an analysis return; -> (payload, artifact type)."""
    if not isinstance(raw, dict):
        raise ConfigurationError(
            f"analysis {step_name!r} must return a dict payload, "
            f"got {type(raw).__name__}"
        )
    payload = {k: raw[k] for k in _PAYLOAD_KEYS if raw.get(k) is not None}
    if "metrics" not in payload:
        payload["metrics"] = {}
    return payload, raw.get("type", "table")


def _describe(err: Exception) -> str:
    """``Type: message (dir/file.py:line)``, naming the frame that raised:
    a bare ``assert`` in an analysis has no message of its own."""
    frame = traceback.extract_tb(err.__traceback__)[-1]
    where = os.sep.join(frame.filename.split(os.sep)[-2:])
    return f"{type(err).__name__}: {err} ({where}:{frame.lineno})"


def _analysis_producer(
    suite: str, entry: ExperimentEntry, step
) -> Dict[str, Any]:
    return {
        "kind": "lab-analysis",
        "suite": suite,
        "experiment": entry.name,
        "analysis": step.analysis,
        "name": step.artifact_name,
        "params": step.params_dict(),
        "specs": [s.to_json_obj() for s in entry.specs],
    }


def _record(key: str, payload: Dict[str, Any], type: str) -> Dict[str, Any]:
    return {
        "key": key,
        "type": type,
        "sha256": payload_digest(payload),
        "metrics": dict(payload.get("metrics", {})),
    }


def _run_experiment(
    suite: str,
    entry: ExperimentEntry,
    *,
    store: Optional[ArtifactStore],
    out_dir: str,
    jobs: int,
    reanalyze: bool,
    quiet: bool,
) -> ExperimentResult:
    """One experiment: answered from the store, or its specs run and its
    analyses applied."""
    from repro.runner import run_many

    result = ExperimentResult(name=entry.name)
    steps = [
        (step, _analysis_producer(suite, entry, step))
        for step in entry.analyses
    ]
    keys = {step.artifact_name: artifact_key(producer)
            for step, producer in steps}

    if store is not None and not reanalyze:
        cached_entries = {
            name: store.get(key) for name, key in keys.items()
        }
        if all(e is not None for e in cached_entries.values()):
            for (step, _producer) in steps:
                name = step.artifact_name
                entry_obj = cached_entries[name]
                payload = entry_obj["payload"]
                result.artifacts[name] = _record(
                    keys[name], payload, entry_obj.get("type", "table"),
                )
                result.analyses_hits += 1
                text = payload.get("text")
                if isinstance(text, str):
                    _emit_text(out_dir, name, text, quiet)
            result.status = "cached"
            return result

    try:
        engine_result = run_many(entry.specs, jobs=jobs, store=store)
        telemetry = engine_result.telemetry
        result.points_hits += telemetry.cache_hits
        result.points_misses += telemetry.cache_misses
        if entry.specs and not quiet:
            print(f"\n{telemetry.render()}\n")
        ctx_base = dict(
            suite=suite,
            experiment=entry.name,
            specs=entry.specs,
            values=engine_result.value,
            store=store,
            jobs=jobs,
        )
        for step, producer in steps:
            ctx = AnalysisContext(params=step.params_dict(), **ctx_base)
            payload, art_type = _normalize_payload(
                resolve_analysis(step.analysis)(ctx), step.analysis
            )
            key = keys[step.artifact_name]
            if store is not None:
                store.put(key, payload, producer=producer, type=art_type)
            result.analyses_misses += 1
            result.artifacts[step.artifact_name] = _record(
                key, payload, art_type
            )
            text = payload.get("text")
            if isinstance(text, str):
                _emit_text(out_dir, step.artifact_name, text, quiet)
    # Any error, a sanitizer finding included, becomes the experiment's
    # recorded error; `repro lab run` exits 1 when an experiment failed.
    except Exception as err:  # repro: noqa[DCM010] -- recorded, not swallowed
        result.status = "failed"
        result.error = _describe(err)
    return result


def run_suite(
    manifest: SuiteManifest,
    *,
    out_dir: str,
    store_dir: Optional[str] = None,
    jobs: int = 1,
    reanalyze: bool = False,
    quiet: bool = False,
    keyword: Optional[str] = None,
    tags: Sequence[str] = (),
    run_id: Optional[str] = None,
) -> SuiteRun:
    """Execute (a selection of) a suite; see the module docstring.

    ``reanalyze`` forces analyses (and therefore spec execution) to re-run
    even when every artifact is stored, so the paper-shape assertions are
    really exercised; point results still come from the store.  A failing
    experiment (assertion errors included) is recorded as ``failed`` with
    its ``error``, never raised.  With no ``store_dir`` nothing is read
    from or written to any store.
    """
    if keyword or tags:
        manifest = manifest.select(keyword=keyword, tags=tags)
    store = ArtifactStore(store_dir) if store_dir else None
    results: Dict[str, ExperimentResult] = {}

    for entry in manifest.experiments:
        start = time.perf_counter()  # repro: noqa[DCM001] -- wall-clock telemetry, never reaches results
        result = _run_experiment(
            manifest.name, entry, store=store, out_dir=out_dir, jobs=jobs,
            reanalyze=reanalyze, quiet=quiet,
        )
        result.wall_seconds = time.perf_counter() - start  # repro: noqa[DCM001] -- telemetry
        results[entry.name] = result

    # -- comparisons ---------------------------------------------------------
    comparison_records: Dict[str, Dict[str, Any]] = {}
    for comparison in manifest.comparisons:
        failed_inputs = [
            name for name in comparison.experiments
            if results[name].status == "failed"
        ]
        if failed_inputs:
            comparison_records[comparison.name] = {
                "status": "failed",
                "error": f"input experiments failed: {failed_inputs}",
            }
            continue
        inputs = {
            name: {a: rec["key"] for a, rec in results[name].artifacts.items()}
            for name in comparison.experiments
        }
        producer = {
            "kind": "lab-comparison",
            "suite": manifest.name,
            "name": comparison.name,
            "analysis": comparison.analysis,
            "params": comparison.params_dict(),
            "experiments": inputs,
        }
        input_keys = sorted(
            key for exp in inputs.values() for key in exp.values()
        )
        key = artifact_key(producer, inputs=input_keys)
        cached = store.get(key) if (store and not reanalyze) else None
        if cached is not None:
            payload = cached["payload"]
            record = _record(key, payload, cached.get("type", "report"))
            record["status"] = "cached"
        else:
            ctx = CompareContext(
                suite=manifest.name,
                name=comparison.name,
                experiments={
                    name: {
                        a: rec for a, rec in results[name].artifacts.items()
                    }
                    for name in comparison.experiments
                },
                params=comparison.params_dict(),
            )
            payload, art_type = _normalize_payload(
                resolve_analysis(comparison.analysis)(ctx), comparison.analysis
            )
            if store is not None:
                store.put(key, payload, producer=producer, type=art_type)
            record = _record(key, payload, art_type)
            record["status"] = "ok"
        text = payload.get("text")
        if isinstance(text, str):
            _emit_text(out_dir, comparison.name, text, quiet)
        comparison_records[comparison.name] = record

    # -- run index -----------------------------------------------------------
    from repro import __version__

    if run_id is None:
        run_id = store.next_run_id() if store else "run-0000"
    index: Dict[str, Any] = {
        "schema": RUN_SCHEMA,
        "run_id": run_id,
        "suite": manifest.name,
        "manifest_sha": payload_digest(manifest.to_json_obj()),
        "version": __version__,
        "selection": {"keyword": keyword, "tags": list(tags)},
        "experiments": {
            entry.name: {
                "status": results[entry.name].status,
                "error": results[entry.name].error,
                "spec_keys": [
                    artifact_key(spec.to_json_obj()) for spec in entry.specs
                ],
                "points": {
                    "hits": results[entry.name].points_hits,
                    "misses": results[entry.name].points_misses,
                },
                "analyses": {
                    "hits": results[entry.name].analyses_hits,
                    "misses": results[entry.name].analyses_misses,
                },
                "artifacts": results[entry.name].artifacts,
                "wall_seconds": round(results[entry.name].wall_seconds, 3),
            }
            for entry in manifest.experiments
        },
        "comparisons": comparison_records,
        "telemetry": {
            "wall_seconds": round(
                sum(r.wall_seconds for r in results.values()), 3
            ),
        },
    }
    index_path = None
    if store is not None:
        index_path = store.write_run_index(run_id, index)
    return SuiteRun(
        run_id=run_id,
        suite=manifest.name,
        index=index,
        results=results,
        store=store,
        out_dir=out_dir,
        index_path=index_path,
    )
