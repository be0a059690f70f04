"""Cross-run comparison: metric deltas between two lab run indexes.

``repro lab diff <runA> <runB>`` loads two run indexes (run ids in the
store, or paths to index files — e.g. a committed baseline) and compares
them artifact by artifact.  An artifact matches by ``(experiment,
artifact name)``; its recorded payload digest decides equality, and the
recorded ``metrics`` give the per-metric deltas when it changed.

Classification:

``changed`` / ``added`` / ``removed`` / ``status``
    Real deltas — a payload digest moved, an artifact (dis)appeared, or
    an experiment's status differs (e.g. failed on one side).  These
    make the diff non-empty.
``integrity``
    The two runs agree on an artifact (same key, same digest) but the
    store's object is missing or its payload no longer hashes to the
    recorded digest — i.e. the stored artifact was tampered with or
    corrupted after the runs.  A real delta.
``rekeyed``
    An informational note, never a delta: a digest-identical artifact
    under a different key just crossed a version bump.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.lab.store import ArtifactStore, payload_digest


@dataclass
class Delta:
    """One observed difference between two runs."""

    experiment: str
    artifact: str
    kind: str  # "changed" | "added" | "removed" | "status" | "integrity"
    detail: str
    metric_deltas: Dict[str, Tuple[Optional[float], Optional[float]]] = field(
        default_factory=dict
    )


@dataclass
class DiffReport:
    """What :func:`diff_runs` returns."""

    run_a: str
    run_b: str
    deltas: List[Delta] = field(default_factory=list)
    notes: List[Delta] = field(default_factory=list)
    artifacts_compared: int = 0

    @property
    def empty(self) -> bool:
        return not self.deltas

    def render(self) -> str:
        lines = [f"lab diff: {self.run_a} -> {self.run_b}"]
        if self.empty:
            lines.append(
                f"  no deltas ({self.artifacts_compared} artifacts identical)"
            )
        for delta in self.deltas:
            lines.append(
                f"  [{delta.kind}] {delta.experiment}/{delta.artifact}: "
                f"{delta.detail}"
            )
            for metric, (a, b) in sorted(delta.metric_deltas.items()):
                a_text = "-" if a is None else f"{a:.6g}"
                b_text = "-" if b is None else f"{b:.6g}"
                lines.append(f"      {metric}: {a_text} -> {b_text}")
        for note in self.notes:
            lines.append(
                f"  (note) [{note.kind}] {note.experiment}/{note.artifact}: "
                f"{note.detail}"
            )
        return "\n".join(lines)


def _metric_deltas(
    rec_a: Dict[str, Any], rec_b: Dict[str, Any]
) -> Dict[str, Tuple[Optional[float], Optional[float]]]:
    metrics_a = rec_a.get("metrics") or {}
    metrics_b = rec_b.get("metrics") or {}
    out: Dict[str, Tuple[Optional[float], Optional[float]]] = {}
    for name in sorted(set(metrics_a) | set(metrics_b)):
        a, b = metrics_a.get(name), metrics_b.get(name)
        if a != b:
            out[name] = (a, b)
    return out


def _artifact_records(index: Dict[str, Any]) -> Dict[Tuple[str, str], Dict[str, Any]]:
    out: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for experiment, record in index.get("experiments", {}).items():
        for name, artifact in (record.get("artifacts") or {}).items():
            out[(experiment, name)] = artifact
    for name, artifact in (index.get("comparisons") or {}).items():
        if "key" in artifact:
            out[("comparisons", name)] = artifact
    return out


def _verify_object(store: Optional[ArtifactStore], record: Dict[str, Any]) -> Optional[str]:
    """None when the stored object matches the recorded digest; else why not."""
    if store is None:
        return None
    entry = store.get(record["key"])
    if entry is None:
        return "stored object is missing or unreadable"
    if payload_digest(entry["payload"]) != record["sha256"]:
        return "stored payload does not hash to the recorded digest"
    return None


def diff_runs(
    store: Optional[ArtifactStore],
    index_a: Dict[str, Any],
    index_b: Dict[str, Any],
) -> DiffReport:
    """Compare two run indexes; see the module docstring for semantics."""
    report = DiffReport(
        run_a=index_a.get("run_id", "?"), run_b=index_b.get("run_id", "?")
    )

    experiments = sorted(
        set(index_a.get("experiments", {})) | set(index_b.get("experiments", {}))
    )
    for experiment in experiments:
        status_a = index_a.get("experiments", {}).get(experiment, {}).get("status")
        status_b = index_b.get("experiments", {}).get(experiment, {}).get("status")
        norm_a = "ok" if status_a == "cached" else status_a
        norm_b = "ok" if status_b == "cached" else status_b
        if norm_a != norm_b:
            report.deltas.append(Delta(
                experiment=experiment, artifact="-", kind="status",
                detail=f"status {status_a or 'absent'} -> {status_b or 'absent'}",
            ))

    records_a = _artifact_records(index_a)
    records_b = _artifact_records(index_b)
    for experiment, artifact in sorted(set(records_a) | set(records_b)):
        rec_a = records_a.get((experiment, artifact))
        rec_b = records_b.get((experiment, artifact))
        if rec_a is None:
            report.deltas.append(Delta(
                experiment=experiment, artifact=artifact, kind="added",
                detail="artifact only in the second run",
            ))
            continue
        if rec_b is None:
            report.deltas.append(Delta(
                experiment=experiment, artifact=artifact, kind="removed",
                detail="artifact only in the first run",
            ))
            continue
        report.artifacts_compared += 1
        if rec_a["sha256"] == rec_b["sha256"]:
            if rec_a["key"] != rec_b["key"]:
                report.notes.append(Delta(
                    experiment=experiment, artifact=artifact, kind="rekeyed",
                    detail="identical payload under a new key (version bump)",
                ))
                continue
            problem = _verify_object(store, rec_b)
            if problem is not None:
                report.deltas.append(Delta(
                    experiment=experiment, artifact=artifact,
                    kind="integrity", detail=problem,
                ))
            continue
        report.deltas.append(Delta(
            experiment=experiment, artifact=artifact, kind="changed",
            detail="payload digest differs",
            metric_deltas=_metric_deltas(rec_a, rec_b),
        ))
    return report
