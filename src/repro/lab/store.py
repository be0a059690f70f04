"""Content-addressed artifact store — the lab's durable memory.

A typed CAS for *every* derived output: point results (written by the
engine, :mod:`repro.runner.engine`), rendered tables, figure data,
comparison reports.  Each artifact lives in one JSON file
``objects/<key>.json`` under the store root, where

    key = sha256(canonical producer JSON + "\\0" input key ... + "\\0" + version)

(:func:`artifact_key`).  The ``producer`` is whatever plainly-JSON spec
produced the payload — a point's ScenarioSpec JSON, an analysis
descriptor, a comparison descriptor — so the key is the artifact's full
provenance.
Because ``repro.__version__`` participates, bumping the version
invalidates every entry without a cleanup pass; :meth:`ArtifactStore.gc`
sweeps the stranded files (including the legacy flat ``<key>.json``
layout the pre-lab point cache used).

Entries are self-describing::

    {"schema": "repro-lab-artifact/1", "version": "1.0.0",
     "key": "<sha256>", "type": "point" | "table" | "figure" | "report" | "blob",
     "producer": {...}, "payload": {...}}

Robustness contract (regression-tested): truncated or garbage JSON reads
as a miss; an entry whose stored ``key`` or ``version`` mismatches what
the lookup expects is rejected as a miss; concurrent writers of the same
key are safe because :meth:`put` writes to a temp file and atomically
``os.replace``\\ s it into place — last writer wins cleanly, readers never
observe a partial file.

Runs are recorded next to the objects: ``runs/<run_id>/index.json`` holds
one run's provenance index (spec keys, artifact keys, payload digests,
metrics) used by ``repro lab diff``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import tempfile
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: Entry schema tag; bump when the on-disk entry layout changes.
ARTIFACT_SCHEMA = "repro-lab-artifact/1"

#: Run-index schema tag (see :mod:`repro.lab.run`).
RUN_SCHEMA = "repro-lab-run/1"

#: Artifact types the store accepts.
ARTIFACT_TYPES = ("point", "table", "figure", "report", "blob")

_HEX_NAME = re.compile(r"^[0-9a-f]{64}\.json$")


def canonical_json(obj: Any) -> str:
    """Stable, compact JSON used for hashing and persistence."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def payload_digest(payload: Any) -> str:
    """sha256 of an artifact payload's canonical JSON (integrity record)."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def artifact_key(
    producer: Any,
    inputs: Sequence[str] = (),
    version: Optional[str] = None,
) -> str:
    """``sha256(producer JSON + "\\0" input ... + "\\0" + version)``.

    With no ``inputs`` this is the engine's point key
    (:func:`repro.runner.engine.store_key`), so point results and
    higher-level artifacts share one keyspace and one invalidation rule.
    """
    if version is None:
        from repro import __version__ as version

    digest = hashlib.sha256()
    digest.update(canonical_json(producer).encode("utf-8"))
    for inp in inputs:
        digest.update(b"\0")
        digest.update(str(inp).encode("utf-8"))
    digest.update(b"\0")
    digest.update(version.encode("utf-8"))
    return digest.hexdigest()


class ArtifactStore:
    """A directory of content-addressed ``objects/`` plus ``runs/`` indexes."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.objects_dir = os.path.join(root, "objects")
        self.runs_dir = os.path.join(root, "runs")
        self._made = False

    # -- objects -------------------------------------------------------------

    def path(self, key: str) -> str:
        """Where ``key``'s object file lives (whether or not it exists)."""
        return os.path.join(self.objects_dir, f"{key}.json")

    def _ensure_dirs(self) -> None:
        if not self._made:
            os.makedirs(self.objects_dir, exist_ok=True)
            self._made = True

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored entry for ``key``, or ``None`` on any kind of miss.

        Misses include: no file, truncated/garbage JSON, a non-dict body,
        an entry whose recorded ``key`` is not the key looked up, and an
        entry written by a different ``repro.__version__`` (both are
        tamper/corruption signatures — a healthy entry can only live under
        the key its own content hashes to).
        """
        from repro import __version__

        try:
            with open(self.path(key), "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or "payload" not in entry:
            return None
        if entry.get("key") != key or entry.get("version") != __version__:
            return None
        return entry

    def has(self, key: str) -> bool:
        """Whether a healthy entry exists for ``key``."""
        return self.get(key) is not None

    def put(
        self,
        key: str,
        payload: Any,
        *,
        producer: Any = None,
        type: str = "blob",
    ) -> Dict[str, Any]:
        """Atomically persist one artifact (write-to-temp + rename).

        Two processes racing on the same key both succeed; whichever
        ``os.replace`` lands last wins and the file is never partial.
        Returns the stored entry.
        """
        from repro import __version__
        from repro.errors import ConfigurationError

        if type not in ARTIFACT_TYPES:
            raise ConfigurationError(
                f"unknown artifact type {type!r}; pick from {ARTIFACT_TYPES}"
            )
        self._ensure_dirs()
        entry = {
            "schema": ARTIFACT_SCHEMA,
            "version": __version__,
            "key": key,
            "type": type,
            "producer": producer,
            "payload": payload,
        }
        fd, tmp = tempfile.mkstemp(dir=self.objects_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh)
            os.replace(tmp, self.path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return entry

    def put_artifact(
        self,
        producer: Any,
        payload: Any,
        *,
        inputs: Sequence[str] = (),
        type: str = "blob",
    ) -> str:
        """Key the artifact from its provenance, store it, return the key."""
        key = artifact_key(producer, inputs)
        self.put(key, payload, producer=producer, type=type)
        return key

    # -- runs ----------------------------------------------------------------

    def next_run_id(self) -> str:
        """A fresh monotonically-numbered run id (``run-0001``, ...)."""
        existing = self.list_runs()
        numbers = [0]
        for run_id in existing:
            match = re.match(r"^run-(\d+)$", run_id)
            if match:
                numbers.append(int(match.group(1)))
        return f"run-{max(numbers) + 1:04d}"

    def list_runs(self) -> List[str]:
        """Recorded run ids, oldest-numbered first."""
        try:
            names = sorted(os.listdir(self.runs_dir))
        except OSError:
            return []
        return [
            name for name in names
            if os.path.isfile(os.path.join(self.runs_dir, name, "index.json"))
        ]

    def run_index_path(self, run_id: str) -> str:
        return os.path.join(self.runs_dir, run_id, "index.json")

    def write_run_index(self, run_id: str, index: Dict[str, Any]) -> str:
        """Persist one run's provenance index; returns its path."""
        run_dir = os.path.join(self.runs_dir, run_id)
        os.makedirs(run_dir, exist_ok=True)
        path = self.run_index_path(run_id)
        fd, tmp = tempfile.mkstemp(dir=run_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(index, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def read_run_index(self, run_ref: str) -> Dict[str, Any]:
        """Load a run index by run id or by explicit file path."""
        from repro.errors import SchemaError

        path = run_ref
        if not os.path.exists(path):
            path = self.run_index_path(run_ref)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                index = json.load(fh)
        except OSError as err:
            raise SchemaError(f"no run index for {run_ref!r}: {err}") from None
        except ValueError as err:
            raise SchemaError(f"{path}: malformed run index: {err}") from None
        if index.get("schema") != RUN_SCHEMA:
            raise SchemaError(
                f"{path}: unsupported run-index schema "
                f"{index.get('schema')!r} (expected {RUN_SCHEMA!r})"
            )
        return index

    # -- maintenance ---------------------------------------------------------

    def _legacy_entries(self) -> Iterable[str]:
        """Flat ``<key>.json`` files in the root — the pre-lab cache layout.

        The pre-lab point cache wrote entries directly into the root;
        version bumps stranded them forever.  Only 64-hex-named ``.json``
        files directly under the root qualify, so a store rooted somewhere
        eventful never deletes a bystander.
        """
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return
        for name in names:
            path = os.path.join(self.root, name)
            if _HEX_NAME.match(name) and os.path.isfile(path):
                yield path

    def stats(self) -> Dict[str, Any]:
        """Object/run counts and byte totals for ``repro lab stats``."""
        from repro import __version__

        objects = corrupt = stale = 0
        size = 0
        try:
            names = sorted(os.listdir(self.objects_dir))
        except OSError:
            names = []
        for name in names:
            path = os.path.join(self.objects_dir, name)
            if not name.endswith(".json"):
                continue
            size += os.path.getsize(path)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    entry = json.load(fh)
            except (OSError, ValueError):
                corrupt += 1
                continue
            if not isinstance(entry, dict) or entry.get("version") != __version__:
                stale += 1
            else:
                objects += 1
        legacy = sum(1 for _ in self._legacy_entries())
        return {
            "root": self.root,
            "objects": objects,
            "corrupt": corrupt,
            "stale": stale,
            "legacy": legacy,
            "runs": len(self.list_runs()),
            "bytes": size,
        }

    def gc(self, keep_runs: Optional[int] = None, dry_run: bool = False) -> Dict[str, int]:
        """Sweep everything a lookup can never return.

        Removes: objects written by another ``repro.__version__`` (version
        participates in every key, so they are unreachable), corrupt or
        truncated objects, orphaned ``*.tmp`` files, and legacy flat-layout
        point entries in the store root.  With ``keep_runs=N`` the oldest
        run indexes beyond the newest N are pruned too.  ``dry_run`` only
        counts.  Returns removal counts by category.
        """
        from repro import __version__

        removed = {"stale": 0, "corrupt": 0, "tmp": 0, "legacy": 0, "runs": 0}

        def _unlink(path: str) -> None:
            if not dry_run:
                try:
                    os.unlink(path)
                except OSError:
                    pass

        for base in (self.root, self.objects_dir):
            try:
                names = sorted(os.listdir(base))
            except OSError:
                continue
            for name in names:
                if name.endswith(".tmp"):
                    _unlink(os.path.join(base, name))
                    removed["tmp"] += 1

        try:
            names = sorted(os.listdir(self.objects_dir))
        except OSError:
            names = []
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.objects_dir, name)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    entry = json.load(fh)
            except (OSError, ValueError):
                _unlink(path)
                removed["corrupt"] += 1
                continue
            if not isinstance(entry, dict):
                _unlink(path)
                removed["corrupt"] += 1
            elif (
                entry.get("version") != __version__
                or f"{entry.get('key')}.json" != name
            ):
                _unlink(path)
                removed["stale"] += 1

        for path in self._legacy_entries():
            _unlink(path)
            removed["legacy"] += 1

        if keep_runs is not None and keep_runs >= 0:
            runs = self.list_runs()
            for run_id in runs[: max(0, len(runs) - keep_runs)]:
                if not dry_run:
                    shutil.rmtree(
                        os.path.join(self.runs_dir, run_id), ignore_errors=True
                    )
                removed["runs"] += 1
        return removed
