"""Tests for the experiment lab: store, manifest, runs, diff, GC.

The end-to-end case is the tentpole acceptance criterion: running the
committed quick manifest twice must make the second run a 100% store hit
with an empty ``repro lab diff``, and tampering with a stored object must
flip the diff to an integrity delta.
"""

import json
import os
import time

import pytest

from repro.errors import ConfigurationError, SchemaError
from repro.lab import (
    AnalysisStep,
    ArtifactStore,
    ComparisonEntry,
    ExperimentEntry,
    SuiteManifest,
    artifact_key,
    diff_runs,
    manifest_roots,
    payload_digest,
    run_suite,
)
from repro.lab.manifest import RETIRED_KINDS
from repro.scenario import ScenarioSpec

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUITE_PATH = os.path.join(REPO_ROOT, "benchmarks", "suite.py")

SCALE = 8.0


def tiny_spec(seed=3):
    return ScenarioSpec(
        users=40, workload="rubbos", seed=seed, demand_scale=SCALE,
        monitoring=False, warmup=1.0, duration=3.0,
    )


def run_ok(manifest, **kwargs):
    """:func:`run_suite`, quietly; fails the test with the recorded error
    of every failed experiment."""
    suite_run = run_suite(manifest, quiet=True, **kwargs)
    assert suite_run.ok, {
        name: r.error for name, r in suite_run.results.items() if r.error
    }
    return suite_run


def tiny_manifest(name="unit-suite"):
    return SuiteManifest(
        name=name,
        experiments=(
            ExperimentEntry(
                name="a", specs=(tiny_spec(seed=3),),
                analyses=(AnalysisStep("steady_table", name="a_table"),),
                tags=("quick",),
            ),
            ExperimentEntry(
                name="b", specs=(tiny_spec(seed=4),),
                analyses=(AnalysisStep("steady_table", name="b_table"),),
                tags=("quick", "extra"),
            ),
        ),
        comparisons=(
            ComparisonEntry(name="a_vs_b", experiments=("a", "b")),
        ),
    )


class TestStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = artifact_key({"kind": "unit", "x": 1})
        payload = {"text": "hello", "metrics": {"m": 1.5}}
        store.put(key, payload, producer={"kind": "unit", "x": 1}, type="table")
        entry = store.get(key)
        assert entry["payload"] == payload
        assert entry["type"] == "table"
        assert "volatile" not in entry
        assert store.has(key)

    def test_missing_and_garbage_are_misses(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = artifact_key({"kind": "unit"})
        assert store.get(key) is None
        store.put(key, {"metrics": {}}, producer={"kind": "unit"}, type="blob")
        with open(store.path(key), "w") as fh:
            fh.write("{truncated")
        assert store.get(key) is None

    def test_version_mismatch_is_rejected(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = artifact_key({"kind": "unit"})
        store.put(key, {"metrics": {}}, producer={"kind": "unit"}, type="blob")
        with open(store.path(key)) as fh:
            entry = json.load(fh)
        entry["version"] = "0.0.0-stale"
        with open(store.path(key), "w") as fh:
            json.dump(entry, fh)
        assert store.get(key) is None

    def test_key_mismatch_is_rejected(self, tmp_path):
        # An object renamed (or hand-copied) to the wrong address is not
        # trusted: the entry's recorded key must match the lookup key.
        store = ArtifactStore(str(tmp_path))
        key = artifact_key({"kind": "unit"})
        other = artifact_key({"kind": "other"})
        store.put(key, {"metrics": {}}, producer={"kind": "unit"}, type="blob")
        os.replace(store.path(key), store.path(other))
        assert store.get(other) is None

    def test_atomic_replace_last_writer_wins(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = artifact_key({"kind": "unit"})
        store.put(key, {"text": "first", "metrics": {}},
                  producer={"kind": "unit"}, type="table")
        store.put(key, {"text": "second", "metrics": {}},
                  producer={"kind": "unit"}, type="table")
        assert store.get(key)["payload"]["text"] == "second"
        # No orphaned temp files after a clean replace.
        leftovers = [n for n in os.listdir(store.objects_dir)
                     if n.endswith(".tmp")]
        assert leftovers == []

    def test_unknown_artifact_type_rejected(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        with pytest.raises(ConfigurationError):
            store.put(artifact_key({"k": 1}), {"metrics": {}},
                      producer={"k": 1}, type="sculpture")

    def test_gc_sweeps_stale_corrupt_tmp_and_legacy(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        live = artifact_key({"kind": "live"})
        store.put(live, {"metrics": {}}, producer={"kind": "live"}, type="blob")
        # Stale version.
        stale = artifact_key({"kind": "stale"})
        store.put(stale, {"metrics": {}}, producer={"kind": "stale"}, type="blob")
        with open(store.path(stale)) as fh:
            entry = json.load(fh)
        entry["version"] = "0.0.0-stale"
        with open(store.path(stale), "w") as fh:
            json.dump(entry, fh)
        # Corrupt object + orphaned tmp.
        with open(os.path.join(store.objects_dir, "f" * 64 + ".json"), "w") as fh:
            fh.write("{nope")
        with open(os.path.join(store.objects_dir, "orphan.tmp"), "w") as fh:
            fh.write("partial")
        # Legacy flat-layout point entry in the store root.
        with open(os.path.join(store.root, "a" * 64 + ".json"), "w") as fh:
            json.dump({"version": "0.9", "payload": {}, "result": {}}, fh)

        preview = store.gc(dry_run=True)
        assert (preview["stale"], preview["corrupt"],
                preview["tmp"], preview["legacy"]) == (1, 1, 1, 1)
        removed = store.gc()
        assert removed == preview
        assert store.get(live) is not None
        assert store.stats()["objects"] == 1
        assert store.stats()["legacy"] == 0

    def test_gc_prunes_old_runs(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        for _ in range(4):
            run_id = store.next_run_id()
            store.write_run_index(run_id, {"schema": "repro-lab-run/1",
                                           "run_id": run_id})
        removed = store.gc(keep_runs=2)
        assert removed["runs"] == 2
        assert store.list_runs() == ["run-0003", "run-0004"]

    def test_read_run_index_schema_checked(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        with pytest.raises(SchemaError):
            store.read_run_index("run-9999")
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema": "something/9"}))
        with pytest.raises(SchemaError):
            store.read_run_index(str(path))


class TestManifest:
    def test_json_round_trip(self):
        manifest = tiny_manifest()
        back = SuiteManifest.from_json(manifest.to_json())
        assert back == manifest
        assert back.to_json() == manifest.to_json()

    def test_unknown_schema_rejected(self):
        obj = tiny_manifest().to_json_obj()
        obj["schema"] = "repro-lab/99"
        with pytest.raises(SchemaError):
            SuiteManifest.from_json_obj(obj)

    def test_select_by_keyword_and_tags(self):
        manifest = tiny_manifest()
        only_a = manifest.select(keyword="a")
        assert [e.name for e in only_a.experiments] == ["a"]
        # The comparison needs both experiments; a lone input drops it.
        assert only_a.comparisons == ()
        extra = manifest.select(tags=("extra",))
        assert [e.name for e in extra.experiments] == ["b"]
        both = manifest.select(tags=("quick",))
        assert len(both.experiments) == 2
        assert [c.name for c in both.comparisons] == ["a_vs_b"]
        with pytest.raises(ConfigurationError):
            manifest.select(keyword="nonexistent")

    def test_unknown_experiment_lookup(self):
        with pytest.raises(ConfigurationError):
            tiny_manifest().experiment("zzz")

    def test_duplicate_artifact_names_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentEntry(
                name="dup", specs=(tiny_spec(),),
                analyses=(AnalysisStep("steady_table"),
                          AnalysisStep("steady_table")),
            )

    def test_comparison_needs_two_experiments(self):
        with pytest.raises(ConfigurationError):
            ComparisonEntry(name="solo", experiments=("a",))

    @pytest.mark.parametrize("kind", RETIRED_KINDS)
    def test_retired_runner_kind_is_a_schema_error(self, kind):
        obj = tiny_manifest().to_json_obj()
        obj["experiments"][0]["specs"] = [{"kind": kind, "seed": 0}]
        with pytest.raises(SchemaError, match=f"{kind!r}.*ScenarioSpec"):
            SuiteManifest.from_json_obj(obj)

    def test_py_manifest_needs_build_suite(self, tmp_path):
        path = tmp_path / "suite.py"
        path.write_text("SUITE = None\n")
        with pytest.raises(ConfigurationError, match="build_suite"):
            SuiteManifest.load(str(path))

    def test_manifest_roots(self):
        out_dir, store_dir = manifest_roots("/x/benchmarks/suite.py")
        assert out_dir == os.path.join("/x/benchmarks", "out")
        assert store_dir == os.path.join("/x/benchmarks", "out", ".cache")


class TestCommittedSuite:
    def test_committed_suite_loads_and_round_trips(self):
        # benchmarks/suite.py is the suite's one source: loading it runs
        # build_suite(), and the manifest survives its own JSON encoding
        # (so artifact keys are the same from code or from a JSON dump).
        manifest = SuiteManifest.load(SUITE_PATH)
        assert len(manifest.experiments) == 15
        assert SuiteManifest.from_json(manifest.to_json()) == manifest
        assert manifest.experiment("fig2a").specs == ()


def points_run_by_analysis(ctx):
    """An analysis that runs its own point (as the Fig 2(a) harness does)
    and reports how long it took."""
    from repro.runner import run_many

    start = time.perf_counter()
    run_many([tiny_spec()], jobs=ctx.jobs, store=ctx.store)
    return {"metrics": {"analysis_seconds": time.perf_counter() - start}}


class TestRunAndDiff:
    def run_twice(self, tmp_path, manifest):
        kwargs = dict(
            out_dir=str(tmp_path / "out"),
            store_dir=str(tmp_path / "store"),
        )
        first = run_ok(manifest, **kwargs)
        second = run_ok(manifest, **kwargs)
        return first, second

    def test_second_run_is_fully_cached_and_diff_empty(self, tmp_path):
        manifest = tiny_manifest()
        first, second = self.run_twice(tmp_path, manifest)
        assert first.ok and not first.fully_cached
        assert second.ok and second.fully_cached
        totals = second.totals()
        assert totals["points_misses"] == 0
        assert totals["analyses_misses"] == 0
        report = diff_runs(second.store, first.index, second.index)
        assert report.empty
        assert report.artifacts_compared == 3  # 2 experiments + 1 comparison

    def test_rendered_text_restored_from_store(self, tmp_path):
        manifest = tiny_manifest()
        out = tmp_path / "out"
        first, _second = self.run_twice(tmp_path, manifest)
        path = out / "a_table.txt"
        golden = path.read_bytes()
        path.unlink()
        third = run_ok(
            manifest, out_dir=str(out), store_dir=str(tmp_path / "store"),
        )
        assert third.fully_cached
        assert path.read_bytes() == golden

    def test_tamper_flips_diff_to_integrity_delta(self, tmp_path):
        manifest = tiny_manifest()
        first, second = self.run_twice(tmp_path, manifest)
        store = second.store
        key = second.results["a"].artifacts["a_table"]["key"]
        with open(store.path(key)) as fh:
            entry = json.load(fh)
        entry["payload"]["text"] = "doctored"
        with open(store.path(key), "w") as fh:
            json.dump(entry, fh)
        report = diff_runs(store, first.index, second.index)
        assert not report.empty
        kinds = {(d.kind, d.experiment) for d in report.deltas}
        assert ("integrity", "a") in kinds

    def test_changed_spec_changes_keys_and_diff(self, tmp_path):
        base = tiny_manifest()
        first, _ = self.run_twice(tmp_path, base)
        bumped = SuiteManifest(
            name=base.name,
            experiments=(
                base.experiments[0],
                ExperimentEntry(
                    name="b", specs=(tiny_spec(seed=5),),
                    analyses=(AnalysisStep("steady_table", name="b_table"),),
                    tags=("quick", "extra"),
                ),
            ),
            comparisons=base.comparisons,
        )
        third = run_ok(
            bumped, out_dir=str(tmp_path / "out"),
            store_dir=str(tmp_path / "store"),
        )
        # "a" untouched -> cached; "b" reruns under its new key.
        assert third.results["a"].status == "cached"
        assert third.results["b"].status == "ok"
        report = diff_runs(third.store, first.index, third.index)
        assert any(d.kind == "changed" and d.experiment == "b"
                   for d in report.deltas)

    def test_storeless_run_writes_no_point_results(self, tmp_path, monkeypatch):
        # Without a store the suite must not fall back to the engine's
        # default location ($REPRO_CACHE_DIR / benchmarks/out/.cache).
        default = tmp_path / "default-store"
        default.mkdir()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(default))
        suite_run = run_ok(
            tiny_manifest(), out_dir=str(tmp_path / "out"), store_dir=None,
        )
        assert suite_run.store is None
        assert os.listdir(default) == []

    def test_wall_seconds_covers_the_analysis(self, tmp_path):
        manifest = SuiteManifest(
            name="self-run",
            experiments=(ExperimentEntry(
                name="own_points",
                analyses=(AnalysisStep(
                    "tests.test_lab:points_run_by_analysis", name="own"),),
            ),),
        )
        suite_run = run_ok(
            manifest, out_dir=str(tmp_path / "out"),
            store_dir=str(tmp_path / "store"),
        )
        result = suite_run.results["own_points"]
        analysis_seconds = result.artifacts["own"]["metrics"]["analysis_seconds"]
        # The engine ran no spec; the time is the analysis's own points.
        assert result.points_hits == result.points_misses == 0
        assert result.wall_seconds >= analysis_seconds > 0
        record = suite_run.index["experiments"]["own_points"]
        assert record["wall_seconds"] == round(result.wall_seconds, 3)
        assert suite_run.index["telemetry"]["wall_seconds"] == record["wall_seconds"]

    def test_failed_analysis_recorded_not_raised(self, tmp_path):
        manifest = SuiteManifest(
            name="failing",
            experiments=(ExperimentEntry(
                name="boom", specs=(tiny_spec(),),
                analyses=(AnalysisStep("scenario_report"),),  # no scenarios
            ),),
        )
        suite_run = run_suite(
            manifest, out_dir=str(tmp_path / "out"),
            store_dir=str(tmp_path / "store"), quiet=True,
        )
        assert not suite_run.ok
        assert suite_run.results["boom"].status == "failed"
        error = suite_run.results["boom"].error
        assert error.startswith(f"{ConfigurationError.__name__}: ")
        assert "scenario" in error
        # The raising frame is named: a bare assert has no message to show.
        assert f"({os.path.join('lab', 'analyses.py')}:" in error
        record = suite_run.index["experiments"]["boom"]
        assert record["status"] == "failed" and record["error"] == error


@pytest.mark.slow
class TestQuickManifestEndToEnd:
    def test_committed_quick_suite_round_trips(self, tmp_path):
        # The acceptance criterion, against the committed manifest: run the
        # quick tag twice into a fresh store; the second run must be a 100%
        # store hit and the diff empty; tampering must flip it.
        import sys

        for entry in (REPO_ROOT,):
            if entry not in sys.path:
                sys.path.insert(0, entry)
        manifest = SuiteManifest.load(SUITE_PATH)
        kwargs = dict(
            out_dir=str(tmp_path / "out"),
            store_dir=str(tmp_path / "store"),
            tags=("quick",),
        )
        first = run_ok(manifest, **kwargs)
        second = run_ok(manifest, **kwargs)
        assert second.fully_cached
        totals = second.totals()
        assert totals["points_misses"] == 0 and totals["analyses_misses"] == 0
        report = diff_runs(second.store, first.index, second.index)
        assert report.empty

        key = second.results["smoke_steady"].artifacts[
            "smoke_steady_table"]["key"]
        store = second.store
        with open(store.path(key)) as fh:
            entry = json.load(fh)
        entry["payload"]["metrics"]["throughput[0]"] = -1.0
        with open(store.path(key), "w") as fh:
            json.dump(entry, fh)
        tampered = diff_runs(store, first.index, second.index)
        assert any(d.kind == "integrity" for d in tampered.deltas)


class TestArtifactHelpers:
    def test_table_artifact_payload(self):
        from repro.analysis.tables import table_artifact

        payload = table_artifact(
            ["k", "v"], [["x", 1.0]], title="t", metrics={"m": 2.0}
        )
        assert payload["text"].startswith("t\n")
        assert payload["data"] == {"headers": ["k", "v"], "rows": [["x", 1.0]]}
        assert payload["metrics"] == {"m": 2.0}

    def test_payload_digest_is_canonical(self):
        assert payload_digest({"a": 1, "b": 2}) == payload_digest(
            {"b": 2, "a": 1}
        )

    def test_default_cache_dir_resolves_repo_root(self, tmp_path, monkeypatch):
        from repro.runner import default_cache_dir

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        # From a nested directory inside the repo, the cache still lands in
        # <repo>/benchmarks/out/.cache (not ./benchmarks/out/.cache).
        nested = os.path.join(REPO_ROOT, "src", "repro")
        monkeypatch.chdir(nested)
        assert default_cache_dir() == os.path.join(
            REPO_ROOT, "benchmarks", "out", ".cache"
        )
        # Outside any repo, fall back to the old cwd-relative behaviour.
        monkeypatch.chdir(tmp_path)
        assert default_cache_dir() == str(
            tmp_path / "benchmarks" / "out" / ".cache"
        )
