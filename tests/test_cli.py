"""Tests for the command-line interface and result persistence."""

import json

import pytest

from repro.analysis.persistence import (
    SCHEMA_VERSION,
    load_curve,
    load_run,
    read_csv,
    run_to_dict,
    save_curve,
    save_run,
    write_csv,
)
from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.model import ground_truth_models
from repro.workload import WorkloadTrace

SCALE = 8.0


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["steady"])
        assert args.hardware == "1/1/1"
        assert args.users == 1500
        assert args.seed == 0

    def test_int_list_parsing(self):
        args = build_parser().parse_args(["knee", "--levels", "1,5,40"])
        assert args.levels == [1, 5, 40]

    def test_bad_int_list(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["knee", "--levels", "1,x"])

    def test_unknown_controller_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["autoscale", "--controller", "magic"])

    def test_engine_flags_on_every_command(self):
        for command in ("steady", "knee", "train", "predict", "autoscale",
                        "sweep", "trace"):
            args = build_parser().parse_args([command, "--jobs", "3", "--no-cache"])
            assert args.jobs == 3
            assert args.no_cache is True

    def test_engine_flag_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.jobs == 1
        assert args.no_cache is False
        assert args.warmup == 4.0
        assert args.duration == 12.0


class TestCommands:
    def test_steady(self, capsys):
        code = main([
            "steady", "--users", "80", "--demand-scale", "8",
            "--warmup", "2", "--duration", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "throughput (req/s)" in out
        assert "db concurrency" in out

    def test_knee_with_csv(self, capsys, tmp_path):
        path = str(tmp_path / "curve.csv")
        code = main([
            "knee", "--tier", "db", "--levels", "2,36,120",
            "--demand-scale", "8", "--duration", "4", "--csv", path,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "knee ~" in out
        curve = load_curve(path)
        assert [x for x, _ in curve] == [2.0, 36.0, 120.0]
        xput = {x: y for x, y in curve}
        assert xput[36.0] > xput[2.0]

    def test_predict(self, capsys):
        code = main([
            "predict", "--hardware", "1/2/1", "--soft", "1000/100/18",
            "--users", "100,5000",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "bottleneck" in out
        assert "yes" in out  # 5000 users saturate

    def test_sweep_from_flags(self, capsys):
        code = main([
            "sweep", "--users", "10,25", "--demand-scale", "8",
            "--warmup", "1", "--duration", "3", "--jobs", "2", "--no-cache",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "jmeter sweep" in out
        assert "engine telemetry" in out
        assert "cache: disabled" in out

    def test_steady_uses_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        argv = ["steady", "--users", "80", "--demand-scale", "8",
                "--warmup", "2", "--duration", "4"]
        def telemetry_row(out, label):
            line = next(l for l in out.splitlines() if label in l)
            return float(line.split("|")[1])

        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert telemetry_row(cold, "cache misses") == 1
        assert telemetry_row(warm, "cache hits") == 1
        # The rendered steady-state table is identical cold vs warm.
        cold_table = cold.split("engine telemetry")[0]
        warm_table = warm.split("engine telemetry")[0]
        assert cold_table == warm_table

    def test_trace_export(self, capsys, tmp_path):
        path = str(tmp_path / "trace.csv")
        code = main(["trace", "--name", "spike", "--csv", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "duration 300s" in out
        from repro.workload import WorkloadTrace as WT
        back = WT.from_csv(path)
        assert back.duration == 300.0


class TestPersistence:
    def _run(self):
        from repro.scenario import Deployment, ScenarioSpec

        trace = WorkloadTrace((0.0, 15.0, 25.0, 60.0, 90.0), (0.3, 0.3, 0.9, 0.9, 0.4))
        spec = ScenarioSpec(
            controller="dcm", workload="trace", trace=trace, max_users=520,
            seed=4, demand_scale=SCALE, models=ground_truth_models(SCALE),
        )
        with Deployment(spec) as dep:
            dep.run()
        return dep

    def test_csv_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ["a", "b"], [[1, 2], [3, 4]])
        headers, rows = read_csv(path)
        assert headers == ["a", "b"]
        assert rows == [["1", "2"], ["3", "4"]]

    def test_csv_width_mismatch(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_csv(str(tmp_path / "t.csv"), ["a"], [[1, 2]])

    def test_read_empty_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ConfigurationError):
            read_csv(str(path))

    def test_curve_roundtrip(self, tmp_path):
        path = str(tmp_path / "c.csv")
        save_curve(path, "x", [(1, 10.0), (2, 20.0)])
        assert load_curve(path) == [(1.0, 10.0), (2.0, 20.0)]

    def test_malformed_curve(self, tmp_path):
        path = str(tmp_path / "c.csv")
        write_csv(path, ["x", "y"], [["a", "b"]])
        with pytest.raises(ConfigurationError):
            load_curve(path)

    def test_run_roundtrip(self, tmp_path):
        run = self._run()
        path = str(tmp_path / "run.json")
        save_run(run, path)
        data = load_run(path)
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["controller"] == "dcm"
        assert data["report"]["completed"] > 0
        assert len(data["series"]["throughput"]) == pytest.approx(
            run.duration / data["series"]["bin_width"], abs=1
        )
        assert data["vm_timelines"]["db"][0] == [0.0, 1]
        assert data["reallocations"], "DCM runs must record re-allocations"

    def test_run_dict_fields(self):
        data = run_to_dict(self._run(), bin_width=10.0)
        assert {"report", "series", "vm_timelines", "events"} <= set(data)

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(ConfigurationError):
            load_run(str(path))


class TestAuditCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["audit"])
        assert args.action == "run"
        assert args.budget == 50
        assert args.seed == 0

    def test_run_small_budget_passes(self, capsys):
        # Seeded fuzz over cheap properties only would be ideal, but even a
        # mixed budget of 3 keeps this test quick.
        code = main(["audit", "--budget", "3", "--seed", "0", "--no-cache"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all 3 scenarios passed" in out

    def test_replay_corpus(self, capsys):
        code = main(["audit", "replay", "tests/audit_corpus"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rr-off-by-one.json" in out

    def test_replay_single_spec(self, capsys, tmp_path):
        from repro.audit import Scenario

        spec = tmp_path / "spec.json"
        Scenario(
            "rr_fairness", {"backends": 2, "picks": 4, "churn_events": []}, 0
        ).save(spec)
        assert main(["audit", "replay", str(spec)]) == 0

    def test_replay_unknown_property_raises(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text('{"property": "nope", "params": {}, "seed": 0}')
        with pytest.raises(ConfigurationError):
            main(["audit", "replay", str(spec)])

    def test_replay_missing_spec_exits(self):
        with pytest.raises(SystemExit):
            main(["audit", "replay", "/nonexistent/spec.json"])
        with pytest.raises(SystemExit):
            main(["audit", "replay"])
