"""Unit tests for the ``repro.perf`` suite runner, report schema and gate.

The suite itself is shrunk to toy op counts via monkeypatching so these
stay fast; the real sizes only run under ``repro perf`` / CI.
"""

import pytest

from repro.errors import ConfigurationError
from repro.perf import kernel, suite

SCENARIOS = ("event-dispatch", "timeout-churn", "acquire-release",
             "condition-fanin", "fig5-autoscale")


@pytest.fixture
def tiny_suite(monkeypatch):
    """Shrink every scenario so a full run takes milliseconds."""
    monkeypatch.setattr(kernel, "DISPATCH_BATCH", 100)
    monkeypatch.setattr(kernel, "SIZES", {
        "event-dispatch": (200, 100),
        "timeout-churn": (200, 100),
        "acquire-release": (100, 50),
        "condition-fanin": (20, 10),
    })
    monkeypatch.setattr(suite, "REPS", (1, 1))
    monkeypatch.setattr(suite, "CALIBRATION_OPS", (10_000, 10_000))
    # End-to-end rows: (completed requests, seconds, kernel events).
    monkeypatch.setattr(kernel, "bench_fig5", lambda quick: (1_000, 0.01, 15_000))
    monkeypatch.setattr(kernel, "bench_fig5_100k", lambda: (2_000, 0.01, 44_000))
    monkeypatch.setattr(kernel, "bench_fig5_1m", lambda: (20_000, 0.1, 440_000))


def _report(normalized, throughput=1_000_000.0, scale_normalized=None):
    headline = {"event_throughput": throughput, "normalized": normalized}
    if scale_normalized is not None:
        headline["scale_normalized"] = scale_normalized
    return {"schema": suite.SCHEMA, "headline": headline}


class TestRunSuite:
    def test_report_schema(self, tiny_suite):
        report = suite.run_suite(quick=True)
        assert report["schema"] == suite.SCHEMA
        assert report["quick"] is True
        assert set(report["suites"]) == {"disarmed", "armed"}
        for label in ("disarmed", "armed"):
            rows = report["suites"][label]
            assert set(rows) == set(SCENARIOS)
            for row in rows.values():
                assert row["ops"] > 0
                assert row["ops_per_sec"] > 0
        assert report["headline"]["event_throughput"] > 0
        assert report["headline"]["normalized"] > 0
        assert report["headline"]["scale_normalized"] > 0
        assert set(report["scale"]) == {"fig5-100k"}  # quick: no fig5-1m

    def test_full_mode_includes_fig5_1m(self, tiny_suite):
        report = suite.run_suite(quick=False)
        assert set(report["scale"]) == {"fig5-100k", "fig5-1m"}
        assert report["scale"]["fig5-1m"]["ops"] == 20_000

    def test_end_to_end_rows_count_requests_and_report_events(self, tiny_suite):
        report = suite.run_suite(quick=True)
        fig5 = report["suites"]["disarmed"]["fig5-autoscale"]
        assert fig5["ops"] == 1_000 and fig5["events_per_req"] == 15.0
        scale = report["scale"]["fig5-100k"]
        assert scale["ops_per_sec"] == pytest.approx(2_000 / 0.01)
        assert scale["events_per_req"] == 22.0
        # The gated scale headline is a request rate, not an event rate.
        assert report["headline"]["scale_normalized"] == pytest.approx(
            scale["ops_per_sec"] / (report["calibration_mops"] * 1e6), rel=1e-3)
        # Micro rows count kernel operations and carry no per-request figure.
        assert "events_per_req" not in report["suites"]["disarmed"]["event-dispatch"]
        assert "events/req" in suite.render_report(report)

    def test_render_mentions_every_scenario(self, tiny_suite):
        text = suite.render_report(suite.run_suite(quick=True))
        for name in SCENARIOS:
            assert name in text

    def test_save_load_roundtrip(self, tiny_suite, tmp_path):
        report = suite.run_suite(quick=True)
        path = tmp_path / "bench.json"
        suite.save_report(report, str(path))
        assert suite.load_report(str(path)) == report

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "something-else/9"}')
        with pytest.raises(ConfigurationError):
            suite.load_report(str(path))

    def test_load_rejects_v2_with_a_rerecord_hint(self, tmp_path):
        # v2 end-to-end rows counted kernel events: not comparable.
        path = tmp_path / "old.json"
        path.write_text('{"schema": "repro-bench-kernel/2", "headline": {}}')
        with pytest.raises(ConfigurationError, match="re-record"):
            suite.load_report(str(path))


class TestCompareReports:
    def test_within_tolerance_passes(self):
        assert suite.compare_reports(_report(0.80), _report(1.0)) == []

    def test_equal_reports_pass(self):
        assert suite.compare_reports(_report(1.0), _report(1.0)) == []

    def test_improvement_passes(self):
        assert suite.compare_reports(_report(1.5), _report(1.0)) == []

    def test_regression_detected(self):
        problems = suite.compare_reports(_report(0.70), _report(1.0))
        assert len(problems) == 1
        assert "normalized event throughput regressed" in problems[0]

    def test_tolerance_is_respected(self):
        assert suite.compare_reports(_report(0.70), _report(1.0),
                                     tolerance=0.4) == []
        assert suite.compare_reports(_report(0.55), _report(1.0),
                                     tolerance=0.4)

    def test_scale_regression_detected(self):
        problems = suite.compare_reports(
            _report(1.0, scale_normalized=0.5),
            _report(1.0, scale_normalized=1.0),
        )
        assert len(problems) == 1
        assert "fig5-100k" in problems[0]

    def test_scale_gate_skipped_without_baseline_scale(self):
        # A v2 current report vs a scale-less baseline: only the event
        # throughput is gated.
        assert suite.compare_reports(
            _report(1.0, scale_normalized=0.5), _report(1.0)
        ) == []
