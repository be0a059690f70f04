"""The perf gate's comparison (``benchmarks/perf_gate.py``) on fake result
lines: the benchmark itself never runs here."""

import json

import pytest

from benchmarks import perf_gate


def result_line(rate, correct=True):
    """The last stdout line of one benchmark run."""
    return json.dumps({
        "correct": correct, "attempted": 100, "failed": 0,
        "metrics": {"req_per_host_s": {"value": rate, "unit": "req/s"},
                    "setup_s": {"value": 0.5, "unit": "s"}},
    })


def fake_runner(rates, code=0, correct=True):
    """A runner answering each workload with its rate in ``rates``."""
    calls = []

    def run(benchmark, workload, seed):
        calls.append((workload, seed))
        stdout = f"{workload} seed {seed}: progress\n"
        return code, stdout + result_line(rates[workload], correct) + "\n"

    run.calls = calls
    return run


@pytest.fixture
def record_path(tmp_path):
    path = tmp_path / "perf_record.json"
    path.write_text(json.dumps({
        "fig5-dcm": {"seed": 7, "req_per_host_s": 1000.0},
        "lv-100k": {"seed": 3, "req_per_host_s": 2000.0},
    }))
    return path


def gate(record_path, run, benchmark_path=perf_gate.BENCHMARK):
    return perf_gate.main(benchmark_path=benchmark_path,
                          record_path=record_path, run=run)


class TestVerdict:
    def test_passes_within_the_bound(self, record_path, capsys):
        run = fake_runner({"fig5-dcm": 851.0, "lv-100k": 1701.0})
        assert gate(record_path, run) == 0
        assert run.calls == [("fig5-dcm", 7), ("lv-100k", 3)]
        rows = capsys.readouterr().out.splitlines()[1:3]
        assert all(row.endswith("ok") for row in rows)

    def test_fails_just_below_the_bound(self, record_path, capsys):
        run = fake_runner({"fig5-dcm": 849.9, "lv-100k": 2500.0})
        assert gate(record_path, run) == 1
        out = capsys.readouterr().out
        assert "FAIL (below floor)" in out
        assert "850.0" in out

    def test_fails_on_a_failed_check(self, record_path, capsys):
        run = fake_runner({"fig5-dcm": 5000.0, "lv-100k": 5000.0},
                          correct=False)
        assert gate(record_path, run) == 1
        assert "FAIL (a check failed)" in capsys.readouterr().out

    def test_fails_on_a_nonzero_exit(self, record_path, capsys):
        run = fake_runner({"fig5-dcm": 5000.0, "lv-100k": 5000.0}, code=1)
        assert gate(record_path, run) == 1
        out = capsys.readouterr().out
        assert "FAIL (exit 1)" in out
        # A failed run leaves no fresh value to re-record.
        fresh = json.loads(out.splitlines()[-1])
        assert fresh["fig5-dcm"]["req_per_host_s"] is None


class TestInputs:
    def test_bound_is_read_from_benchmark_json(self, record_path, tmp_path,
                                               capsys):
        run = fake_runner({"fig5-dcm": 750.0, "lv-100k": 1500.0})
        assert gate(record_path, run) == 1
        benchmark = perf_gate.load_json(perf_gate.BENCHMARK)
        for entry in benchmark["end_to_end"]:
            if entry["name"] == "req_per_host_s":
                entry["bound"] = 0.30
        patched = tmp_path / "BENCHMARK.json"
        patched.write_text(json.dumps(benchmark))
        capsys.readouterr()
        assert gate(record_path, run, benchmark_path=patched) == 0
        out = capsys.readouterr().out
        assert "bound 30%" in out
        assert "700.0" in out and "1400.0" in out

    def test_unknown_workload_is_refused(self, tmp_path):
        path = tmp_path / "perf_record.json"
        path.write_text(json.dumps(
            {"no-such-workload": {"seed": 1, "req_per_host_s": 10.0}}))
        run = fake_runner({})
        with pytest.raises(ValueError, match="no-such-workload"):
            gate(path, run)
        assert run.calls == []

    def test_last_line_is_a_record_the_gate_accepts(self, record_path,
                                                    tmp_path, capsys):
        rates = {"fig5-dcm": 1234.56, "lv-100k": 2345.67}
        assert gate(record_path, fake_runner(rates)) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        rerecorded = tmp_path / "rerecorded.json"
        rerecorded.write_text(last + "\n")
        assert json.loads(last) == {
            "fig5-dcm": {"seed": 7, "req_per_host_s": 1234.6},
            "lv-100k": {"seed": 3, "req_per_host_s": 2345.7},
        }
        assert gate(rerecorded, fake_runner(rates)) == 0
        assert capsys.readouterr().out.splitlines()[-1] == last

    def test_committed_record_is_accepted(self):
        benchmark = perf_gate.load_json(perf_gate.BENCHMARK)
        record = perf_gate.load_json(perf_gate.RECORD)
        perf_gate.check_record(record, benchmark)
        assert set(record) == {"fig5-dcm", "lv-100k", "stateful-zipf"}
