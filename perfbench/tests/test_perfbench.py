"""The benchmark's own tests: ``python3 -m pytest perfbench/tests``.

They check the metric table against ``BENCHMARK.json``, run every workload
for a short horizon through the simulation process and its correctness
checks, and make sure tampered outcomes are rejected.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import metrics  # noqa: E402
import outcome as oc  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Short horizons: one control period for the controller workloads.
SMOKE_S = {"fig5-dcm": 20.0, "lv-100k": 2.0, "stateful-zipf": 20.0}


def manifest() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- metric table --------------------------------------------------------------


@pytest.mark.parametrize("table", [metrics.END_TO_END, metrics.PER_LAYER])
def test_metric_names_and_units(table):
    for name, (unit, better) in table.items():
        assert NAME.match(name) and metrics.NAME_RE.match(name), name
        assert UNIT.match(unit), (name, unit)
        assert better in ("higher", "lower"), name


def test_manifest_matches_metric_table():
    bench = manifest()
    for key, table in (("end_to_end", metrics.END_TO_END),
                       ("per_layer", metrics.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
        assert listed == table
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0.0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_reference_covers_default_and_held_out_seeds():
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    for name, seeds in workloads.SEEDS.items():
        for seed in seeds:
            for i in range(run.SEEDS_PER_RUN):
                assert str(seed * 100 + i) in ref["workloads"][name]


# -- smoke: every workload through the simulation process ----------------------


@pytest.fixture(scope="module")
def smoke():
    """One short untraced simulation per workload, via the child process."""
    out = {}
    for name in workloads.WORKLOADS:
        spec = workloads.build_spec(name, 5, duration=SMOKE_S[name])
        out[name] = run.spawn(spec.to_json(), "timed")
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_passes_the_checks(smoke, name):
    child = smoke[name]
    assert child["problems"] == []
    assert child["outcome"]["sim"]["completed"] > 0
    assert child["setup_s"] > 0 and child["run_s"] > 0
    assert run.sim_problems(name, [child]) == []


def test_traced_run_matches_untraced(smoke, tmp_path):
    spec = workloads.build_spec("stateful-zipf", 5, duration=SMOKE_S["stateful-zipf"])
    traced = run.spawn(spec.to_json(), "traced", tmp_path / "spans.json")
    plain = smoke["stateful-zipf"]
    assert run.sim_problems("stateful-zipf", [plain, traced]) == []
    values = run.per_layer(plain, traced)
    assert set(values) == set(metrics.PER_LAYER)
    shares = [values[f"host.{layer}.self_pct"] for layer in metrics.LAYERS]
    assert sum(shares) == pytest.approx(100.0)
    assert values["cache.lookups"] > 0 and values["shard.routed"] > 0
    assert json.loads((tmp_path / "spans.json").read_text())


# -- tampered outcomes are rejected --------------------------------------------


def tampered(child: dict, edit) -> dict:
    out = copy.deepcopy(child["outcome"])
    edit(out)
    return out


@pytest.mark.parametrize("edit", [
    lambda o: o["sim"].__setitem__("completed", o["sim"]["completed"] + 1),
    lambda o: o["sim"].__setitem__("inflight", o["sim"]["inflight"] + 1),
    lambda o: o["rts"].__setitem__(0, o["rts"][0] + 1e-9),
    lambda o: o["rts"].pop(),
    lambda o: o["sim"].__setitem__("good", o["sim"]["good"] + 1),
    lambda o: o["servers"][0].__setitem__("arrivals", o["servers"][0]["arrivals"] + 1),
    lambda o: o["shards"][0].__setitem__("routed", o["shards"][0]["routed"] + 1),
    lambda o: o["cache"].__setitem__("lookups", o["cache"]["lookups"] + 10_000),
    lambda o: o["cache"]["nodes"][0].__setitem__("hits", o["cache"]["nodes"][0]["hits"] + 10_000),
], ids=["completed", "inflight", "rt", "rt-dropped", "good", "server",
        "shard", "lookups", "hits"])
def test_tampered_outcome_is_rejected(smoke, edit):
    child = smoke["stateful-zipf"]
    assert oc.check(child["outcome"]) == []
    assert oc.check(tampered(child, edit))


def test_disagreeing_repeat_is_rejected(smoke):
    child = smoke["fig5-dcm"]
    other = copy.deepcopy(child)
    other["outcome"]["sim"]["vm_seconds"] += 1.0
    assert run.sim_problems("fig5-dcm", [child, other])


def test_reference_drift_is_rejected():
    ref = {"rt_p99_ms": 100.0, "fail_pct": 0.0}
    tol = {"rt_p99_ms": 10.0}
    assert oc.compare_reference({"rt_p99_ms": 109.0, "fail_pct": 0.0}, ref, tol) == []
    assert oc.compare_reference({"rt_p99_ms": 111.0, "fail_pct": 0.0}, ref, tol)
    assert oc.compare_reference({"rt_p99_ms": 100.0, "fail_pct": 0.01}, ref, tol)


# -- layer attribution ------------------------------------------------------------


def test_layer_of_maps_modules():
    src = "/x/src/repro/"
    assert layers.layer_of(src + "sim/core.py") == "sim.core"
    assert layers.layer_of(src + "sim/processor.py") == "sim.processor"
    assert layers.layer_of(src + "ntier/tomcat.py") == "ntier.servers"
    assert layers.layer_of(src + "ntier/sharding.py") == "ntier.balancer"
    assert layers.layer_of(src + "model/online.py") == "control"
    assert layers.layer_of("/usr/lib/python3/json/decoder.py") == "other"
    assert set(layers._MODULE_LAYERS.values()) <= set(metrics.LAYERS)


def test_fold_profile_charges_builtins_to_callers():
    core = ("/s/repro/sim/core.py", 1, "run")
    tomcat = ("/s/repro/ntier/tomcat.py", 1, "_process")
    stats = {
        core: (1, 1, 2.0, 9.0, {}),
        tomcat: (1, 1, 1.0, 3.0, {}),
        ("~", 0, "<built-in method _heapq.heappop>"): (5, 5, 0.5, 0.5, {core: (5, 5, 0.5, 0.5)}),
        ("~", 0, "<method 'append' of 'list' objects>"): (
            4, 4, 0.4, 0.4, {core: (1, 1, 0.1, 0.1), tomcat: (3, 3, 0.3, 0.3)}),
    }
    folded = layers.fold_profile(stats)
    assert folded["heapq"] == pytest.approx(0.5)
    assert folded["sim.core"] == pytest.approx(2.1)
    assert folded["ntier.servers"] == pytest.approx(1.3)


def test_span_self_time_excludes_children():
    tracer = layers.SpanTracer()

    class Box:
        def outer(self):
            return self.inner()

        def inner(self):
            return 1

    box = Box()
    tracer.wrap(box, "outer", "outer")
    tracer.wrap(box, "inner", "inner")
    assert box.outer() == 1
    tracer.unwrap()
    assert "outer" not in vars(box)
    totals = tracer.totals()
    assert totals["outer"][0] == 1 and totals["inner"][0] == 1
    (_n, start, end, _p), (_n2, cstart, cend, parent) = tracer.spans
    assert parent == 0
    assert totals["outer"][1] == pytest.approx((end - start - (cend - cstart)) / 1e6)


# -- the benchmark refuses to run without the simulator's sources ----------------


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lv-100k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
