"""Tests for the interprocedural dataflow analyses (repro.check.flow).

Each analysis gets bad/good fixture pairs exercised through
:func:`repro.check.flow.analyze_sources` (the whole file set forms one
project, so call resolution and summaries work exactly as in the real
tree).  The acceptance test at the bottom pins ``repro lint --deep`` over
``src/repro`` to no findings: the repo's own tree must stay deep-clean.
"""

import os
import subprocess
import sys

import pytest

from repro.check import lint_paths
from repro.check.flow import (
    FLOW_RULES,
    FLOW_RULES_BY_CODE,
    analyze_paths,
    analyze_sources,
    to_sarif,
)

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
REPO_SRC = os.path.join(REPO_ROOT, "src", "repro")


def codes_by_line(diagnostics):
    return sorted((d.line, d.code) for d in diagnostics)


def analyze_one(source, code=None, path="fixture.py"):
    select = None if code is None else [code]
    return analyze_sources([(path, source)], select=select)


class TestRuleTable:
    def test_flow_rules_are_indexed(self):
        assert {r.code for r in FLOW_RULES} == {"DCM101", "DCM102", "DCM103"}
        assert FLOW_RULES_BY_CODE["DCM101"].name == "resource-leak"
        for rule in FLOW_RULES:
            assert rule.summary


class TestResourceLeaks:
    BAD_EXCEPTION_PATH = (
        "def broken(pool, step):\n"
        "    req = pool.acquire()\n"
        "    step()\n"
        "    pool.release(req)\n"
    )

    BAD_NORMAL_PATH = (
        "def forgets(pool, flag):\n"
        "    req = pool.checkout()\n"
        "    if flag:\n"
        "        pool.release(req)\n"
    )

    GOOD_TRY_FINALLY = (
        "def safe(pool, step):\n"
        "    req = pool.acquire()\n"
        "    try:\n"
        "        step()\n"
        "    finally:\n"
        "        pool.release(req)\n"
    )

    GOOD_WITH = (
        "def managed(pool, step):\n"
        "    with pool.acquire() as req:\n"
        "        step()\n"
    )

    GOOD_TRANSFER = (
        "def handoff(pool):\n"
        "    req = pool.acquire()\n"
        "    return req\n"
    )

    GOOD_CANCEL_IN_EXCEPT = (
        "def withdrawing(pool, step):\n"
        "    req = pool.acquire()\n"
        "    try:\n"
        "        step()\n"
        "    except Exception:\n"
        "        req.cancel()\n"
        "        raise\n"
        "    pool.release(req)\n"
    )

    def test_leak_on_exception_path_detected(self):
        diags = analyze_one(self.BAD_EXCEPTION_PATH, "DCM101")
        assert [d.code for d in diags] == ["DCM101"]
        assert diags[0].line == 2  # reported at the acquire site
        assert "exception path" in diags[0].message

    def test_leak_on_normal_path_detected(self):
        diags = analyze_one(self.BAD_NORMAL_PATH, "DCM101")
        assert [d.code for d in diags] == ["DCM101"]
        assert "checkout" in diags[0].message

    def test_try_finally_is_clean(self):
        assert analyze_one(self.GOOD_TRY_FINALLY, "DCM101") == []

    def test_with_statement_is_clean(self):
        assert analyze_one(self.GOOD_WITH, "DCM101") == []

    def test_returned_handle_is_transferred(self):
        assert analyze_one(self.GOOD_TRANSFER, "DCM101") == []

    def test_cancel_in_except_is_clean(self):
        assert analyze_one(self.GOOD_CANCEL_IN_EXCEPT, "DCM101") == []


YIELD_PROJECT = (
    "import time\n"                      # 1
    "\n"                                 # 2
    "class Event:\n"                     # 3
    "    pass\n"                         # 4
    "\n"                                 # 5
    "class Timeout(Event):\n"            # 6
    "    pass\n"                         # 7
    "\n"                                 # 8
    "def good_proc(env):\n"              # 9
    "    yield Timeout()\n"              # 10
    "\n"                                 # 11
    "def bad_proc(env):\n"               # 12
    "    yield 1.5\n"                    # 13
    "\n"                                 # 14
    "def bare_proc(env):\n"              # 15
    "    yield\n"                        # 16
    "\n"                                 # 17
    "def sub(env):\n"                    # 18
    "    yield Timeout()\n"              # 19
    "\n"                                 # 20
    "def missing_yield_from(env):\n"     # 21
    "    yield sub(env)\n"               # 22
    "\n"                                 # 23
    "def blocking_proc(env):\n"          # 24
    "    time.sleep(0.1)\n"              # 25
    "    yield Timeout()\n"              # 26
    "\n"                                 # 27
    "def chained(env):\n"                # 28
    "    yield from sub(env)\n"          # 29
    "    yield 'nope'\n"                 # 30
    "\n"                                 # 31
    "def main(env):\n"                   # 32
    "    env.process(good_proc(env))\n"  # 33
    "    env.process(bad_proc(env))\n"   # 34
    "    env.process(bare_proc(env))\n"  # 35
    "    env.process(missing_yield_from(env))\n"  # 36
    "    env.process(blocking_proc(env))\n"       # 37
    "    env.process(chained(env))\n"    # 38
)


class TestYieldProtocol:
    @pytest.fixture(scope="class")
    def diags(self):
        return analyze_one(YIELD_PROJECT, "DCM102", path="procs.py")

    def test_exactly_the_bad_yields_fire(self, diags):
        assert codes_by_line(diags) == [
            (13, "DCM102"),  # yield 1.5
            (16, "DCM102"),  # bare yield
            (22, "DCM102"),  # yield sub(env) — generator, not event
            (25, "DCM102"),  # time.sleep in a process body
            (30, "DCM102"),  # non-event yield reached via yield-from closure
        ]

    def test_bare_yield_message(self, diags):
        (msg,) = [d.message for d in diags if d.line == 16]
        assert "bare yield" in msg

    def test_missing_yield_from_hint(self, diags):
        (msg,) = [d.message for d in diags if d.line == 22]
        assert "yield from" in msg

    def test_blocking_call_message(self, diags):
        (msg,) = [d.message for d in diags if d.line == 25]
        assert "time.sleep" in msg and "env.timeout" in msg

    def test_unspawned_generator_is_not_checked(self):
        source = (
            "def helper(env):\n"
            "    yield 42\n"  # never handed to env.process
        )
        assert analyze_one(source, "DCM102") == []


TAINT_PROJECT = (
    "import random\n"                         # 1
    "import time\n"                           # 2
    "\n"                                      # 3
    "def now():\n"                            # 4
    "    return time.time()\n"                # 5
    "\n"                                      # 6
    "def jitter():\n"                         # 7
    "    return now() * 0.5\n"                # 8
    "\n"                                      # 9
    "def one_hop(env):\n"                     # 10
    "    env.timeout(now())\n"                # 11
    "\n"                                      # 12
    "def two_hops(env):\n"                    # 13
    "    env.timeout(jitter())\n"             # 14
    "\n"                                      # 15
    "def delay_by(env, delay):\n"             # 16
    "    env.timeout(delay)\n"                # 17
    "\n"                                      # 18
    "def sink_via_callee(env):\n"             # 19
    "    delay_by(env, time.time())\n"        # 20
    "\n"                                      # 21
    "def rng_seed(env, streams):\n"           # 22
    "    streams.seed(random.random())\n"     # 23
)


class TestNondeterminismTaint:
    @pytest.fixture(scope="class")
    def diags(self):
        return analyze_one(TAINT_PROJECT, "DCM103", path="delays.py")

    def test_taint_through_one_and_two_call_hops(self, diags):
        lines = [line for line, _ in codes_by_line(diags)]
        assert 11 in lines  # one helper hop
        assert 14 in lines  # two helper hops
        assert 20 in lines  # parameter flowing into a sink inside the callee

    def test_rng_source_reaches_seed_sink(self, diags):
        (msg,) = [d.message for d in diags if d.line == 23]
        assert "rng" in msg and "seed" in msg.lower()

    def test_no_findings_inside_clean_helpers(self, diags):
        # now()/jitter()/delay_by() hold taint but contain no tainted sink
        # themselves (delay_by's parameter taint is the caller's concern).
        assert all(d.line not in (5, 8, 17) for d in diags)

    def test_sorted_kills_unordered_taint(self):
        source = (
            "def stable(env, items):\n"
            "    first = sorted(set(items))[0]\n"
            "    env.timeout(first)\n"
        )
        assert analyze_one(source, "DCM103") == []

    def test_unordered_choice_is_flagged(self):
        source = (
            "def unstable(env, items):\n"
            "    first = list(set(items))[0]\n"
            "    env.timeout(first)\n"
        )
        diags = analyze_one(source, "DCM103")
        assert [d.line for d in diags] == [3]
        assert "unordered" in diags[0].message

    def test_seeded_stream_values_are_clean(self):
        source = (
            "def seeded(env, streams):\n"
            "    rng = streams.stream('demand')\n"
            "    env.timeout(rng.exponential(1.0))\n"
        )
        assert analyze_one(source, "DCM103") == []

    def test_noqa_suppresses_deep_findings(self):
        source = (
            "import time\n"
            "def telemetry(env):\n"
            "    env.timeout(time.time())  # repro: noqa[DCM103] -- test\n"
        )
        assert analyze_one(source, "DCM103") == []


class TestBaselineAndSarif:
    def _some_diags(self):
        return analyze_one(
            TestResourceLeaks.BAD_EXCEPTION_PATH, "DCM101", path="leak.py"
        )

    def test_sarif_document_shape(self):
        diags = self._some_diags()
        doc = to_sarif(diags, FLOW_RULES)
        assert doc["version"] == "2.1.0"
        (run,) = doc["runs"]
        rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"DCM101", "DCM102", "DCM103"} <= rules
        (result,) = run["results"]
        assert result["ruleId"] == "DCM101"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "leak.py"
        assert loc["region"]["startLine"] == 2


class TestAcceptance:
    def test_repo_tree_is_deep_clean(self):
        # Every deep finding is fixed or noqa'd at the source line.
        assert lint_paths([REPO_SRC], deep=True) == []

    def test_analyze_paths_walks_directories(self, tmp_path):
        bad = tmp_path / "leaky.py"
        bad.write_text(TestResourceLeaks.BAD_EXCEPTION_PATH)
        diags = analyze_paths([str(tmp_path)])
        assert [d.code for d in diags] == ["DCM101"]
        assert diags[0].path == str(bad)

    def test_simulator_import_leaves_the_flow_package_out(self):
        # The kernel imports repro.check for the sanitizer switch; that must
        # not compile the dataflow analyses into every simulation process.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.scenario; "
             "print('repro.check.flow' in sys.modules)"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.dirname(REPO_SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
