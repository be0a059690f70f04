"""Tests for the static determinism lint (repro.check.lint).

Each DCM00x rule has a dedicated ``bad_dcm00x.py`` fixture that must fire
at exactly the recorded lines, and a ``good_dcm00x.py`` counterpart showing
the deterministic idiom that must lint clean.  Suppression, path
exemptions, rule selection, and the acceptance criterion — the repo's own
``src/repro`` tree lints clean — are covered below.
"""

import os
import subprocess
import sys

import pytest

from repro.check import (
    RULES,
    RULES_BY_CODE,
    lint_file,
    lint_paths,
    lint_source,
    render_diagnostics,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "lint_fixtures")
REPO_SRC = os.path.normpath(
    os.path.join(os.path.dirname(__file__), "..", "src", "repro")
)

#: rule code -> lines at which its bad fixture must fire.  DCM009 is
#: path-scoped to sim/ and ntier/, so its fixtures are exercised through
#: ``lint_source`` with a scoped path in TestBlockingScope instead.
EXPECTED_LINES = {
    "DCM001": [7, 8, 9],
    "DCM002": [8, 9, 10, 11],
    "DCM003": [6, 8, 9],
    "DCM004": [5, 9],
    "DCM005": [4, 9],
    "DCM006": [6, 7, 8],
    "DCM007": [7, 8, 9],
    "DCM008": [5],
    "DCM010": [7, 14, 21],
}


class TestRuleTable:
    def test_every_rule_has_code_name_summary(self):
        assert len(RULES) == 10
        for rule in RULES:
            assert rule.code.startswith("DCM0")
            assert rule.name
            assert rule.summary

    def test_codes_are_unique_and_indexed(self):
        assert len(RULES_BY_CODE) == len(RULES)
        assert sorted(RULES_BY_CODE) == sorted(r.code for r in RULES)

    def test_every_rule_has_fixture_pair(self):
        for rule in RULES:
            for prefix in ("bad", "good"):
                path = os.path.join(FIXTURES, f"{prefix}_{rule.code.lower()}.py")
                assert os.path.exists(path), path


class TestBadFixturesFire:
    @pytest.mark.parametrize("code", sorted(EXPECTED_LINES))
    def test_fires_at_expected_lines(self, code):
        path = os.path.join(FIXTURES, f"bad_{code.lower()}.py")
        diagnostics = lint_file(path)
        assert [d.code for d in diagnostics] == [code] * len(EXPECTED_LINES[code])
        assert [d.line for d in diagnostics] == EXPECTED_LINES[code]

    @pytest.mark.parametrize("code", sorted(EXPECTED_LINES))
    def test_good_counterpart_is_clean(self, code):
        path = os.path.join(FIXTURES, f"good_{code.lower()}.py")
        assert lint_file(path) == []

    def test_diagnostics_carry_position_and_path(self):
        path = os.path.join(FIXTURES, "bad_dcm008.py")
        (diag,) = lint_file(path)
        assert diag.path == path
        assert diag.col >= 0
        assert "hash" in diag.message


class TestSuppression:
    def test_noqa_fixture_is_clean(self):
        assert lint_file(os.path.join(FIXTURES, "noqa_suppressed.py")) == []

    def test_targeted_noqa_only_silences_named_code(self):
        source = (
            "import time\n"
            "t = time.time(); h = hash('x')  # repro: noqa[DCM001]\n"
        )
        diagnostics = lint_source(source)
        assert [d.code for d in diagnostics] == ["DCM008"]

    def test_bare_noqa_silences_everything_on_the_line(self):
        source = (
            "import time\n"
            "t = time.time(); h = hash('x')  # repro: noqa\n"
        )
        assert lint_source(source) == []

    def test_noqa_on_other_line_does_not_leak(self):
        source = (
            "import time\n"
            "safe = 1  # repro: noqa[DCM001]\n"
            "t = time.time()\n"
        )
        assert [d.code for d in lint_source(source)] == ["DCM001"]

    def test_multiple_codes_in_one_bracket(self):
        source = "import time\nt = time.time(); h = hash('x')  # repro: noqa[DCM001, DCM008]\n"
        assert lint_source(source) == []


class TestPathExemptions:
    ENVIRON = "import os\nv = os.environ['X']\n"

    def test_runner_paths_may_read_environ(self):
        assert lint_source(self.ENVIRON, path="src/repro/runner/engine.py") == []

    def test_benchmark_paths_may_read_environ(self):
        assert lint_source(self.ENVIRON, path="benchmarks/common.py") == []

    def test_other_paths_may_not(self):
        diagnostics = lint_source(self.ENVIRON, path="src/repro/sim/core.py")
        assert [d.code for d in diagnostics] == ["DCM006"]


class TestBlockingScope:
    """DCM009 is path-scoped: only sim/ and ntier/ host the event loop."""

    def _fixture_source(self, name):
        with open(os.path.join(FIXTURES, name)) as fh:
            return fh.read()

    def test_bad_fixture_fires_under_sim_path(self):
        source = self._fixture_source("bad_dcm009.py")
        diagnostics = lint_source(source, path="src/repro/sim/clock.py")
        assert [d.code for d in diagnostics] == ["DCM009"] * 3
        assert [d.line for d in diagnostics] == [11, 12, 13]

    def test_bad_fixture_fires_under_ntier_path(self):
        source = self._fixture_source("bad_dcm009.py")
        diagnostics = lint_source(source, path="src/repro/ntier/server.py")
        assert [d.code for d in diagnostics] == ["DCM009"] * 3

    def test_same_source_is_exempt_elsewhere(self):
        source = self._fixture_source("bad_dcm009.py")
        assert lint_source(source, path="src/repro/analysis/report.py") == []

    def test_good_fixture_is_clean_in_scope(self):
        source = self._fixture_source("good_dcm009.py")
        assert lint_source(source, path="src/repro/sim/clock.py") == []


class TestSwallowedInvariant:
    """DCM010 recognizes the intercept-then-catch-all idiom as safe."""

    def test_catch_all_after_invariant_intercept_is_clean(self):
        source = (
            "from repro.errors import InvariantViolation\n"
            "def drive(run, log):\n"
            "    try:\n"
            "        run()\n"
            "    except InvariantViolation:\n"
            "        raise\n"
            "    except Exception as err:\n"
            "        log.append(str(err))\n"
        )
        assert lint_source(source) == []

    def test_catch_all_without_intercept_fires(self):
        source = (
            "def drive(run, log):\n"
            "    try:\n"
            "        run()\n"
            "    except Exception as err:\n"
            "        log.append(str(err))\n"
        )
        assert [d.code for d in lint_source(source)] == ["DCM010"]


class TestResolution:
    def test_aliased_imports_resolve(self):
        source = (
            "import time as clock\n"
            "from numpy import random as npr\n"
            "t = clock.time()\n"
            "r = npr.rand()\n"
        )
        assert [d.code for d in lint_source(source)] == ["DCM001", "DCM002"]

    def test_shadowed_names_do_not_fire(self):
        source = (
            "import time\n"
            "time = FakeClock()\n"
            "t = time.time()\n"
        )
        assert lint_source(source) == []

    def test_seed_sequence_default_rng_is_allowed(self):
        source = (
            "import numpy as np\n"
            "seq = np.random.SeedSequence(entropy=3)\n"
            "rng = np.random.default_rng(seq)\n"
        )
        assert lint_source(source) == []

    def test_sorted_wrapping_satisfies_dcm007(self):
        source = "import os\nnames = sorted(os.listdir('.'))\n"
        assert lint_source(source) == []

    def test_syntax_error_reports_dcm000(self):
        (diag,) = lint_source("def broken(:\n", path="x.py")
        assert diag.code == "DCM000"


class TestEntryPoints:
    def test_lint_paths_walks_directories_sorted(self):
        diagnostics = lint_paths([FIXTURES])
        files = [os.path.basename(d.path) for d in diagnostics]
        assert files == sorted(files)
        codes = {d.code for d in diagnostics}
        assert codes == set(EXPECTED_LINES)

    def test_select_restricts_rules(self):
        diagnostics = lint_paths([FIXTURES], select=["DCM004"])
        assert {d.code for d in diagnostics} == {"DCM004"}

    def test_render_diagnostics_is_clickable(self):
        path = os.path.join(FIXTURES, "bad_dcm008.py")
        text = render_diagnostics(lint_file(path))
        assert text.startswith(f"{path}:5:")
        assert "DCM008" in text


class TestAcceptance:
    def test_repo_source_tree_lints_clean(self):
        assert render_diagnostics(lint_paths([REPO_SRC])) == ""

    def test_cli_lint_exits_zero_on_clean_tree(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", REPO_SRC],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.join(
                os.path.dirname(REPO_SRC))},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_cli_lint_exits_nonzero_on_findings(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint",
             os.path.join(FIXTURES, "bad_dcm001.py")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.join(
                os.path.dirname(REPO_SRC))},
        )
        assert proc.returncode == 1
        assert "DCM001" in proc.stdout

    def test_cli_rules_table(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--rules"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.join(
                os.path.dirname(REPO_SRC))},
        )
        assert proc.returncode == 0
        for rule in RULES:
            assert rule.code in proc.stdout
