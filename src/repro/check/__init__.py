"""repro.check — determinism lint + runtime invariant sanitizer.

Two halves guard the invariants the whole reproduction rests on:

* :mod:`repro.check.lint` — an AST pass (rules ``DCM001``–``DCM010``) that
  statically rejects wall-clock reads, RNG outside
  :class:`repro.sim.rng.RandomStreams`, unordered set iteration, float
  time-equality, mutable defaults, stray ``os.environ`` reads, unsorted
  filesystem listings, salted ``hash()``, blocking OS calls inside the
  simulation core, and catch-all handlers that would swallow
  :class:`repro.errors.InvariantViolation` — everything that silently
  breaks bit-determinism and poisons the result cache.  CLI: ``repro lint``.
  :mod:`repro.check.flow` layers the interprocedural dataflow analyses on
  top (``DCM101`` resource leaks, ``DCM102`` yield protocol, ``DCM103``
  nondeterminism taint), reached via ``repro lint --deep``, with SARIF
  emission; CI fails on any finding.
* :mod:`repro.check.sanitizer` + :mod:`repro.check.config` — cheap runtime
  assertions wired into the kernel, pools, servers, cluster, and cache,
  armed by ``REPRO_CHECK=1`` (or :func:`repro.check.config.enable`), raising
  structured :class:`repro.errors.InvariantViolation`.  CLI: ``repro check``
  runs sanitized determinism/lifecycle smoke tests.

See DESIGN.md §4 for the rule table and invariant catalogue.
"""

from repro.check import config, flow
from repro.check.config import ReproCheckConfig
from repro.check.flow import FLOW_RULES, FLOW_RULES_BY_CODE, analyze_paths
from repro.check.lint import (
    Diagnostic,
    RULES,
    RULES_BY_CODE,
    Rule,
    lint_file,
    lint_paths,
    lint_source,
    render_diagnostics,
)
from repro.check.sanitizer import (
    audit_billing,
    audit_resource,
    audit_server,
    audit_vm,
    verify_payload_roundtrip,
)
from repro.check.smoke import SmokeOutcome, result_digest, run_smoke

__all__ = [
    "Diagnostic",
    "FLOW_RULES",
    "FLOW_RULES_BY_CODE",
    "RULES",
    "RULES_BY_CODE",
    "ReproCheckConfig",
    "Rule",
    "SmokeOutcome",
    "analyze_paths",
    "audit_billing",
    "audit_resource",
    "audit_server",
    "audit_vm",
    "config",
    "flow",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_diagnostics",
    "result_digest",
    "run_smoke",
    "verify_payload_roundtrip",
]
