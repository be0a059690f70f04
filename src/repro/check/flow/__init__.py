"""repro.check.flow — interprocedural dataflow analyses behind
``repro lint --deep``.

Three flow-sensitive analyses over per-function CFGs and a project-wide
call graph, sharing the :class:`repro.check.lint.Diagnostic` type and the
``# repro: noqa[...]`` suppression mechanism:

========  ====================  ==================================================
Code      Name                  Catches
========  ====================  ==================================================
DCM101    resource-leak         ``acquire()``/``checkout()`` handle that may
                                never be released on some (esp. exception) path
DCM102    yield-protocol        process generators yielding non-events, bare
                                ``yield``, or making blocking stdlib calls
DCM103    nondeterminism-taint  wall-clock/RNG/environ/hash/set-order values
                                reaching event delays, RNG seeds, or spec fields
========  ====================  ==================================================

Entry point: :func:`analyze_paths`, merged into ``lint_paths(deep=True)``.
CI fails on any finding and uploads SARIF (see
:mod:`repro.check.flow.sarif`).  DESIGN.md §"Dataflow analysis" documents
construction, lattices, and the known imprecision budget.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.check.flow.leaks import find_leaks
from repro.check.flow.project import Project, build_project
from repro.check.flow.sarif import to_sarif, write_sarif
from repro.check.flow.taint import compute_summaries, find_taint
from repro.check.flow.yields import (
    EventClassifier,
    find_yield_violations,
    process_bodies,
)
from repro.check.lint import Diagnostic, Rule, _noqa_map

__all__ = [
    "FLOW_RULES",
    "FLOW_RULES_BY_CODE",
    "analyze_paths",
    "analyze_sources",
    "to_sarif",
    "write_sarif",
]

FLOW_RULES: Tuple[Rule, ...] = (
    Rule("DCM101", "resource-leak",
         "pool handle may escape without release on some execution path"),
    Rule("DCM102", "yield-protocol",
         "process generators may only yield Event subclasses and must not block"),
    Rule("DCM103", "nondeterminism-taint",
         "nondeterministic value flows into simulation state"),
)

FLOW_RULES_BY_CODE: Dict[str, Rule] = {rule.code: rule for rule in FLOW_RULES}


def _collect_files(paths: Sequence[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirnames, filenames in os.walk(path):
                dirnames.sort()
                files.extend(
                    os.path.join(root, name)
                    for name in sorted(filenames)
                    if name.endswith(".py")
                )
        else:
            files.append(path)
    return files


def analyze_sources(
    files: Sequence[Tuple[str, str]],
    select: Optional[Sequence[str]] = None,
) -> List[Diagnostic]:
    """Run all three analyses over ``(path, source)`` pairs.

    The *whole* file set forms one project: call resolution, the class
    hierarchy, and taint summaries span every file handed in.  Findings
    pass through the same ``noqa`` filter as the syntactic rules.
    """
    project = build_project(files)
    wanted = None if select is None else {c.upper() for c in select}

    raw: List[Diagnostic] = []
    run_leaks = wanted is None or "DCM101" in wanted
    run_yields = wanted is None or "DCM102" in wanted
    run_taint = wanted is None or "DCM103" in wanted

    marked = process_bodies(project) if run_yields else set()
    classifier = EventClassifier(project) if run_yields else None
    summaries = compute_summaries(project) if run_taint else {}

    for qualname in sorted(project.functions):
        func = project.functions[qualname]
        path = func.module.path
        if run_leaks:
            for f in find_leaks(func, project):
                raw.append(Diagnostic(path, f.line, f.col, "DCM101", f.message))
        if run_yields and classifier is not None:
            for f in find_yield_violations(func, project, classifier, marked):
                raw.append(Diagnostic(path, f.line, f.col, "DCM102", f.message))
        if run_taint:
            for f in find_taint(func, project, summaries):
                raw.append(Diagnostic(path, f.line, f.col, "DCM103", f.message))

    noqa_by_path: Dict[str, Dict[int, Optional[frozenset]]] = {}
    sources = dict(files)
    out: List[Diagnostic] = []
    seen = set()
    for diag in sorted(raw, key=lambda d: (d.path, d.line, d.col, d.code,
                                           d.message)):
        ident = (diag.path, diag.line, diag.col, diag.code, diag.message)
        if ident in seen:
            continue
        seen.add(ident)
        if diag.path not in noqa_by_path:
            noqa_by_path[diag.path] = _noqa_map(sources.get(diag.path, ""))
        codes = noqa_by_path[diag.path].get(diag.line, False)
        if codes is None or (codes is not False and diag.code in codes):
            continue
        out.append(diag)
    return out


def analyze_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
) -> List[Diagnostic]:
    """Run the deep analyses over files and directory trees."""
    files: List[Tuple[str, str]] = []
    for file_path in _collect_files(paths):
        try:
            with open(file_path, "r", encoding="utf-8") as fh:
                files.append((file_path, fh.read()))
        except OSError:
            continue
    return analyze_sources(files, select=select)
