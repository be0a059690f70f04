"""Greedy minimisation of failing audit scenarios.

A raw fuzzer failure is often a big parameter point (thousands of
arrivals, dozens of picks).  The shrinker repeatedly proposes smaller
parameter values — each numeric parameter toward its property's declared
floor, list parameters by dropping elements — and keeps any proposal
that *still fails*.  The result is the smallest scenario the greedy
descent can reach within its run budget: what gets committed to
``tests/audit_corpus/`` and replayed forever after.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.audit.properties import PROPERTIES, Scenario, run_scenario


def _candidates(value: Any, floor: Any) -> List[Any]:
    """Smaller values to try for one parameter, most aggressive first."""
    if isinstance(value, list):
        if not value:
            return []
        return [[], value[1:], value[:-1]]
    if isinstance(value, bool) or floor is None:
        return []
    if isinstance(value, int):
        lo = int(floor)
        if value <= lo:
            return []
        mid = (value + lo) // 2
        return [lo] + ([mid] if mid not in (lo, value) else [])
    if isinstance(value, float):
        lo = float(floor)
        if value <= lo:
            return []
        mid = round((value + lo) / 2.0, 6)
        return [lo] + ([mid] if mid not in (lo, value) else [])
    return []


def shrink(
    scenario: Scenario,
    *,
    max_runs: int = 48,
    jobs: int = 1,
    store: Any = None,
) -> Tuple[Scenario, int]:
    """Minimise a failing scenario; returns ``(smallest, runs used)``.

    Greedy descent: for each parameter in turn, accept the smallest
    candidate that still fails and restart the pass; stop at a fixpoint
    or when ``max_runs`` re-checks have been spent.  ``scenario`` itself
    is assumed failing and is returned unchanged if nothing smaller
    still fails.
    """
    floors = PROPERTIES[scenario.property].floors
    runs = 0

    def still_fails(candidate: Scenario) -> bool:
        nonlocal runs
        runs += 1
        return not run_scenario(candidate, jobs=jobs, store=store).passed

    current = scenario
    progress = True
    while progress and runs < max_runs:
        progress = False
        for key in sorted(current.params):
            for value in _candidates(current.params[key], floors.get(key)):
                if runs >= max_runs:
                    return current, runs
                trial = Scenario(
                    property=current.property,
                    params={**current.params, key: value},
                    seed=current.seed,
                )
                if still_fails(trial):
                    current = trial
                    progress = True
                    break
            if progress:
                break
    return current, runs
