"""The Fig-5-shaped autoscale run the golden digests pin, and its digest.

A helper module for the digest tests (``tests/test_kernel_digest.py``,
``tests/test_scenario.py``); pytest does not collect it.  Changing any of
the ``FIG5_*`` parameters invalidates ``GOLDEN`` in
``tests/test_kernel_digest.py``.
"""

from typing import Any, Dict

from repro.lab.store import payload_digest
from repro.model import ground_truth_models
from repro.scenario import Deployment, ScenarioSpec
from repro.workload import sine_trace

FIG5_SEED = 0
FIG5_DEMAND_SCALE = 8.0
FIG5_TRACE = (300.0, 150.0, 0.3, 0.9)  # sine_trace(duration, period, lo, hi)
FIG5_MAX_USERS = 185


def fig5_scenario() -> ScenarioSpec:
    """A DCM trace replay seeded with the Table-I models (no training
    sweep)."""
    return ScenarioSpec(
        controller="dcm",
        workload="trace",
        trace=sine_trace(*FIG5_TRACE),
        max_users=FIG5_MAX_USERS,
        seed=FIG5_SEED,
        demand_scale=FIG5_DEMAND_SCALE,
        models=ground_truth_models(FIG5_DEMAND_SCALE),
    )


def run_fig5() -> Deployment:
    """Run :func:`fig5_scenario` in-process; returns the stopped
    :class:`~repro.scenario.Deployment`."""
    with Deployment(fig5_scenario()) as dep:
        dep.run()
    return dep


def digest_payload(dep: Deployment) -> Dict[str, Any]:
    """The JSON-able projection of a stopped controller deployment the
    digest covers."""
    return {
        "request_log": dep.system.request_log,
        "failed": len(dep.system.failure_log),
        "vm_seconds": dep.hypervisor.billing.vm_seconds(dep.duration),
        "timelines": {
            t: dep.controller.scaling_timeline(t) for t in ("app", "db")
        },
    }


def autoscale_digest(dep: Deployment) -> str:
    """sha256 over the canonical JSON of :func:`digest_payload`."""
    return payload_digest(digest_payload(dep))
