"""Pluggable controller and workload registries for the scenario layer.

The composition root (:class:`repro.scenario.Deployment`) never mentions a
concrete controller or workload class; it looks the spec's ``controller``
and ``workload`` keys up here.  Third parties add kinds with the
``register_controller`` / ``register_workload`` decorators::

    @register_controller("noop")
    def _build_noop(deployment):
        return MyNoopController(deployment.env, deployment.system, ...)

A factory receives the partially-built :class:`Deployment` — the env,
system, collector, and actuators already exist when it runs — and returns
the constructed controller (or workload generator).  Workload generators
are built last; generators with a ``start()`` method are started by
``Deployment.start()``, closed-loop generators that self-start at
construction (RUBBoS) need no ``start``.

Built-in keys: controllers ``static`` / ``ec2`` / ``dcm`` /
``predictive``; workloads ``jmeter`` / ``rubbos`` / ``trace`` /
``batched`` / ``batched-trace``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.control import (
    AppAgent,
    DCMController,
    EC2AutoScaleController,
    PredictiveDCMController,
    StaticProvisioningController,
)
from repro.errors import ConfigurationError
from repro.model import OnlineModelEstimator
from repro.registry import Registry
from repro.workload import (
    BatchedPopulation,
    JMeterGenerator,
    RubbosGenerator,
    TraceDrivenGenerator,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.scenario.deploy import Deployment


@dataclass(frozen=True)
class Factory:
    """One registry entry: a name and a build function."""

    name: str
    build: Callable[["Deployment"], object]


CONTROLLERS: Registry = Registry("controller")
WORKLOADS: Registry = Registry("workload")


def register_controller(name: str) -> Callable[[Callable], Callable]:
    """Class decorator-style registration of a controller factory."""

    def deco(build: Callable[["Deployment"], object]) -> Callable:
        CONTROLLERS.add(name, Factory(name=name, build=build))
        return build

    return deco


def register_workload(name: str) -> Callable[[Callable], Callable]:
    """Registration of a workload-generator factory."""

    def deco(build: Callable[["Deployment"], object]) -> Callable:
        WORKLOADS.add(name, Factory(name=name, build=build))
        return build

    return deco


def controller_names() -> List[str]:
    """Registered controller keys, sorted."""
    return CONTROLLERS.names()


def workload_names() -> List[str]:
    """Registered workload keys, sorted."""
    return WORKLOADS.names()


def resolve_controller(name: str) -> Factory:
    """Look a controller key up, or raise with the known keys."""
    return CONTROLLERS.resolve(name)


def resolve_workload(name: str) -> Factory:
    """Look a workload key up, or raise with the known keys."""
    return WORKLOADS.resolve(name)


def registries() -> Dict[str, Registry]:
    """Every pluggable registry behind the scenario layer, by group.

    The fault/policy registries are imported lazily: :mod:`repro.faults`
    depends on the scenario registry module, not vice versa.
    """
    from repro.faults import FAULTS, POLICIES

    return {
        "controllers": CONTROLLERS,
        "workloads": WORKLOADS,
        "faults": FAULTS,
        "policies": POLICIES,
    }


# ---------------------------------------------------------------------------
# Built-in controllers
# ---------------------------------------------------------------------------

def _seeded_estimator(deployment: "Deployment") -> OnlineModelEstimator:
    """The DCM estimator, seeded with the spec's (or offline-trained) models."""
    spec = deployment.spec
    if spec.models is not None:
        models = dict(spec.models)
    else:
        from repro.runner.specs import trained_models

        models = trained_models(spec.demand_scale, spec.seed)
    estimator = OnlineModelEstimator(
        deployment.collector, visit_ratios=deployment.system.visit_ratios()
    )
    for tier, model in models.items():
        estimator.seed(tier, model)
    return estimator


def _build_dcm_family(deployment: "Deployment", cls: type) -> object:
    spec = deployment.spec
    deployment.app_agent = AppAgent(deployment.env, deployment.system)
    deployment.estimator = _seeded_estimator(deployment)
    return cls(
        deployment.env,
        deployment.system,
        deployment.collector,
        deployment.vm_agent,
        deployment.app_agent,
        deployment.estimator,
        policy=deployment.policy,
        online_refit=spec.online_refit,
    )


@register_controller("dcm")
def _build_dcm(deployment: "Deployment") -> object:
    return _build_dcm_family(deployment, DCMController)


@register_controller("predictive")
def _build_predictive(deployment: "Deployment") -> object:
    return _build_dcm_family(deployment, PredictiveDCMController)


@register_controller("ec2")
def _build_ec2(deployment: "Deployment") -> object:
    return EC2AutoScaleController(
        deployment.env,
        deployment.system,
        deployment.collector,
        deployment.vm_agent,
        policy=deployment.policy,
    )


@register_controller("static")
def _build_static(deployment: "Deployment") -> object:
    spec = deployment.spec
    if spec.target_servers is None:
        raise ConfigurationError(
            "controller 'static' requires target_servers, e.g. "
            "{'app': 3, 'db': 3}"
        )
    deployment.app_agent = AppAgent(deployment.env, deployment.system)
    models: Optional[dict] = None if spec.models is None else dict(spec.models)
    return StaticProvisioningController(
        deployment.env,
        deployment.system,
        deployment.collector,
        deployment.vm_agent,
        dict(spec.target_servers),
        app_agent=deployment.app_agent,
        models=models,
    )


# ---------------------------------------------------------------------------
# Built-in workloads
# ---------------------------------------------------------------------------

@register_workload("jmeter")
def _build_jmeter(deployment: "Deployment") -> object:
    return JMeterGenerator(
        deployment.env, deployment.system, deployment.spec.users
    )


@register_workload("rubbos")
def _build_rubbos(deployment: "Deployment") -> object:
    return RubbosGenerator(
        deployment.env,
        deployment.system,
        users=deployment.spec.users,
        think_time=deployment.spec.think_time,
    )


@register_workload("trace")
def _build_trace(deployment: "Deployment") -> object:
    spec = deployment.spec
    return TraceDrivenGenerator(
        deployment.env,
        deployment.system,
        spec.trace,
        max_users=spec.max_users,
        think_time=spec.think_time,
    )


@register_workload("batched")
def _build_batched(deployment: "Deployment") -> object:
    spec = deployment.spec
    return BatchedPopulation(
        deployment.env,
        deployment.system,
        users=spec.users,
        think_time=spec.think_time,
        batches=spec.batches,
        window=spec.window,
    )


@register_workload("batched-trace")
def _build_batched_trace(deployment: "Deployment") -> object:
    """Trace replay over a batched aggregate population — the million-user
    path: the replayer retargets integer counters instead of a session
    fleet, so a 10⁶-user Large Variation trace holds no per-user state."""
    spec = deployment.spec
    population = BatchedPopulation(
        deployment.env,
        deployment.system,
        users=0,
        think_time=spec.think_time,
        batches=spec.batches,
        window=spec.window,
    )
    return TraceDrivenGenerator(
        deployment.env,
        deployment.system,
        spec.trace,
        max_users=spec.max_users,
        population=population,
    )
