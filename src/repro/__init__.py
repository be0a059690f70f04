"""repro — reproduction of DCM (ICDCS 2017).

Dynamic Concurrency Management for scaling n-tier applications: a
discrete-event n-tier substrate (Apache/Tomcat/MySQL/HAProxy on a simulated
VM cluster with a mini-Kafka metric pipeline), the paper's concurrency-aware
queueing model, and the two-level DCM autoscaler alongside an
EC2-AutoScale-style hardware-only baseline.

Subpackages
-----------
``repro.sim``       discrete-event kernel (environment, processes, contention CPU)
``repro.cluster``   hosts, VM lifecycle, hypervisor API, billing
``repro.ntier``     Apache/Tomcat/MySQL servers, pools, balancers, topology
``repro.workload``  RUBBoS servlets, JMeter/RUBBoS/trace-driven generators
``repro.broker``    mini Kafka (topics, partitions, consumer groups)
``repro.monitor``   per-VM agents, metric records, controller-side collector
``repro.model``     the concurrency-aware model: laws, fitting, optimizer
``repro.control``   DCM and EC2-AutoScale controllers + actuators
``repro.analysis``  time series, SLA reports, run persistence
``repro.runner``    parallel experiment engine: ScenarioSpec batches,
                    process-pool fan-out, points kept in the lab store
``repro.scenario``  declarative scenario layer: ScenarioSpec + Deployment
                    composition root with controller/workload registries
``repro.check``     determinism lint (DCM001-DCM008) + runtime invariant
                    sanitizer (REPRO_CHECK=1)
"""

__version__ = "1.0.0"

from repro import (  # noqa: F401
    analysis,
    broker,
    check,
    cluster,
    control,
    model,
    monitor,
    ntier,
    runner,
    scenario,
    sim,
    workload,
)

__all__ = [
    "analysis",
    "broker",
    "check",
    "cluster",
    "control",
    "model",
    "monitor",
    "ntier",
    "runner",
    "sim",
    "workload",
    "__version__",
]
