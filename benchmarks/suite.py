"""The paper benchmark suite — the one source of the lab manifest.

:func:`build_suite` names the spec builders and analyses in
:mod:`benchmarks.analyses` (one experiment per paper figure/table) plus
the two tiny ``quick``-tagged smoke experiments CI runs on every PR.
``repro lab run`` builds the manifest from this file directly::

    repro lab run benchmarks/suite.py --tags quick
"""

from __future__ import annotations

import os
import sys

# The analyses are imported as ``benchmarks.analyses``, so the repo root
# must be importable however this file is loaded.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

from benchmarks import analyses as A  # noqa: E402
from repro.faults import PolicyConfig, VMCrash  # noqa: E402
from repro.lab import (  # noqa: E402
    AnalysisStep,
    ComparisonEntry,
    ExperimentEntry,
    SuiteManifest,
)
from repro.scenario import ScenarioSpec  # noqa: E402

#: (experiment name, spec builder, analysis params, artifact name, title);
#: experiment ``x`` is analysed by ``benchmarks.analyses:x``.
PAPER_EXPERIMENTS = (
    ("fig2a", list, A.FIG2A_PARAMS, "fig2a_mysql_concurrency",
     "Fig 2(a): MySQL throughput vs request-processing concurrency"),
    ("fig2b", A.fig2b_specs, {}, "fig2b_scaleout_degradation",
     "Fig 2(b): naive hardware-only scale-out degrades throughput"),
    ("fig4a", A.fig4a_specs, {}, "fig4a_validation_111",
     "Fig 4(a): model validation on 1/1/1 (optimal Tomcat threads)"),
    ("fig4b", A.fig4b_specs, {}, "fig4b_validation_121",
     "Fig 4(b): model validation on 1/2/1 (optimal DB connections)"),
    ("fig5", A.fig5_specs, {}, "fig5_dcm_vs_autoscale",
     "Fig 5: DCM vs EC2-AutoScale under the Large Variation trace"),
    ("table1", A.table1_specs, {}, "table1_model_training",
     "Table I: concurrency-aware model training and prediction"),
    ("kernel", list, {}, "kernel_microbenchmarks",
     "Kernel microbenchmarks (simulator speed; volatile)"),
    ("overprovision", A.overprovision_specs, {}, "ablation_overprovision",
     "Ablation: static over-provisioning vs DCM"),
    ("ablation_policy", A.ablation_policy_specs, {}, "ablation_policy",
     "Ablation: scale-in conservatism (slow stop vs naive)"),
    ("ablation_headroom", A.ablation_headroom_specs, {}, "ablation_headroom",
     "Ablation: headroom factor over the MySQL knee"),
    ("ablation_balance", A.ablation_balance_specs, {}, "ablation_balance",
     "Ablation: gamma(K) vs balancing policy, pool sizing, skew"),
    ("ablation_thrash", A.ablation_thrash_specs, {}, "ablation_thrash",
     "Ablation: the thrash term carries Fig 2(b)"),
    ("skewed_shards", A.skewed_shards_specs, {}, "skewed_shards",
     "Skewed shards: DCM vs hardware-only scaling"),
)


def smoke_steady_specs():
    return [ScenarioSpec(
        hardware="1/1/1", soft="1000/100/80", users=100, workload="rubbos",
        think_time=1.0, seed=5, monitoring=False, warmup=2.0, duration=6.0,
    )]


def smoke_resilience_specs():
    return [ScenarioSpec(
        hardware="1/2/1", seed=6, demand_scale=4.0, monitoring=True,
        workload="rubbos", users=30, think_time=1.0, duration=10.0,
        faults=(VMCrash(at=4.0, tier="app", index=0),),
        resilience=(
            PolicyConfig("retry", "app", {"attempts": 2, "base_delay": 0.05}),
            PolicyConfig("timeout", "app", {"deadline": 2.0}),
            PolicyConfig("shed", "db", {"max_outstanding": 400}),
        ),
    )]


def build_suite() -> SuiteManifest:
    experiments = [
        ExperimentEntry(
            name=name,
            specs=tuple(build()),
            analyses=(AnalysisStep(analysis=f"benchmarks.analyses:{name}",
                                   name=artifact, params=params),),
            tags=("paper",),
            title=title,
        )
        for name, build, params, artifact, title in PAPER_EXPERIMENTS
    ]
    experiments += [
        ExperimentEntry(
            name="smoke_steady",
            specs=tuple(smoke_steady_specs()),
            analyses=(AnalysisStep(analysis="steady_table",
                                   name="smoke_steady_table"),),
            tags=("quick",),
            title="Smoke: one small steady-state point (CI lab-smoke)",
        ),
        ExperimentEntry(
            name="smoke_resilience",
            specs=tuple(smoke_resilience_specs()),
            analyses=(AnalysisStep(analysis="scenario_report",
                                   name="smoke_resilience_report"),),
            tags=("quick",),
            title="Smoke: crash scenario with a resilience policy chain",
        ),
    ]
    comparisons = (
        ComparisonEntry(name="dcm_cost_compare",
                        experiments=("fig5", "overprovision")),
        ComparisonEntry(name="smoke_compare",
                        experiments=("smoke_steady", "smoke_resilience")),
    )
    return SuiteManifest(
        name="dcm-paper-suite",
        experiments=tuple(experiments),
        comparisons=comparisons,
    )
