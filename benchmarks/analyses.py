"""Lab analysis functions for the paper benchmark suite.

Each function is the *body* of one historical ``bench_*.py`` harness:
it receives the executed spec values via an
:class:`~repro.lab.analyses.AnalysisContext` (in entry order: a
:class:`~repro.runner.SteadyResult` per steady-state point, the stopped
:class:`~repro.scenario.Deployment` per full run), renders exactly the
text the harness used to ``emit``, asserts the paper's qualitative shape,
and returns the artifact payload.  The spec builders live next to the
analyses (single source of truth); :mod:`benchmarks.suite` names them as
the lab experiments of the committed suite.

Byte-identity contract: the ``text`` these functions return is written to
``benchmarks/out/<name>.txt`` by the lab executor with the same trailing
newline the historical ``emit`` used, so re-running the suite through
``repro lab run`` reproduces the pre-lab artifacts bit-for-bit.
"""

from __future__ import annotations

import pytest

from benchmarks.common import PAPER_TABLE1
from repro.analysis import stability_report
from repro.analysis.tables import render_series, render_sparkline, render_table
from repro.analysis.timeseries import (
    metric_series,
    response_time_series,
    throughput_series,
)
from repro.control import ScalingPolicy
from repro.model import estimate_scaling_correction, ground_truth_models
from repro.ntier import CacheSpec, ShardingSpec, SoftResourceConfig
from repro.ntier.contention import (
    MYSQL_CONTENTION,
    TOMCAT_CONTENTION,
    ContentionModel,
)
from repro.runner import (
    DB_TRAINING_LEVELS,
    TRAINING_LEVELS,
    stress_sweep,
    training_outcome,
    training_specs,
    validation_curves,
    validation_specs,
)
from repro.scenario import ScenarioSpec
from repro.workload import large_variation, sine_trace

# ---------------------------------------------------------------------------
# Fig 2(a): MySQL throughput vs request-processing concurrency
# ---------------------------------------------------------------------------

#: The stress harness drives one bare server, not a deployment, so the
#: experiment has no specs: these analysis params (part of the artifact
#: key) describe its points.
FIG2A_PARAMS = {
    "tier": "db",
    "levels": [5, 10, 20, 30, 36, 40, 60, 80, 120, 160, 240, 400, 600],
    "seed": 1,
    "duration": 12.0,
}


def fig2a(ctx):
    p = ctx.params
    points = stress_sweep(
        p["tier"], p["levels"], seed=p["seed"], duration=p["duration"],
        jobs=ctx.jobs, store=ctx.store,
    ).value
    by_level = {p.target_concurrency: p.throughput for p in points}
    peak_level = max(by_level, key=by_level.get)
    peak = by_level[peak_level]

    rows = [
        [p.target_concurrency, p.measured_concurrency, p.throughput,
         p.throughput / peak]
        for p in points
    ]
    text = render_table(
        ["concurrency", "measured conc", "throughput (req/s)", "frac of peak"],
        rows,
        precision=2,
        title="Fig 2(a): MySQL throughput vs request-processing concurrency",
    )
    text += "\nshape: " + render_sparkline([p.throughput for p in points])
    text += (
        f"\npeak {peak:.0f} req/s at concurrency {peak_level} "
        f"(paper: ~865 req/s around 36-40)"
    )

    # Paper shape assertions.
    assert 20 <= peak_level <= 80, "knee must fall in the paper's 20-80 band"
    assert by_level[5] < 0.96 * peak, "too-low concurrency must under-perform"
    for level in (20, 40, 60, 80):
        assert by_level[level] > 0.9 * peak, "20-80 is the reasonable band"
    assert by_level[160] < 0.85 * peak, "160 (2x default pools) degrades"
    assert by_level[600] < 0.5 * peak, "600 collapses (significant decrease)"
    # Absolute calibration: peak near the paper's 865 req/s.
    assert peak == pytest.approx(865, rel=0.05)

    return {
        "text": text,
        "metrics": {"peak": peak, "peak_level": float(peak_level)},
        "type": "figure",
    }


# ---------------------------------------------------------------------------
# Fig 2(b): naive hardware-only scale-out degrades throughput
# ---------------------------------------------------------------------------

FIG2B_USERS = 3600
FIG2B_CONFIGS = (
    ("1/1/1 default", "1/1/1", "1000/100/80"),
    ("1/2/1 default (naive)", "1/2/1", "1000/100/80"),
    ("1/2/1 retuned (DCM)", "1/2/1", "1000/100/20"),
)


def _point(**fields):
    """A steady-state point: no monitoring pipeline, measured after warmup."""
    return ScenarioSpec(monitoring=False, workload="rubbos", think_time=3.0,
                        **fields)


def fig2b_specs():
    return [
        _point(hardware=hw, soft=soft, users=FIG2B_USERS, seed=11,
               warmup=6.0, duration=20.0)
        for _label, hw, soft in FIG2B_CONFIGS
    ]


def fig2b(ctx):
    results = {}
    for (label, _hw, _soft), spec, res in zip(
        FIG2B_CONFIGS, ctx.specs, ctx.values
    ):
        max_conc = spec.soft.max_db_concurrency(spec.hardware.app)
        results[label] = (res.steady, max_conc)

    rows = [
        [label, steady.throughput, steady.mean_response_time,
         max_conc, steady.tier_efficiency["db"]]
        for label, (steady, max_conc) in results.items()
    ]
    text = render_table(
        ["configuration", "throughput", "mean RT (s)", "max DB conc", "db efficiency"],
        rows,
        title=f"Fig 2(b): scale-out under high workload ({FIG2B_USERS} users)",
    )

    base = results["1/1/1 default"][0].throughput
    naive = results["1/2/1 default (naive)"][0].throughput
    retuned = results["1/2/1 retuned (DCM)"][0].throughput

    # The paper's headline: adding a Tomcat with default pools makes the
    # system *slower*; retuning the pools makes it faster than 1/1/1.
    assert naive < 0.95 * base, "naive scale-out must degrade throughput"
    assert retuned > naive * 1.10, "retuned pools must beat the naive config"
    assert retuned >= base, "retuned scale-out must not regress the baseline"
    # Mechanism: the DB tier burns capacity on over-concurrency.
    assert results["1/2/1 default (naive)"][0].tier_efficiency["db"] < 0.9
    assert results["1/2/1 retuned (DCM)"][0].tier_efficiency["db"] > 0.95

    return {
        "text": text,
        "metrics": {"base": base, "naive": naive, "retuned": retuned},
        "type": "figure",
    }


# ---------------------------------------------------------------------------
# Fig 4(a): model validation on 1/1/1 — the optimal Tomcat thread pool
# ---------------------------------------------------------------------------

#: Allocations: raw knee, planner optimum, default, 2x default, 4x default.
FIG4A_TOMCAT_THREADS = (20, 44, 100, 200, 400)
FIG4_USER_LEVELS = (2400, 3200, 4000)


def fig4a_specs():
    return validation_specs(
        hardware="1/1/1",
        soft_configs=[SoftResourceConfig(1000, t, 80) for t in FIG4A_TOMCAT_THREADS],
        user_levels=FIG4_USER_LEVELS,
        seed=0,
        warmup=6.0,
        duration=15.0,
    )


def fig4a(ctx):
    curves = validation_curves(ctx.specs, ctx.values)
    # Compare *under peak workload* (the last ramp level): below saturation
    # all allocations deliver the offered load and the curves overlap, as in
    # the left half of the paper's Fig 4(a).
    at_peak = {c.soft.tomcat_threads: c.throughput[-1] for c in curves}

    rows = []
    for curve in curves:
        rows.append(
            [str(curve.soft)]
            + [f"{x:.0f}" for x in curve.throughput]
        )
    text = render_table(
        ["allocation"] + [f"{u} users" for u in FIG4_USER_LEVELS],
        rows,
        title="Fig 4(a): throughput under RUBBoS workload, 1/1/1, five allocations",
    )
    gain_oversized = at_peak[44] / at_peak[200] - 1
    text += (
        f"\nplanner optimum (44) vs oversized (200): {100 * gain_oversized:+.1f} % "
        f"(paper's optimal-vs-thrashing margin: ~+30 %)"
        f"\nplanner optimum (44) vs raw knee (20): "
        f"{100 * (at_peak[44] / at_peak[20] - 1):+.1f} %"
    )

    # The model-derived allocation tops the board.
    assert at_peak[44] >= 0.98 * max(at_peak.values())
    # It clearly beats the thrashing oversized pools (paper's ~30 % margin).
    assert 0.15 <= gain_oversized <= 1.2
    # Raw theoretical knee under-feeds the DB tier (the paper's own caveat
    # about threads not all being Active).
    assert at_peak[44] > 1.01 * at_peak[20]
    # Monotone collapse past the effective knee.
    assert at_peak[100] > at_peak[200] > at_peak[400]
    # Default is not the winner (soft-resource tuning matters).
    assert at_peak[44] >= 0.97 * at_peak[100]

    return {
        "text": text,
        "metrics": {f"at_peak[{t}]": at_peak[t] for t in FIG4A_TOMCAT_THREADS},
        "type": "figure",
    }


# ---------------------------------------------------------------------------
# Fig 4(b): model validation on 1/2/1 — the optimal DB connection pools
# ---------------------------------------------------------------------------

#: Per-Tomcat DB connection pools; 18 is the model's pick (36 / 2 Tomcats).
FIG4B_DB_CONNECTIONS = (9, 18, 40, 80, 160)


def fig4b_specs():
    return validation_specs(
        hardware="1/2/1",
        soft_configs=[SoftResourceConfig(1000, 100, c) for c in FIG4B_DB_CONNECTIONS],
        user_levels=FIG4_USER_LEVELS,
        seed=0,
        warmup=6.0,
        duration=15.0,
    )


def fig4b(ctx):
    curves = validation_curves(ctx.specs, ctx.values)
    # Compare under peak workload (see fig4a note).
    peak = {c.soft.db_connections: c.throughput[-1] for c in curves}

    rows = []
    for curve in curves:
        rows.append(
            [f"{curve.soft} (DB conc <= {2 * curve.soft.db_connections})"]
            + [f"{x:.0f}" for x in curve.throughput]
            + [f"{curve.peak_throughput:.0f}"]
        )
    text = render_table(
        ["allocation"] + [f"{u} users" for u in FIG4_USER_LEVELS] + ["sustained max"],
        rows,
        title="Fig 4(b): throughput under RUBBoS workload, 1/2/1, five allocations",
    )
    gain = peak[18] / peak[80] - 1
    text += f"\noptimal(18/Tomcat) vs default(80/Tomcat): {100 * gain:+.1f} %"

    # The model's pick is at the top.
    assert peak[18] >= 0.98 * max(peak.values())
    # Default (2 x 80 = 160 into one MySQL) pays the thrash tax.
    assert peak[18] > 1.10 * peak[80]
    # Severe over-concurrency is worst.
    assert peak[160] == min(peak.values())
    assert peak[80] > peak[160]
    # Mild under-provisioning (9/Tomcat) cannot *beat* the optimum (the flat
    # top of the MySQL curve makes it close, as in the paper's Fig 4(b)).
    assert peak[9] <= 1.02 * peak[18]

    return {
        "text": text,
        "metrics": {f"peak[{c}]": peak[c] for c in FIG4B_DB_CONNECTIONS},
        "type": "figure",
    }


# ---------------------------------------------------------------------------
# Fig 5: DCM vs EC2-AutoScale under the "Large Variation" trace
# ---------------------------------------------------------------------------

FIG5_SCALE = 4.0
FIG5_MAX_USERS = 1480
FIG5_SEED = 7
FIG5_CONTROLLERS = ("dcm", "ec2")


def fig5_specs():
    models = ground_truth_models(FIG5_SCALE)
    trace = large_variation()
    return [
        ScenarioSpec(controller=name, workload="trace", trace=trace,
                     max_users=FIG5_MAX_USERS, seed=FIG5_SEED,
                     demand_scale=FIG5_SCALE, models=models)
        for name in FIG5_CONTROLLERS
    ]


def fig5(ctx):
    runs = dict(zip(FIG5_CONTROLLERS, ctx.values))
    reports = {name: dep.stability_report() for name, dep in runs.items()}
    max_db_conc = {
        name: max(rec.get("concurrency") for rec in dep.collector.records("db"))
        for name, dep in runs.items()
    }

    rows = [
        [label, getattr(reports["dcm"], attr), getattr(reports["ec2"], attr)]
        for label, attr in [
            ("mean RT (s)", "mean_response_time"),
            ("p95 RT (s)", "p95_response_time"),
            ("p99 RT (s)", "p99_response_time"),
            ("max RT (s)", "max_response_time"),
            ("RT spike episodes (>1s)", "spike_episodes"),
            ("seconds in spike", "spike_seconds"),
            ("SLA violations (frac >1s)", "sla_violation_fraction"),
            ("mean throughput (req/s)", "throughput_mean"),
            ("completed requests", "completed"),
            ("VM-seconds", "vm_seconds"),
        ]
    ]
    rows.append(["max per-MySQL concurrency", max_db_conc["dcm"], max_db_conc["ec2"]])
    text = render_table(
        ["metric", "DCM", "EC2-AutoScale"], rows,
        title="Fig 5: stability & efficiency under the Large Variation trace",
    )
    for name in ("dcm", "ec2"):
        dep = runs[name]
        log = dep.system.request_log
        rt = response_time_series(log, dep.duration, 5.0, percentile=95.0)
        xp = throughput_series(log, dep.duration, 5.0)
        conc = metric_series(dep.collector.records("db"), "concurrency",
                             dep.duration, 5.0)
        text += f"\n\n[{name}] p95 RT (5s bins): {render_sparkline(rt.values)}"
        text += f"\n[{name}] throughput:       {render_sparkline(xp.values)}"
        text += f"\n[{name}] MySQL conc:       {render_sparkline(conc.values)}"
        for tier in ("app", "db"):
            text += "\n" + render_series(
                f"[{name}] {tier} VMs", dep.controller.scaling_timeline(tier),
                precision=0,
            )
    text += "\n\nDCM soft-resource re-allocations:"
    for e in runs["dcm"].system.control_log:
        if e.actor == "app-agent" and e.kind == "apply":
            text += f"\n  t={e.time:6.1f}s -> {e.detail}"

    d, e = reports["dcm"], reports["ec2"]
    # --- The paper's headline: much more stable performance under DCM. ---
    assert d.max_response_time < 0.6 * e.max_response_time
    assert d.spike_seconds < 0.5 * e.spike_seconds
    assert d.sla_violation_fraction < 0.5 * e.sla_violation_fraction
    assert e.max_response_time > 1.0, "the baseline must show >1 s spikes"
    # --- ... at no throughput loss (Fig 5(a) caption). ---
    assert d.throughput_mean > 0.97 * e.throughput_mean
    # --- ... and no worse resource usage (abstract: higher efficiency). ---
    assert d.vm_seconds <= 1.05 * e.vm_seconds
    # --- Mechanism: EC2 floods MySQL with ~2 x default pools; DCM caps
    #     concurrency near the knee (36 * 1.1 headroom). ---
    assert max_db_conc["ec2"] >= 120
    assert max_db_conc["dcm"] <= 60
    # --- Both controllers actually scaled out and back in. ---
    for name, dep in runs.items():
        app_counts = [c for _t, c in dep.controller.scaling_timeline("app")]
        db_counts = [c for _t, c in dep.controller.scaling_timeline("db")]
        assert max(app_counts) >= 3, f"{name} must reach 3 Tomcats"
        assert max(db_counts) >= 2, f"{name} must reach 2+ MySQL"
        assert app_counts[-1] < max(app_counts), f"{name} must scale back in"

    metrics = {}
    for name, report in reports.items():
        metrics[f"{name}.max_rt"] = report.max_response_time
        metrics[f"{name}.spike_seconds"] = report.spike_seconds
        metrics[f"{name}.throughput_mean"] = report.throughput_mean
        metrics[f"{name}.vm_seconds"] = report.vm_seconds
        metrics[f"{name}.max_db_conc"] = float(max_db_conc[name])
    return {"text": text, "metrics": metrics, "type": "figure"}


# ---------------------------------------------------------------------------
# Table I: concurrency-aware model training and prediction
# ---------------------------------------------------------------------------

def _capacity_spec(hardware, soft, users):
    return _point(hardware=hardware, soft=soft, users=users, seed=21,
                  warmup=6.0, duration=16.0)


def table1_specs():
    return [
        *training_specs("app", seed=0),
        *training_specs("db", seed=0),
        # Scaling correction for the DB tier: optimal soft config, 1 vs 2
        # MySQL.  The app tier is over-provisioned (2-3 Tomcats) so MySQL
        # stays the bottleneck in both measurements.
        _capacity_spec("1/2/1", "1000/100/18", users=3600),
        _capacity_spec("1/3/2", "1000/100/24", users=7200),
    ]


def table1(ctx):
    n_app, n_db = len(TRAINING_LEVELS), len(DB_TRAINING_LEVELS)
    outcomes = {
        "app": training_outcome("app", ctx.values[:n_app]),
        "db": training_outcome("db", ctx.values[n_app:n_app + n_db]),
    }
    cap1, cap2 = ctx.values[n_app + n_db:]
    x1, x2 = cap1.steady.throughput, cap2.steady.throughput
    gamma_eff = estimate_scaling_correction(x1, x2, 2)

    rows = []
    for tier in ("app", "db"):
        fit = outcomes[tier].fit
        paper = PAPER_TABLE1[tier]
        rescaled = fit.model.rescaled(paper["gamma"])
        rows += [
            [f"{tier}: S0 (x paper gamma)", paper["S0"], rescaled.s0],
            [f"{tier}: alpha (x paper gamma)", paper["alpha"], rescaled.alpha],
            [f"{tier}: beta (x paper gamma)", paper["beta"], rescaled.beta],
            [f"{tier}: R^2", paper["R2"], fit.r_squared],
            [f"{tier}: N_b", paper["N_b"], fit.model.optimal_concurrency_int()],
            [f"{tier}: X_max (req/s)", paper["Xmax"], fit.model.max_throughput()],
        ]
    text = render_table(
        ["quantity", "paper", "measured"], rows,
        title="Table I: model training parameters and prediction result",
    )
    text += (
        f"\nDB-tier scaling correction: X(1 MySQL)={x1:.0f}, X(2 MySQL)={x2:.0f}"
        f" -> gamma-efficiency {gamma_eff:.2f} (1.0 = perfectly linear)"
    )

    app, db = outcomes["app"].fit, outcomes["db"].fit
    # Knees: Tomcat ~20, MySQL ~36 (generous bands for measurement noise).
    assert 16 <= app.model.optimal_concurrency_int() <= 26
    assert 28 <= db.model.optimal_concurrency_int() <= 52
    # Fit quality comparable to the paper's 0.96/0.97.
    assert app.r_squared > 0.93
    assert db.r_squared > 0.93
    # Peak predictions near the paper's 946/865 (system envelope may shave
    # the Tomcat number toward the MySQL ceiling, as in the real testbed).
    assert app.model.max_throughput() == pytest.approx(946, rel=0.12)
    assert db.model.max_throughput() == pytest.approx(865, rel=0.08)
    # Two MySQL servers scale sub-linearly but usefully.
    assert 0.7 <= gamma_eff <= 1.05

    return {
        "text": text,
        "metrics": {
            "app.knee": float(app.model.optimal_concurrency_int()),
            "db.knee": float(db.model.optimal_concurrency_int()),
            "app.r_squared": app.r_squared,
            "db.r_squared": db.r_squared,
            "app.x_max": app.model.max_throughput(),
            "db.x_max": db.model.max_throughput(),
            "gamma_eff": gamma_eff,
        },
    }


# ---------------------------------------------------------------------------
# Ablation: static over-provisioning vs DCM
# ---------------------------------------------------------------------------

def overprovision_specs():
    trace = large_variation()
    return [
        ScenarioSpec(
            controller="dcm", workload="trace", trace=trace,
            max_users=FIG5_MAX_USERS, seed=FIG5_SEED, demand_scale=FIG5_SCALE,
            models=ground_truth_models(FIG5_SCALE),
        ),
        ScenarioSpec(
            seed=FIG5_SEED,
            demand_scale=FIG5_SCALE,
            collector_history=700,
            controller="static",
            target_servers={"app": 3, "db": 3},
            models={
                t: m.rescaled(1.0)
                for t, m in ground_truth_models(FIG5_SCALE).items()
            },
            workload="trace",
            trace=trace,
            max_users=FIG5_MAX_USERS,
        ),
    ]


def overprovision(ctx):
    dcm, static = (dep.stability_report() for dep in ctx.values)

    rows = [
        [label, getattr(dcm, attr), getattr(static, attr)]
        for label, attr in [
            ("p95 RT (s)", "p95_response_time"),
            ("max RT (s)", "max_response_time"),
            ("seconds in spike", "spike_seconds"),
            ("SLA violations (frac)", "sla_violation_fraction"),
            ("mean throughput (req/s)", "throughput_mean"),
            ("VM-seconds", "vm_seconds"),
        ]
    ]
    text = render_table(
        ["metric", "DCM (elastic)", "static peak fleet"], rows,
        title="Over-provisioning vs DCM under the Large Variation trace",
    )
    savings = 1 - dcm.vm_seconds / static.vm_seconds
    text += f"\nDCM VM-seconds savings vs static peak fleet: {100 * savings:.0f} %"

    # The static fleet is at least as stable (capacity always ready)...
    assert static.spike_seconds <= dcm.spike_seconds + 10
    assert static.throughput_mean == pytest.approx(dcm.throughput_mean, rel=0.05)
    # ... but pays for peak around the clock: the paper's motivation.
    assert dcm.vm_seconds < 0.75 * static.vm_seconds

    return {
        "text": text,
        "metrics": {
            "dcm.vm_seconds": dcm.vm_seconds,
            "static.vm_seconds": static.vm_seconds,
            "dcm.throughput_mean": dcm.throughput_mean,
            "static.throughput_mean": static.throughput_mean,
            "savings": savings,
        },
    }


# ---------------------------------------------------------------------------
# Ablation: "quick start / slow turn off" policy vs naive symmetry
# ---------------------------------------------------------------------------

POLICY_VARIANTS = (("slow stop (paper, 3 periods)", 3), ("naive (1 period)", 1))


def ablation_policy_specs():
    models = ground_truth_models(FIG5_SCALE)
    trace = large_variation()
    return [
        ScenarioSpec(
            controller="dcm", workload="trace", trace=trace,
            max_users=FIG5_MAX_USERS, seed=7, demand_scale=FIG5_SCALE,
            models=models,
            policy=ScalingPolicy(consecutive_low_periods=lows),
        )
        for _label, lows in POLICY_VARIANTS
    ]


def ablation_policy(ctx):
    results = {}
    for (label, _lows), dep in zip(POLICY_VARIANTS, ctx.values):
        report = dep.stability_report()
        scale_events = sum(
            1 for e in dep.controller.events
            if e.kind in ("scale_out_done", "scale_in_done")
        )
        results[label] = (report, scale_events)

    rows = [
        [label, report.p95_response_time, report.max_response_time,
         report.spike_seconds, report.vm_seconds, float(events)]
        for label, (report, events) in results.items()
    ]
    text = render_table(
        ["policy", "p95 RT", "max RT", "spike s", "VM-seconds", "scale events"],
        rows,
        title="Ablation: scale-in conservatism under the Large Variation trace (DCM)",
    )

    slow, slow_events = results["slow stop (paper, 3 periods)"]
    naive, naive_events = results["naive (1 period)"]
    # The naive policy reacts to every dip: at least as many VM actions and
    # lower VM-seconds (it runs leaner)...
    assert naive_events >= slow_events
    assert naive.vm_seconds <= slow.vm_seconds
    # ... but pays for it in stability when the burst returns.
    assert naive.spike_seconds >= slow.spike_seconds
    assert naive.p95_response_time >= 0.95 * slow.p95_response_time

    return {
        "text": text,
        "metrics": {
            "slow.events": float(slow_events),
            "naive.events": float(naive_events),
            "slow.vm_seconds": slow.vm_seconds,
            "naive.vm_seconds": naive.vm_seconds,
            "slow.spike_seconds": slow.spike_seconds,
            "naive.spike_seconds": naive.spike_seconds,
        },
    }


# ---------------------------------------------------------------------------
# Ablation: sensitivity to the headroom factor over the theoretical knee
# ---------------------------------------------------------------------------

HEADROOMS = (0.06, 0.6, 0.8, 1.0, 1.1, 1.3, 2.2, 4.4)
KNEE = 36
HEADROOM_USERS = 3600


def _per_tomcat(h):
    return max(1, round(h * KNEE / 2))


def ablation_headroom_specs():
    return [
        _point(
            hardware="1/2/1",
            soft=SoftResourceConfig(1000, 100, _per_tomcat(h)),
            users=HEADROOM_USERS, seed=31, warmup=6.0, duration=15.0,
        )
        for h in HEADROOMS
    ]


def ablation_headroom(ctx):
    results = {
        h: (_per_tomcat(h), res.steady)
        for h, res in zip(HEADROOMS, ctx.values)
    }
    rows = [
        [h, per_tomcat, 2 * per_tomcat, steady.throughput, steady.mean_response_time]
        for h, (per_tomcat, steady) in results.items()
    ]
    text = render_table(
        ["headroom", "conns/Tomcat", "max DB conc", "throughput", "mean RT (s)"],
        rows,
        title="Ablation: DCM headroom factor over the MySQL knee (1/2/1, saturated)",
    )

    xput = {h: steady.throughput for h, (_c, steady) in results.items()}
    best = max(xput.values())
    # Plateau: everything in 0.8-1.3 x knee within a few % of the best.
    for h in (0.8, 1.0, 1.1, 1.3):
        assert xput[h] > 0.95 * best
    # Deep under-provisioning starves the tier (the flat top of the MySQL
    # curve keeps even 0.6 x knee within a few %, so the starvation point
    # sits very low).
    assert xput[0.06] < 0.92 * best
    # Far over-provisioning (4.4 x knee ~ the default 80/Tomcat) thrashes.
    assert xput[4.4] < 0.88 * best

    return {
        "text": text,
        "metrics": {f"xput[{h}]": xput[h] for h in HEADROOMS},
    }


# ---------------------------------------------------------------------------
# Ablation: γ(K) — load balancing, skew, and the connection tar-pit
# ---------------------------------------------------------------------------

BALANCE_SKEWS = (0.0, 0.2, 0.5)
BALANCE_USERS = 7200
BALANCE_CONFIGS = (
    ("least_conn, sized (24/Tomcat)", "least_conn", 24),
    ("round_robin, sized (24/Tomcat)", "round_robin", 24),
    ("round_robin, default (80/Tomcat)", "round_robin", 80),
)

BALANCE_GRID = [
    (label, policy, conns, w)
    for label, policy, conns in BALANCE_CONFIGS
    for w in BALANCE_SKEWS
]


def ablation_balance_specs():
    return [
        _point(
            hardware="1/3/2",
            soft=SoftResourceConfig(1000, 100, conns),
            users=BALANCE_USERS, seed=13, warmup=6.0, duration=12.0,
            imbalance=w, balancer_policy=policy,
        )
        for _label, policy, conns, w in BALANCE_GRID
    ]


def ablation_balance(ctx):
    results = {
        (label, w): (res.steady.throughput, list(res.server_busy["db"]))
        for (label, _policy, _conns, w), res in zip(BALANCE_GRID, ctx.values)
    }
    rows = []
    for label, _policy, _conns in BALANCE_CONFIGS:
        balanced = results[(label, 0.0)][0]
        for w in BALANCE_SKEWS:
            xput, concs = results[(label, w)]
            rows.append(
                [label, w, xput, xput / balanced,
                 f"{concs[0]:.0f}/{concs[-1]:.0f}"]
            )
    text = render_table(
        ["configuration", "skew", "X (req/s)", "eff vs own balanced", "db conc lo/hi"],
        rows,
        title="Ablation: 2-MySQL capacity vs balancing policy, pool sizing, skew",
    )

    lc_sized = {w: results[("least_conn, sized (24/Tomcat)", w)][0]
                for w in BALANCE_SKEWS}
    rr_sized = {w: results[("round_robin, sized (24/Tomcat)", w)][0]
                for w in BALANCE_SKEWS}
    rr_default = {w: results[("round_robin, default (80/Tomcat)", w)][0]
                  for w in BALANCE_SKEWS}

    # (1) least-conn absorbs skew: gamma stays near 1.
    assert lc_sized[0.5] > 0.90 * lc_sized[0.0]
    # (2) round-robin pays for skew.
    assert rr_sized[0.5] < 0.85 * rr_sized[0.0]
    assert rr_sized[0.2] < 0.97 * rr_sized[0.0]
    # (3) the tar-pit: oversized pools under round-robin lose badly even
    # with zero skew, with the concurrency split wildly asymmetric.
    assert rr_default[0.0] < 0.75 * rr_sized[0.0]
    lo, hi = results[("round_robin, default (80/Tomcat)", 0.0)][1]
    assert hi > 3 * max(lo, 1.0)

    metrics = {}
    for i, ((label, _p, _c, w), _spec) in enumerate(zip(BALANCE_GRID, ctx.specs)):
        metrics[f"xput[{i}]"] = results[(label, w)][0]
    return {"text": text, "metrics": metrics}


# ---------------------------------------------------------------------------
# Ablation: the thrash term is what makes over-concurrency harmful
# ---------------------------------------------------------------------------

THRASH_USERS = 3600
THRASH_VARIANTS = ("with thrash", "quadratic only")
THRASH_HARDWARES = ("1/1/1", "1/2/1")
THRASH_GRID = [(variant, hw) for variant in THRASH_VARIANTS
               for hw in THRASH_HARDWARES]


def _quadratic(model):
    return ContentionModel(s0=model.s0, alpha=model.alpha, beta=model.beta)


def ablation_thrash_specs():
    specs = []
    for variant, hw in THRASH_GRID:
        quad = variant == "quadratic only"
        specs.append(_point(
            hardware=hw, soft="1000/100/80", users=THRASH_USERS, seed=11,
            warmup=6.0, duration=15.0,
            mysql_contention=_quadratic(MYSQL_CONTENTION) if quad else None,
            tomcat_contention=_quadratic(TOMCAT_CONTENTION) if quad else None,
        ))
    return specs


def ablation_thrash(ctx):
    results = {
        key: res.steady.throughput
        for key, res in zip(THRASH_GRID, ctx.values)
    }
    rows = []
    for variant in THRASH_VARIANTS:
        base = results[(variant, "1/1/1")]
        naive = results[(variant, "1/2/1")]
        rows.append([variant, base, naive, 100 * (naive / base - 1)])
    text = render_table(
        ["MySQL ground truth", "1/1/1 default", "1/2/1 default", "scale-out delta (%)"],
        rows,
        title="Ablation: Fig 2(b) with and without the thrash term",
    )

    with_delta = results[("with thrash", "1/2/1")] / results[("with thrash", "1/1/1")] - 1
    quad_delta = (
        results[("quadratic only", "1/2/1")] / results[("quadratic only", "1/1/1")] - 1
    )
    # With thrash: naive scale-out clearly degrades (the paper's Fig 2(b)).
    assert with_delta < -0.05
    # Quadratic only: the degradation (mostly) disappears.
    assert quad_delta > with_delta + 0.05
    assert quad_delta > -0.05

    return {
        "text": text,
        "metrics": {"with_delta": with_delta, "quad_delta": quad_delta},
    }


# ---------------------------------------------------------------------------
# Skewed shards: DCM vs hardware-only scaling with one hot MySQL shard
# ---------------------------------------------------------------------------

SHARDS_SCALE = 4.0
SHARDS_MAX_USERS = 600
SHARDS_SEED = 11
SHARDS = 3
SHARDS_ZIPF = 1.4
SHARDS_CONTROLLERS = ("dcm", "ec2")


def skewed_shards_specs():
    specs = []
    for controller in SHARDS_CONTROLLERS:
        trace = sine_trace(duration=240.0, period=120.0, low=0.25, high=1.0)
        specs.append(ScenarioSpec(
            hardware="1/1/1",
            seed=SHARDS_SEED,
            demand_scale=SHARDS_SCALE,
            controller=controller,
            models=ground_truth_models(SHARDS_SCALE),
            workload="trace",
            trace=trace,
            max_users=SHARDS_MAX_USERS,
            sharding=ShardingSpec(shards=SHARDS, replicas=1, zipf=SHARDS_ZIPF),
            cache=CacheSpec(capacity=1024, zipf=SHARDS_ZIPF),
            write_fraction=0.1,
        ))
    return specs


def skewed_shards(ctx):
    deps = {}
    for name, dep in zip(SHARDS_CONTROLLERS, ctx.deployments()):
        # Settle in-flight closed-loop sessions so the shard books balance.
        dep.env.run(until=dep.env.now + 60.0)
        deps[name] = dep

    reports = {}
    shard_stats = {}
    hot_fraction = {}
    for name, dep in deps.items():
        system = dep.system
        reports[name] = stability_report(
            system.request_log,
            len(system.failure_log),
            dep.duration,
            vm_seconds=dep.hypervisor.billing.vm_seconds(),
        )
        stats = system.db_balancer.shard_stats()
        shard_stats[name] = stats
        total = sum(st["routed"] for st in stats.values())
        hottest = system.db_balancer.hottest_shard()
        hot_fraction[name] = stats[hottest]["routed"] / max(1, total)

    rows = [
        [label, getattr(reports["dcm"], attr), getattr(reports["ec2"], attr)]
        for label, attr in [
            ("mean RT (s)", "mean_response_time"),
            ("p95 RT (s)", "p95_response_time"),
            ("max RT (s)", "max_response_time"),
            ("mean throughput (req/s)", "throughput_mean"),
            ("completed requests", "completed"),
            ("VM-seconds", "vm_seconds"),
        ]
    ]
    rows.append([
        "hot-shard routed fraction",
        round(hot_fraction["dcm"], 3),
        round(hot_fraction["ec2"], 3),
    ])
    rows.append([
        "cache hit rate",
        round(deps["dcm"].system.cache.hit_rate(), 3),
        round(deps["ec2"].system.cache.hit_rate(), 3),
    ])
    text = render_table(
        ["metric", "DCM", "hardware-only"], rows,
        title=(
            f"Skewed shards ({SHARDS} shards, zipf {SHARDS_ZIPF}): "
            "DCM vs hardware-only scaling"
        ),
    )
    for name, dep in deps.items():
        text += f"\n\n[{name}] per-shard routing:"
        for sid, st in shard_stats[name].items():
            text += (
                f"\n  shard {sid}: routed={st['routed']:>6} "
                f"completed={st['completed']:>6} failed={st['failed']:>4} "
                f"primary={st['primary']}"
            )

    for name in SHARDS_CONTROLLERS:
        # --- The skew is real: the hottest shard is over its fair share. ---
        assert hot_fraction[name] > 1.0 / SHARDS, (
            f"{name}: hottest shard took {hot_fraction[name]:.3f} "
            f"<= fair share {1.0 / SHARDS:.3f}"
        )
        # --- Shard books balance: routed = arrivals, all accounted. ---
        for sid, st in shard_stats[name].items():
            assert st["routed"] == st["arrivals"], (name, sid, st)
            assert st["routed"] == st["completed"] + st["failed"], (name, sid, st)
        assert reports[name].completed > 0
    # --- Like-for-like: both controllers served comparable volume. ---
    d, e = reports["dcm"], reports["ec2"]
    assert d.completed > 0.8 * e.completed

    return {
        "text": text,
        "metrics": {
            "dcm.completed": float(reports["dcm"].completed),
            "ec2.completed": float(reports["ec2"].completed),
            "dcm.hot_fraction": hot_fraction["dcm"],
            "ec2.hot_fraction": hot_fraction["ec2"],
        },
    }
