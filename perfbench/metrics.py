"""Names, units and directions of every metric the benchmark reports.

``END_TO_END`` is printed by an untraced run (``--trace 0``) and
``PER_LAYER`` by a traced one (``--trace 1``).  ``BENCHMARK.json`` at the
repository root lists the same names; the benchmark's tests keep the two in
step.

Host metrics measure the simulator itself: wall-clock seconds on the machine
running it, converted to nominal seconds by :mod:`hostspeed` (the raw figures
are ``host.raw_req_per_s`` and ``host.speed``).  ``sim.*`` metrics measure
the modelled n-tier system in simulated time; they are deterministic for a
given seed.
"""

from __future__ import annotations

import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: name -> (unit, better)
END_TO_END = {
    "req_per_host_s": ("req/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim.goodput_rps": ("req/s", "higher"),
    "sim.rt_p50_ms": ("ms", "lower"),
    "sim.rt_p99_ms": ("ms", "lower"),
}

TIERS = ("web", "app", "db", "cache")

#: Layers the traced run folds profiler self time into, in report order.
LAYERS = (
    "sim.core", "sim.events", "sim.resources", "heapq", "sim.processor",
    "ntier.servers", "ntier.balancer", "ntier.cache", "workload", "monitor",
    "broker", "control", "other",
)


def _per_layer() -> dict:
    out = {
        "sim.events": ("count", "lower"),
        "sim.events_per_req": ("events/req", "lower"),
        "sim.rt_samples": ("count", "higher"),
        "sim.sla_violation_pct": ("%", "lower"),
        "sim.fail_pct": ("%", "lower"),
        "sim.vm_seconds": ("VM-s", "lower"),
        "host.raw_req_per_s": ("req/s", "higher"),
        "host.speed": ("iter/s", "higher"),
        "host.ns_per_event": ("ns", "lower"),
        "host.trace_overhead_x": ("x", "lower"),
        "setup.import_s": ("s", "lower"),
        "setup.build_s": ("s", "lower"),
    }
    for layer in LAYERS:
        out[f"host.{layer}.self_pct"] = ("%", "lower")
    for tier in TIERS:
        out[f"tier.{tier}.arrivals"] = ("count", "lower")
        out[f"tier.{tier}.failures"] = ("count", "lower")
        out[f"tier.{tier}.queue_ms_mean"] = ("ms", "lower")
        out[f"tier.{tier}.residence_ms_mean"] = ("ms", "lower")
        out[f"cpu.{tier}.busy_s"] = ("s", "lower")
        out[f"cpu.{tier}.mean_jobs"] = ("jobs", "lower")
    out.update({
        "interactions_per_req": ("count/req", "lower"),
        "shard.routed": ("count", "lower"),
        "shard.hot_fraction": ("ratio", "lower"),
        "cache.lookups": ("count", "lower"),
        "cache.hit_ratio": ("ratio", "higher"),
        "cache.evictions": ("count", "lower"),
        "cache.invalidations": ("count", "lower"),
        "workload.submitted": ("count", "higher"),
        "monitor.samples": ("count", "lower"),
        "monitor.samples_dropped": ("count", "lower"),
        "monitor.drain_calls": ("count", "lower"),
        "monitor.drain_host_ms": ("ms", "lower"),
        "broker.records": ("count", "lower"),
        "control.period_calls": ("count", "lower"),
        "control.period_host_ms": ("ms", "lower"),
        "control.plan_calls": ("count", "lower"),
        "control.plan_host_ms": ("ms", "lower"),
        "control.scale_actions": ("count", "lower"),
        "control.soft_reallocs": ("count", "lower"),
        "model.refit_calls": ("count", "lower"),
        "model.refit_host_ms": ("ms", "lower"),
        "cluster.vm_boots": ("count", "lower"),
    })
    return out


PER_LAYER = _per_layer()
