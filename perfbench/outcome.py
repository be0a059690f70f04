"""What one simulation run produced, and the checks it must pass.

:func:`collect` reads a finished :class:`~repro.scenario.Deployment` through
public attributes and ledgers into a plain JSON-able dict.  Everything after
that -- :func:`check`, :func:`pool`, :func:`compare_reference`,
:func:`layer_counts` -- works on those dicts alone, so a tampered outcome can
be fed to the checks directly.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, Optional

from metrics import TIERS

#: The paper's response-time SLA (seconds).
SLA_S = 1.0


def _server_row(server) -> dict:
    cpu = server.cpu
    return {
        "name": server.name,
        "tier": server.tier,
        "arrivals": server.arrivals,
        "completions": server.completions,
        "failures": server.failures,
        "inflight": server.inflight,
        "queue_s": server.queue_time_total,
        "residence_s": server.residence_time_total,
        "busy_s": cpu.nonidle_integral(),
        "jobs_s": cpu.busy_integral(),
    }


def _shard_rows(system) -> List[dict]:
    router = system.db_balancer
    if not hasattr(router, "shard_stats"):
        return []
    rows = []
    for sid, st in sorted(router.shard_stats().items()):
        shard = router.shard(sid)
        rows.append({
            "routed": st["routed"],
            "arrivals": st["arrivals"],
            "completed": st["completed"],
            "failed": st["failed"],
            "inflight": sum(s.inflight for s in shard.members() + shard.retired),
        })
    return rows


def _cache_row(system, lookups: Optional[int]) -> Optional[dict]:
    if system.cache is None:
        return None
    nodes = [
        {
            "hits": n.hits, "misses": n.misses, "insertions": n.insertions,
            "invalidations": n.invalidations, "evictions": n.evictions,
            "completions": n.completions, "inflight": n.inflight,
        }
        for n in system.cache.nodes
    ]
    return {"lookups": lookups, "nodes": nodes}


def _control_row(dep) -> dict:
    events = getattr(dep.controller, "events", ())
    kinds = [e.kind for e in events]
    vms = dep.hypervisor.vms if dep.hypervisor is not None else []
    row = {
        "scale_actions": sum(
            k.startswith("scale_") and k.endswith("_started") for k in kinds
        ),
        "soft_reallocs": kinds.count("reallocate"),
        # Bootstrapped VMs are provisioned at t = 0; boots come later.
        "vm_boots": sum(vm.provisioned_at > 0.0 for vm in vms),
        "samples": 0, "samples_dropped": 0, "broker_records": 0,
    }
    if dep.broker is not None:
        records = sum(sum(dep.broker.end_offsets(t)) for t in dep.broker.topics())
        row["broker_records"] = records
        row["samples_dropped"] = dep.broker.rejected_produces
        row["samples"] = records + dep.broker.rejected_produces
    return row


def collect(dep, lookups: Optional[int] = None) -> dict:
    """Snapshot a deployment that has run to its horizon.

    ``lookups`` is the number of cache lookups counted at the call site
    (``None`` when the system has no cache).
    """
    system = dep.system
    seq = getattr(dep.env, "_seq", None)
    if not isinstance(seq, int) or seq <= 0:
        raise RuntimeError(
            "kernel event counter Environment._seq is missing or empty; "
            "the benchmark cannot report events per request"
        )
    rts = [rt for _created, rt in system.request_log]
    seen = set()
    servers = []
    for server in list(system.all_servers()) + list(system.removed_servers):
        if id(server) not in seen:
            seen.add(id(server))
            servers.append(_server_row(server))
    billing = dep.hypervisor.billing if dep.hypervisor is not None else None
    return {
        "sim": {
            "horizon_s": dep.env.now,
            "submitted": system.submitted,
            "completed": len(rts),
            "failed": len(system.failure_log),
            "shed": len(system.shed_log),
            "inflight": system.inflight,
            "good": sum(1 for rt in rts if rt <= SLA_S),
            "vm_seconds": billing.vm_seconds() if billing is not None else 0.0,
            "rt_digest": digest(rts),
        },
        "events": seq,
        "rts": rts,
        "servers": servers,
        "shards": _shard_rows(system),
        "cache": _cache_row(system, lookups),
        "control": _control_row(dep),
    }


def digest(values) -> str:
    """sha256 over the exact reprs of ``values``."""
    text = json.dumps([repr(v) for v in values], separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- correctness -------------------------------------------------------------


def check(out: dict) -> List[str]:
    """Every broken book in ``out``; an empty list means the run is sound."""
    problems: List[str] = []
    sim = out["sim"]
    resolved = sim["completed"] + sim["failed"] + sim["shed"]
    if sim["submitted"] != resolved + sim["inflight"] or sim["inflight"] < 0:
        problems.append(
            f"request conservation: submitted={sim['submitted']} != completed="
            f"{sim['completed']} + failed={sim['failed']} + shed={sim['shed']} "
            f"+ in_flight={sim['inflight']}"
        )
    if len(out["rts"]) != sim["completed"] or digest(out["rts"]) != sim["rt_digest"]:
        problems.append("response-time log does not match the completed count")
    if any(not (rt >= 0.0 and math.isfinite(rt)) for rt in out["rts"]):
        problems.append("response-time log holds a negative or non-finite time")
    if sim["good"] != sum(1 for rt in out["rts"] if rt <= SLA_S):
        problems.append("SLA-met count does not match the response-time log")
    for row in out["servers"]:
        if (row["arrivals"] != row["completions"] + row["failures"] + row["inflight"]
                or row["inflight"] < 0):
            problems.append(
                f"server {row['name']}: arrivals={row['arrivals']} != "
                f"completions={row['completions']} + failures={row['failures']} "
                f"+ in_flight={row['inflight']}"
            )
    for sid, row in enumerate(out["shards"]):
        if row["routed"] != row["arrivals"] or (
            row["arrivals"] != row["completed"] + row["failed"] + row["inflight"]
        ):
            problems.append(
                f"shard {sid}: routed={row['routed']} arrivals={row['arrivals']} "
                f"completed={row['completed']} failed={row['failed']} "
                f"in_flight={row['inflight']} do not balance"
            )
    cache = out["cache"]
    if cache is not None:
        answered = sum(n["hits"] + n["misses"] for n in cache["nodes"])
        pending = sum(n["inflight"] for n in cache["nodes"])
        lookups = cache["lookups"]
        if lookups is None or not answered <= lookups <= answered + pending:
            problems.append(
                f"cache: hits + misses = {answered} does not account for "
                f"{lookups} lookups ({pending} cache operations in flight)"
            )
        for i, n in enumerate(cache["nodes"]):
            ops = n["hits"] + n["misses"] + n["insertions"] + n["invalidations"]
            if ops > n["completions"]:
                problems.append(
                    f"cache node {i}: {ops} booked operations exceed "
                    f"{n['completions']} completed"
                )
    return problems


# -- pooled statistics ----------------------------------------------------------


def percentile(sorted_values: List[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def pool(outcomes: List[dict]) -> Dict[str, float]:
    """The ``sim.*`` statistics of several runs taken together."""
    rts = sorted(rt for out in outcomes for rt in out["rts"])
    sims = [out["sim"] for out in outcomes]
    total = {k: sum(s[k] for s in sims)
             for k in ("submitted", "completed", "failed", "shed", "good",
                       "horizon_s", "vm_seconds")}
    resolved = total["completed"] + total["failed"] + total["shed"]
    if not rts or not resolved:
        raise RuntimeError("no simulated request completed")
    return {
        "completed": total["completed"],
        "goodput_rps": total["good"] / total["horizon_s"],
        "rt_p50_ms": percentile(rts, 50.0) * 1e3,
        "rt_p99_ms": percentile(rts, 99.0) * 1e3,
        "rt_samples": len(rts),
        "sla_violation_pct": 100.0 * (resolved - total["good"]) / resolved,
        "fail_pct": 100.0 * (total["failed"] + total["shed"]) / total["submitted"],
        "vm_seconds": total["vm_seconds"] / len(sims),
    }


def compare_reference(stats: Dict[str, float], ref: Dict[str, float],
                      tolerance: Dict[str, float]) -> List[str]:
    """Pooled statistics that stray from the recorded reference.

    ``tolerance`` maps a statistic to its allowed absolute deviation; a
    statistic without one must match exactly.
    """
    problems = []
    for key, want in sorted(ref.items()):
        got = stats[key]
        tol = tolerance.get(key, 0.0)
        if abs(got - want) > tol:
            problems.append(
                f"sim.{key} = {got!r} strays from the reference {want!r} "
                f"by more than {tol!r}"
            )
    return problems


# -- per-layer counts -------------------------------------------------------------


def layer_counts(out: dict) -> Dict[str, float]:
    """Per-layer counts of one run (simulated quantities only)."""
    sim = out["sim"]
    horizon = sim["horizon_s"]
    m: Dict[str, float] = {}
    interactions = 0
    for tier in TIERS:
        rows = [r for r in out["servers"] if r["tier"] == tier]
        arrivals = sum(r["arrivals"] for r in rows)
        done = sum(r["completions"] for r in rows)
        interactions += arrivals
        m[f"tier.{tier}.arrivals"] = arrivals
        m[f"tier.{tier}.failures"] = sum(r["failures"] for r in rows)
        m[f"tier.{tier}.queue_ms_mean"] = (
            1e3 * sum(r["queue_s"] for r in rows) / done if done else 0.0)
        m[f"tier.{tier}.residence_ms_mean"] = (
            1e3 * sum(r["residence_s"] for r in rows) / done if done else 0.0)
        m[f"cpu.{tier}.busy_s"] = sum(r["busy_s"] for r in rows)
        m[f"cpu.{tier}.mean_jobs"] = sum(r["jobs_s"] for r in rows) / horizon
    m["interactions_per_req"] = interactions / max(1, sim["submitted"])
    routed = [r["routed"] for r in out["shards"]]
    m["shard.routed"] = sum(routed)
    m["shard.hot_fraction"] = max(routed) / sum(routed) if sum(routed) else 0.0
    cache = out["cache"]
    nodes = cache["nodes"] if cache is not None else []
    hits = sum(n["hits"] for n in nodes)
    looked = hits + sum(n["misses"] for n in nodes)
    m["cache.lookups"] = (cache["lookups"] or 0) if cache is not None else 0
    m["cache.hit_ratio"] = hits / looked if looked else 0.0
    m["cache.evictions"] = sum(n["evictions"] for n in nodes)
    m["cache.invalidations"] = sum(n["invalidations"] for n in nodes)
    m["workload.submitted"] = sim["submitted"]
    ctl = out["control"]
    m["monitor.samples"] = ctl["samples"]
    m["monitor.samples_dropped"] = ctl["samples_dropped"]
    m["broker.records"] = ctl["broker_records"]
    m["control.scale_actions"] = ctl["scale_actions"]
    m["control.soft_reallocs"] = ctl["soft_reallocs"]
    m["cluster.vm_boots"] = ctl["vm_boots"]
    m["sim.events"] = out["events"]
    m["sim.events_per_req"] = out["events"] / max(1, sim["completed"])
    return m
