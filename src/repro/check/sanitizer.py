"""Runtime invariant audits for the simulated system.

The cheap per-operation checks live inline in the hot paths (``sim.core``,
``sim.resources``, ``ntier.server``, ``cluster``, ``runner.engine``), guarded
by :func:`repro.check.config.enabled`.  This module holds the *whole-object*
audits those hooks and the tests share: given a live component, verify its
books balance and raise :class:`repro.errors.InvariantViolation` when they
do not.

Invariant catalogue
-------------------
``monotonic-clock``          the event heap never pops a past timestamp
``occupancy-within-capacity``  a pool never grants beyond its capacity
``acquire-release-pairing``  grants - releases == slots in use, never < 0
``foreign-handle-release``   a handle is returned to the pool that issued it
``request-conservation``     arrived == completed + dropped + in-flight
``vm-lifecycle``             VM timestamps respect the state machine
``vm-seconds-integral``      billed VM-seconds == integral of RUNNING time
``payload-json-roundtrip``   cache-key payloads survive JSON encode/decode

Everything here is duck-typed against the public attributes of the audited
components so the module imports nothing from ``sim``/``ntier``/``cluster``
and can be loaded before any of them.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Optional

from repro.errors import InvariantViolation

__all__ = [
    "audit_resource",
    "audit_server",
    "audit_vm",
    "audit_billing",
    "verify_payload_roundtrip",
]

#: Float slack for integral comparisons (sums of float intervals).
TOLERANCE = 1e-6


def audit_resource(resource: Any, component: Optional[str] = None) -> None:
    """Verify a :class:`repro.sim.resources.Resource`'s slot accounting.

    Checks the grant/release ledger and that no queued acquisition has
    already been granted.  (Occupancy-within-capacity is asserted inline at
    grant time; after a live shrink ``in_use`` may legitimately exceed
    ``capacity`` until holders release, so it is not re-checked here.)
    """
    name = component or f"resource:{resource.name or f'{id(resource):#x}'}"
    now = resource.env.now
    in_use = resource.in_use
    if in_use < 0:
        raise InvariantViolation(
            name, "acquire-release-pairing", now,
            f"in_use={in_use} is negative",
        )
    granted = resource.grants_total
    released = resource.releases_total
    if granted - released != in_use:
        raise InvariantViolation(
            name, "acquire-release-pairing", now,
            f"grants={granted} releases={released} but in_use={in_use}",
        )
    if any(req.granted for req in resource._queue):
        raise InvariantViolation(
            name, "acquire-release-pairing", now,
            "a granted acquisition is still sitting in the wait queue",
        )


def audit_server(server: Any) -> None:
    """Verify a :class:`repro.ntier.server.TierServer`'s request ledger.

    ``arrivals == completions + failures + in-flight`` where the in-flight
    count is tracked independently of the cumulative counters, so a
    double-counted completion or a lost request is caught even though
    ``outstanding`` is itself derived from the counters.
    """
    now = server.env.now
    for counter in ("arrivals", "completions", "failures"):
        value = getattr(server, counter)
        if value < 0:
            raise InvariantViolation(
                server.name, "request-conservation", now,
                f"{counter}={value} is negative",
            )
    inflight = server.inflight
    if inflight < 0:
        raise InvariantViolation(
            server.name, "request-conservation", now,
            f"in-flight tracker is negative ({inflight})",
        )
    expected = server.completions + server.failures + inflight
    if server.arrivals != expected:
        raise InvariantViolation(
            server.name, "request-conservation", now,
            f"arrived={server.arrivals} != completed={server.completions} "
            f"+ dropped={server.failures} + in_flight={inflight}",
        )


def audit_vm(vm: Any, now: Optional[float] = None) -> None:
    """Verify a VM's timestamps are consistent with its lifecycle state."""
    stamps = [
        ("provisioned_at", vm.provisioned_at),
        ("running_at", vm.running_at),
        ("terminated_at", vm.terminated_at),
    ]
    previous_name, previous = None, None
    for stamp_name, stamp in stamps:
        if stamp is None:
            continue
        if previous is not None and stamp < previous:
            raise InvariantViolation(
                f"vm:{vm.name}", "vm-lifecycle", now,
                f"{stamp_name}={stamp} precedes {previous_name}={previous}",
            )
        previous_name, previous = stamp_name, stamp
    state = vm.state.value
    if state == "terminated" and vm.terminated_at is None:
        raise InvariantViolation(
            f"vm:{vm.name}", "vm-lifecycle", now,
            "TERMINATED without a termination timestamp",
        )
    if state in ("running", "draining") and vm.running_at is None:
        raise InvariantViolation(
            f"vm:{vm.name}", "vm-lifecycle", now,
            f"{state.upper()} without a running timestamp",
        )


def audit_billing(hypervisor: Any) -> None:
    """Verify billed VM-seconds equal the integral of RUNNING time.

    Recomputes the expected total from every VM's lifecycle timestamps
    (open intervals counted to the current simulated time) and compares it
    against what the :class:`repro.cluster.billing.BillingMeter` accrued.
    """
    now = hypervisor.env.now
    expected = 0.0
    for vm in hypervisor.vms:
        audit_vm(vm, now)
        if vm.running_at is None:
            continue
        end = vm.terminated_at if vm.terminated_at is not None else now
        expected += max(0.0, end - vm.running_at)
    actual = hypervisor.billing.vm_seconds()
    if not math.isclose(actual, expected, rel_tol=TOLERANCE, abs_tol=TOLERANCE):
        raise InvariantViolation(
            "cluster.billing", "vm-seconds-integral", now,
            f"metered={actual!r} but lifecycle integral is {expected!r}",
        )


def verify_payload_roundtrip(payload: Dict[str, Any], text: str) -> None:
    """Verify a cache-key payload survives its canonical JSON encoding.

    ``text`` is the canonical JSON the cache key was derived from.  If
    decoding it does not reproduce ``payload`` exactly (tuples, NaNs, and
    non-string keys all silently change shape), the cache key no longer
    identifies what actually ran.
    """
    try:
        decoded = json.loads(text)
    except ValueError as err:
        raise InvariantViolation(
            "runner.engine", "payload-json-roundtrip", None,
            f"canonical payload JSON does not parse: {err}",
        ) from None
    if decoded != payload:
        raise InvariantViolation(
            "runner.engine", "payload-json-roundtrip", None,
            "payload changes shape through JSON (tuples, NaN, or non-string "
            f"keys?): {payload!r}",
        )
