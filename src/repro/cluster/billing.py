"""VM-time accounting — the resource-efficiency side of the evaluation.

The paper's abstract claims DCM achieves "higher resource efficiency" than
hardware-only scaling; the billing meter quantifies that as accumulated
VM-seconds (and dollar cost at an hourly rate) so the Fig 5 benchmark can
report efficiency alongside stability.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.check import config as _checks
from repro.cluster.vm import VirtualMachine
from repro.errors import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class BillingMeter:
    """Accumulates per-VM running time (from RUNNING to TERMINATED)."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._started: Dict[int, Tuple[VirtualMachine, float]] = {}
        self._closed: List[Tuple[VirtualMachine, float, float]] = []

    # -- lifecycle hooks (called by the hypervisor) ----------------------------------
    def vm_started(self, vm: VirtualMachine) -> None:
        """Begin metering ``vm`` (it just entered RUNNING)."""
        if _checks.enabled():
            if vm.vm_id in self._started:
                raise InvariantViolation(
                    "cluster.billing", "vm-seconds-integral", self.env.now,
                    f"{vm.name} metered twice without an intervening stop",
                )
            if not vm.is_running:
                raise InvariantViolation(
                    "cluster.billing", "vm-lifecycle", self.env.now,
                    f"metering started while {vm.name} is {vm.state.value}",
                )
        self._started[vm.vm_id] = (vm, self.env.now)

    def vm_stopped(self, vm: VirtualMachine) -> None:
        """Stop metering ``vm`` (it terminated).  Unknown VMs are ignored —
        a VM killed before ever running was never billed."""
        entry = self._started.pop(vm.vm_id, None)
        if entry is not None:
            if _checks.enabled() and self.env.now < entry[1]:
                raise InvariantViolation(
                    "cluster.billing", "vm-seconds-integral", self.env.now,
                    f"{vm.name} interval would close before it opened "
                    f"(start={entry[1]})",
                )
            self._closed.append((vm, entry[1], self.env.now))

    # -- queries -------------------------------------------------------------------
    def vm_seconds(self, until: Optional[float] = None) -> float:
        """Total VM-seconds accumulated (open intervals counted to ``until``,
        default the current simulation time)."""
        now = self.env.now if until is None else until
        total = sum(end - start for _vm, start, end in self._closed)
        total += sum(max(0.0, now - start) for _vm, start in self._started.values())
        return total

    def cost(self, rate_per_hour: float, until: Optional[float] = None) -> float:
        """Dollar cost at ``rate_per_hour`` per VM."""
        return self.vm_seconds(until) / 3600.0 * rate_per_hour

    def intervals(self) -> List[Tuple[str, float, Optional[float]]]:
        """``(vm name, start, end)`` for every billed interval (open ones
        have ``end = None``)."""
        rows: List[Tuple[str, float, Optional[float]]] = [
            (vm.name, start, end) for vm, start, end in self._closed
        ]
        rows.extend((vm.name, start, None) for vm, start in self._started.values())
        return sorted(rows, key=lambda r: r[1])
