"""The hypervisor API used by the VM-agent.

"In a cloud computing environment, starting or turning off VMs is easy by
just remotely calling the corresponding APIs of the underlying hypervisor"
(Section IV-A) — this is that API.  :meth:`Hypervisor.provision` places a VM
on a host (first fit), walks it through PROVISIONING → BOOTING → RUNNING
with the paper's 15-second preparation period, and returns an event that
fires when the VM is in service mode.  :meth:`Hypervisor.terminate` releases
it and closes its billing interval.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.check import config as _checks
from repro.check.sanitizer import audit_billing, audit_vm
from repro.cluster.billing import BillingMeter
from repro.cluster.host import PhysicalHost
from repro.cluster.vm import SMALL, VirtualMachine, VMProfile, VMState
from repro.errors import CapacityError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

#: The paper's VM preparation period (seconds) before service mode.
DEFAULT_PREPARATION_PERIOD = 15.0


class Hypervisor:
    """Manages hosts, VM placement, boot sequencing, and billing.

    Parameters
    ----------
    env:
        Simulation environment.
    hosts:
        The physical capacity pool.  Defaults to four paper-profile hosts
        (plenty for the paper's 1–3 servers per tier).
    preparation_period:
        Seconds between a provision call and the VM entering service.
    """

    def __init__(
        self,
        env: "Environment",
        hosts: Optional[List[PhysicalHost]] = None,
        preparation_period: float = DEFAULT_PREPARATION_PERIOD,
    ) -> None:
        self.env = env
        self.hosts = hosts if hosts is not None else [
            PhysicalHost(f"esxi-{i}") for i in range(1, 5)
        ]
        self.preparation_period = preparation_period
        self.billing = BillingMeter(env)
        self._vms: List[VirtualMachine] = []

    # -- inventory ---------------------------------------------------------------
    @property
    def vms(self) -> List[VirtualMachine]:
        """All VMs ever provisioned (inspect ``state`` to filter)."""
        return list(self._vms)

    def running_vms(self) -> List[VirtualMachine]:
        """VMs currently in RUNNING or DRAINING state."""
        return [vm for vm in self._vms if vm.is_running]

    # -- provisioning -------------------------------------------------------------
    def provision(
        self,
        name: str,
        profile: VMProfile = SMALL,
        preparation_period: Optional[float] = None,
    ) -> tuple[VirtualMachine, Event]:
        """Start a new VM; returns ``(vm, ready_event)``.

        ``ready_event`` fires (with the VM) once the preparation period has
        elapsed and the VM is RUNNING.  Raises :class:`CapacityError` when no
        host fits the profile.
        """
        vm = VirtualMachine(name, profile)
        host = next((h for h in self.hosts if h.fits(vm)), None)
        if host is None:
            raise CapacityError(f"no host can fit {name} ({profile.name})")
        host.place(vm)
        vm.provisioned_at = self.env.now
        self._vms.append(vm)
        ready = Event(self.env)
        self.env.process(self._boot(vm, ready, preparation_period))
        return vm, ready

    def _boot(self, vm: VirtualMachine, ready: Event, prep: Optional[float]):
        vm.transition(VMState.BOOTING)
        yield self.env.timeout(self.preparation_period if prep is None else prep)
        if vm.state is VMState.TERMINATED:  # killed mid-boot
            ready.fail(CapacityError(f"{vm.name} terminated during boot"))
            return
        vm.transition(VMState.RUNNING)
        vm.running_at = self.env.now
        self.billing.vm_started(vm)
        ready.succeed(vm)

    # -- teardown ------------------------------------------------------------------
    def terminate(self, vm: VirtualMachine) -> None:
        """Stop ``vm`` immediately, releasing capacity and closing billing."""
        if vm.state is VMState.TERMINATED:
            return
        vm.transition(VMState.TERMINATED)
        vm.terminated_at = self.env.now
        self.billing.vm_stopped(vm)
        if vm.host is not None:
            vm.host.unplace(vm)
        if _checks.enabled():
            audit_vm(vm, self.env.now)
            audit_billing(self)

    # -- capacity queries ------------------------------------------------------------
    def total_capacity(self) -> dict:
        """Aggregate vCPU/RAM capacity and usage across hosts."""
        return {
            "vcpus": sum(h.vcpus for h in self.hosts),
            "vcpus_used": sum(h.vcpus_used for h in self.hosts),
            "ram_gb": sum(h.ram_gb for h in self.hosts),
            "ram_used": sum(h.ram_used for h in self.hosts),
        }
