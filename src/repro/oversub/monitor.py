"""Per-host usage observation windows for the capacity estimators.

The estimators need *observed* usage, but the packing simulations are
allocation-driven — nothing in the event loop evaluates the usage
profiles.  :class:`ClusterUsageMonitor` closes that gap: given the live
placements at an update instant, it reconstructs every host's demanded
cores over the trailing window from the same closed-form usage model
:mod:`repro.perfmodel` is driven by (:mod:`repro.workload.usage`), and
packages them as one :class:`~repro.oversub.estimators.HostWindows`
batch.

Demand is *unclipped* by host capacity: a host whose VMs want more
cores than it has shows a breach in its window, which is exactly the
signal the decrease-on-alert strategies and the violation accounting
need.
"""

from __future__ import annotations

import zlib
from typing import Iterable, Sequence

import numpy as np

from repro.core.spec import check_int, check_real
from repro.core.types import VMRequest
from repro.oversub.estimators import HostWindows
from repro.workload.usage import (
    InteractiveProfile,
    StressProfile,
    UsageProfile,
    diurnal_demand,
    profile_for,
)

__all__ = ["ClusterUsageMonitor", "stable_phase", "profile_for_vm"]


def stable_phase(vm_id: str) -> float:
    """Deterministic per-VM diurnal phase in [0, 1).

    CRC32 of the VM id, not ``hash()``: stable across processes and
    Python versions, so monitor-driven results are reproducible.
    """
    return zlib.crc32(vm_id.encode("utf-8")) / 2**32


def profile_for_vm(vm: VMRequest) -> UsageProfile:
    """The usage profile behind a request's ``usage_kind`` tag.

    Interactive VMs get a deterministic per-VM phase (users in
    different timezones) unless the trace pinned one in
    ``metadata["phase"]``.  Unknown kinds and out-of-range parameters
    degrade to the conservative worst case — full utilisation — rather
    than erroring: the monitor observes whatever workload it is handed.
    """
    kind = vm.usage_kind
    param = float(min(max(vm.usage_param, 0.0), 1.0))
    if kind == "interactive":
        phase = float(vm.metadata.get("phase", stable_phase(vm.vm_id)))
        if param <= 0.0:
            return StressProfile(utilization=0.0)
        return InteractiveProfile(base=param, phase=phase)
    if kind in ("idle", "stress"):
        return profile_for(kind, param)
    return StressProfile(utilization=1.0)


class ClusterUsageMonitor:
    """Samples per-host demanded-core windows at update instants.

    ``window`` is the trailing observation span in seconds and
    ``samples_per_window`` the grid resolution.  :meth:`windows` is the
    estimator-facing hot path: one broadcast
    :func:`~repro.workload.usage.diurnal_demand` over the live VMs'
    profile constants (derived once per VM, kept while it stays placed),
    accumulated into per-host rows in placement order.
    """

    def __init__(self, window: float = 1800.0, samples_per_window: int = 16):
        self.window = check_real("window", window, 0.0, open_low=True)
        self.samples_per_window = check_int("samples_per_window", samples_per_window, 1)
        # vm_id -> (request, its demand constants), live VMs only.
        self._constants: dict[str, tuple[VMRequest, tuple[float, ...]]] = {}

    def windows(
        self,
        placements: Iterable[tuple[VMRequest, int]],
        physical: Sequence[float],
        allocated: Sequence[float],
        time: float,
    ) -> HostWindows:
        """Every host's window ending at ``time``, as one batch.

        ``placements`` yields ``(request, host_index)`` for every live
        VM; ``physical``/``allocated`` are per-host core counts.  A
        VM's contribution before its arrival instant is zero (windows
        can reach back past an arrival).
        """
        samples = self.samples_per_window
        times = np.linspace(max(0.0, time - self.window), time, samples)
        if samples == 1:  # linspace would return the window's start
            times[0] = time
        demand = np.zeros((len(physical), samples))
        # Constants are reused only for the very request they were
        # derived from: a departed VM's id may come back as another VM.
        seen, live, hosts, rows = self._constants, {}, [], []
        for vm, host in placements:
            known = seen.get(vm.vm_id)
            if known is None or known[0] is not vm:
                wave = profile_for_vm(vm).wave
                known = (vm, (*wave, float(vm.spec.vcpus), vm.arrival))
            live[vm.vm_id] = known
            hosts.append(host)
            rows.append(known[1])
        self._constants = live
        if hosts:
            base, amplitude, phase, vcpus, arrival = np.array(rows).T[:, :, None]
            series = diurnal_demand(times, base, amplitude, phase) * vcpus
            # Unbuffered, in placement order: bit-identical to adding
            # each VM's series to its host's row one after the other.
            np.add.at(demand, hosts, np.where(times >= arrival, series, 0.0))
        return HostWindows(physical, allocated, demand)
