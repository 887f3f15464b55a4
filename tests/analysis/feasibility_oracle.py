"""The per-service feasibility scans, kept as the oracle of the linear lint.

:func:`repro.analysis.landscape.analyze_feasibility` counts allocations
in one pass, scans eligible hosts once per host class (minimum
performance index, memory per instance), finds each profile's peak once
and matches exclusive slots with an explicit stack.  This module is the
code it replaced, per service and recursive, for the checks whose work
changed: AG201-AG204, AG212 and AG213.  It shares with the analyzer only
:class:`Diagnostic` and the unchanged demand helpers, so a memo that
answers for the wrong service shows as a different diagnostic.
"""

from typing import Dict, List, Sequence, Set

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.landscape import _MEMORY_HEADROOM, _peak_demand, _profile_peak
from repro.config.model import LandscapeSpec, ServerSpec, ServiceSpec
from repro.sim.loadcurves import available_profiles

#: the codes :func:`feasibility` reproduces
CODES = ("AG201", "AG202", "AG203", "AG204", "AG212", "AG213")


def instances_of(landscape: LandscapeSpec, service_name: str) -> List[str]:
    return [host for svc, host in landscape.initial_allocation if svc == service_name]


def eligible_hosts(service: ServiceSpec, servers: Sequence[ServerSpec]) -> List[str]:
    return [
        server.name
        for server in servers
        if server.performance_index >= service.constraints.min_performance_index
        and server.memory_mb >= service.workload.memory_per_instance_mb
    ]


def max_matching(slots: List[List[str]]) -> Dict[int, str]:
    host_of_slot: Dict[int, str] = {}
    slot_of_host: Dict[str, int] = {}

    def augment(slot: int, visited: Set[str]) -> bool:
        for host in slots[slot]:
            if host in visited:
                continue
            visited.add(host)
            holder = slot_of_host.get(host)
            if holder is None or augment(holder, visited):
                slot_of_host[host] = slot
                host_of_slot[slot] = host
                return True
        return False

    for slot in range(len(slots)):
        augment(slot, set())
    return host_of_slot


def _instances(landscape: LandscapeSpec, service: ServiceSpec) -> int:
    allocated = len(instances_of(landscape, service.name))
    return max(service.constraints.min_instances, allocated)


def feasibility(landscape: LandscapeSpec) -> List[Diagnostic]:
    """The :data:`CODES` findings, in the analyzer's order."""
    diagnostics: List[Diagnostic] = []
    servers = landscape.servers
    known_profiles = set(available_profiles())
    peaks = {
        service.name: (
            _profile_peak(service.workload.profile)
            if service.workload.profile in known_profiles
            else 1.0
        )
        for service in landscape.services
    }

    for service in landscape.services:
        if service.constraints.min_instances <= 0:
            continue
        if not eligible_hosts(service, servers):
            diagnostics.append(
                Diagnostic(
                    code="AG202",
                    severity=Severity.ERROR,
                    message=(
                        f"no server satisfies performance index >= "
                        f"{service.constraints.min_performance_index:g} with "
                        f"{service.workload.memory_per_instance_mb} MB free "
                        f"memory; the service can never run"
                    ),
                    subject=f"service {service.name!r}",
                    service=service.name,
                )
            )

    slot_services: List[ServiceSpec] = []
    slots: List[List[str]] = []
    for service in landscape.services:
        if not service.constraints.exclusive:
            continue
        eligible = eligible_hosts(service, servers)
        for _ in range(max(service.constraints.min_instances, 0)):
            slot_services.append(service)
            slots.append(eligible)
    matching = max_matching(slots)
    if len(matching) < len(slots):
        unplaced = sorted(
            {slot_services[i].name for i in range(len(slots)) if i not in matching}
        )
        diagnostics.append(
            Diagnostic(
                code="AG201",
                severity=Severity.ERROR,
                message=(
                    f"exclusive services need {len(slots)} dedicated host(s) but "
                    f"only {len(matching)} can be matched; unplaceable: "
                    f"{', '.join(unplaced)}"
                ),
                subject="exclusive services",
                details={"required": len(slots), "matched": len(matching)},
            )
        )
    else:
        consumed = set(matching.values())
        for service in landscape.services:
            if service.constraints.exclusive or service.constraints.min_instances <= 0:
                continue
            eligible = eligible_hosts(service, servers)
            if eligible and all(host in consumed for host in eligible):
                diagnostics.append(
                    Diagnostic(
                        code="AG201",
                        severity=Severity.WARNING,
                        message=(
                            f"every eligible host "
                            f"({', '.join(sorted(eligible))}) is claimed by an "
                            f"exclusive service; placement may be impossible"
                        ),
                        subject=f"service {service.name!r}",
                        service=service.name,
                    )
                )

    supply = sum(server.performance_index for server in servers)
    demand = sum(
        service.workload.basic_load * _instances(landscape, service)
        for service in landscape.services
    ) + sum(_peak_demand(service, peaks[service.name]) for service in landscape.services)
    threshold = landscape.controller.overload_threshold
    details = {"demand": round(demand, 3), "capacity": round(supply, 3)}
    if demand > supply:
        diagnostics.append(
            Diagnostic(
                code="AG203",
                severity=Severity.ERROR,
                message=(
                    f"aggregate peak CPU demand {demand:.2f} exceeds total "
                    f"capacity {supply:.2f}; the landscape cannot sustain its "
                    f"declared peak workload"
                ),
                subject="capacity",
                details=details,
            )
        )
    elif supply > 0 and demand > threshold * supply:
        diagnostics.append(
            Diagnostic(
                code="AG203",
                severity=Severity.WARNING,
                message=(
                    f"aggregate peak CPU demand {demand:.2f} is "
                    f"{demand / supply:.0%} of total capacity {supply:.2f}, above "
                    f"the overload threshold {threshold:.0%}; expect sustained "
                    f"overload situations at peak hours"
                ),
                subject="capacity",
                details=details,
            )
        )

    total_memory = sum(server.memory_mb for server in servers)
    memory_demand = sum(
        service.workload.memory_per_instance_mb * _instances(landscape, service)
        for service in landscape.services
    )
    details = {"demand_mb": memory_demand, "total_mb": total_memory}
    if memory_demand > total_memory:
        diagnostics.append(
            Diagnostic(
                code="AG204",
                severity=Severity.ERROR,
                message=(
                    f"minimum instance counts need {memory_demand} MB but the "
                    f"landscape only has {total_memory} MB of memory"
                ),
                subject="memory",
                details=details,
            )
        )
    elif total_memory > 0 and memory_demand > _MEMORY_HEADROOM * total_memory:
        diagnostics.append(
            Diagnostic(
                code="AG204",
                severity=Severity.WARNING,
                message=(
                    f"minimum instance counts use {memory_demand} MB of "
                    f"{total_memory} MB ({memory_demand / total_memory:.0%}); "
                    f"scale-out and move actions will struggle to find memory"
                ),
                subject="memory",
                details=details,
            )
        )

    if landscape.domains:
        diagnostics.extend(_domains(landscape))
    return diagnostics


def _domains(landscape: LandscapeSpec) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    servers_by_name = {server.name: server for server in landscape.servers}
    domain_of = {
        host: domain.name for domain in landscape.domains for host in domain.servers
    }
    for service in landscape.services:
        if not service.constraints.exclusive:
            continue
        homes = sorted(
            {
                domain_of[host]
                for host in instances_of(landscape, service.name)
                if host in domain_of
            }
        )
        if len(homes) > 1:
            diagnostics.append(
                Diagnostic(
                    code="AG212",
                    severity=Severity.ERROR,
                    message=(
                        f"exclusive service initially allocated across control "
                        f"domains {', '.join(homes)}; only its home domain "
                        f"({homes[0]}) would administer the foreign replicas"
                    ),
                    subject=f"service {service.name!r}",
                    service=service.name,
                    details={"domains": homes},
                )
            )

    for service in landscape.services:
        minimum = service.constraints.min_instances
        if minimum <= 0:
            continue
        eligible = set(eligible_hosts(service, landscape.servers))
        if not eligible:
            continue
        per_instance = max(service.workload.memory_per_instance_mb, 1)
        best = 0
        for domain in landscape.domains:
            slots = 0
            for host_name in domain.servers:
                if host_name not in eligible:
                    continue
                if service.constraints.exclusive:
                    slots += 1
                else:
                    slots += servers_by_name[host_name].memory_mb // per_instance
            best = max(best, slots)
        if best < minimum:
            diagnostics.append(
                Diagnostic(
                    code="AG213",
                    severity=Severity.ERROR,
                    message=(
                        f"minInstances={minimum} cannot be satisfied within "
                        f"any single control domain (best domain fits {best} "
                        f"instance(s)); instances are administered by one "
                        f"domain and cannot be split across shards"
                    ),
                    subject=f"service {service.name!r}",
                    service=service.name,
                    details={"min_instances": minimum, "best_domain_slots": best},
                )
            )
    return diagnostics
