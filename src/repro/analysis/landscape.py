"""Feasibility analysis of landscape descriptions.

Goes beyond :func:`repro.config.validation.validate_landscape` (which
checks the *initial* allocation): these checks ask whether the declared
constraint system can be satisfied — and kept satisfied by the
controller — at all:

* **AG201** exclusive services each need a dedicated host meeting their
  performance and memory requirements; a maximum bipartite matching
  decides whether enough distinct hosts exist (and warns when the
  exclusive placement necessarily crowds out non-exclusive services);
* **AG202** a minimum performance index no server reaches means the
  service can never run anywhere;
* **AG203** aggregate peak CPU demand (basic loads plus user demand at
  the profiles' peaks, including central-instance and database
  forwarding costs) against the total performance-index capacity;
* **AG204** aggregate memory demand of the minimum instance counts
  against total memory;
* **AG205** a positive ``minInstances`` with a non-empty allowed-action
  set lacking both ``start`` and ``scaleOut`` cannot be re-established
  by the controller once an instance stops;
* **AG208** workload profiles must be registered load curves;
* **AG210-AG213** declared control domains must reference known servers,
  administer at least one server, keep an exclusive service's initial
  allocation inside its home domain, and leave at least one domain whose
  eligible hosts can satisfy each service's ``minInstances`` (services
  are administered by exactly one domain, so capacity in *other* domains
  does not help).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.config.model import Action, LandscapeSpec, ServerSpec, ServiceSpec
from repro.sim.loadcurves import available_profiles, profile_value

__all__ = ["analyze_feasibility"]

#: Fraction of total memory above which AG204 warns even though the
#: demand still fits: no headroom is left for scale-out.
_MEMORY_HEADROOM = 0.90

#: Minutes between samples when locating a profile's daily peak.
_PEAK_SAMPLE_STEP = 15


#: What decides a service's eligible hosts: its minimum performance index
#: and its per-instance memory.  Services of one class share one scan.
_HostClass = Tuple[float, int]


def _host_class(service: ServiceSpec) -> _HostClass:
    return (
        service.constraints.min_performance_index,
        service.workload.memory_per_instance_mb,
    )


def _eligible_hosts(
    service: ServiceSpec,
    servers: Sequence[ServerSpec],
    by_class: Dict[_HostClass, List[str]],
) -> List[str]:
    """Hosts a service may run on, scanned once per host class."""
    key = _host_class(service)
    hosts = by_class.get(key)
    if hosts is None:
        min_index, memory = key
        hosts = by_class[key] = [
            server.name
            for server in servers
            if server.performance_index >= min_index and server.memory_mb >= memory
        ]
    return hosts


def _max_matching(slots: List[List[str]], hosts: List[str]) -> Dict[int, str]:
    """Maximum bipartite matching of instance slots onto distinct hosts.

    Kuhn's augmenting paths, searched depth first with an explicit stack:
    on a large landscape a path can hold more slots than Python's
    recursion limit allows frames.  Slots of one host class share one
    candidate list, and within one search a frame skips the prefix of
    that list the search has already visited whole; the hosts tried, and
    so the matching, are those of the plain search.
    """
    host_of_slot: Dict[int, str] = {}
    slot_of_host: Dict[str, int] = {}

    for start in range(len(slots)):
        visited: Set[str] = set()
        visited_prefix: Dict[int, int] = {}  # id(candidate list) -> length
        # one frame per slot on the path: [slot, next candidate, host tried]
        path: List[List[Any]] = [[start, 0, None]]
        while path:
            frame = path[-1]
            candidates = slots[frame[0]]
            index = max(frame[1], visited_prefix.get(id(candidates), 0))
            while index < len(candidates) and candidates[index] in visited:
                index += 1
            if index == len(candidates):
                path.pop()  # no augmenting path through this slot
                continue
            host = candidates[index]
            visited.add(host)
            frame[1] = visited_prefix[id(candidates)] = index + 1
            frame[2] = host
            holder = slot_of_host.get(host)
            if holder is not None:
                path.append([holder, 0, None])
                continue
            for slot, __, tried in reversed(path):
                slot_of_host[tried] = slot
                host_of_slot[slot] = tried
            break
    return host_of_slot


def _profile_peak(name: str) -> float:
    return max(
        profile_value(name, minute) for minute in range(0, 24 * 60, _PEAK_SAMPLE_STEP)
    )


def _instances(service: ServiceSpec, hosts_of: Dict[str, List[str]]) -> int:
    allocated = len(hosts_of.get(service.name, ()))
    return max(service.constraints.min_instances, allocated)


def _peak_demand(service: ServiceSpec, peak: float) -> float:
    """Peak CPU demand of one service in performance-index units."""
    workload = service.workload
    per_user = workload.load_per_user + workload.ci_cost_per_user + workload.db_cost_per_user
    return workload.users * per_user * peak


def analyze_feasibility(landscape: LandscapeSpec) -> List[Diagnostic]:
    """Run every feasibility check; returns diagnostics, raises nothing."""
    diagnostics: List[Diagnostic] = []
    servers = landscape.servers
    known_profiles = set(available_profiles())
    hosts_of = landscape.instance_hosts()
    eligible_by_class: Dict[_HostClass, List[str]] = {}

    # -- AG208 + per-service profile peaks ---------------------------------
    peaks: Dict[str, float] = {}
    profile_peaks: Dict[str, float] = {}
    for service in landscape.services:
        profile = service.workload.profile
        if profile not in known_profiles:
            diagnostics.append(
                Diagnostic(
                    code="AG208",
                    severity=Severity.ERROR,
                    message=(
                        f"unknown load profile {profile!r}; registered profiles: "
                        f"{', '.join(sorted(known_profiles))}"
                    ),
                    subject=f"service {service.name!r}",
                    service=service.name,
                )
            )
            peaks[service.name] = 1.0
        else:
            if profile not in profile_peaks:
                profile_peaks[profile] = _profile_peak(profile)
            peaks[service.name] = profile_peaks[profile]

    # -- AG202: minimum performance index unsatisfiable --------------------
    for service in landscape.services:
        if service.constraints.min_instances <= 0:
            continue
        if not _eligible_hosts(service, servers, eligible_by_class):
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

    # -- AG201: exclusive placement matching -------------------------------
    slot_services: List[ServiceSpec] = []
    slots: List[List[str]] = []
    for service in landscape.services:
        if not service.constraints.exclusive:
            continue
        eligible = _eligible_hosts(service, servers, eligible_by_class)
        for _ in range(max(service.constraints.min_instances, 0)):
            slot_services.append(service)
            slots.append(eligible)
    matching = _max_matching(slots, [s.name for s in servers])
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
        crowded_out: Dict[_HostClass, bool] = {}
        for service in landscape.services:
            if service.constraints.exclusive or service.constraints.min_instances <= 0:
                continue
            eligible = _eligible_hosts(service, servers, eligible_by_class)
            key = _host_class(service)
            if key not in crowded_out:
                crowded_out[key] = bool(eligible) and all(
                    host in consumed for host in eligible
                )
            if crowded_out[key]:
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

    # -- AG203: aggregate peak CPU demand vs capacity ----------------------
    supply = sum(server.performance_index for server in servers)
    basic = sum(
        service.workload.basic_load * _instances(service, hosts_of)
        for service in landscape.services
    )
    user_demand = sum(
        _peak_demand(service, peaks[service.name]) for service in landscape.services
    )
    demand = basic + user_demand
    threshold = landscape.controller.overload_threshold
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
                details={"demand": round(demand, 3), "capacity": round(supply, 3)},
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
                details={"demand": round(demand, 3), "capacity": round(supply, 3)},
            )
        )

    # -- AG204: aggregate memory demand vs total memory --------------------
    total_memory = sum(server.memory_mb for server in servers)
    memory_demand = sum(
        service.workload.memory_per_instance_mb * _instances(service, hosts_of)
        for service in landscape.services
    )
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
                details={"demand_mb": memory_demand, "total_mb": total_memory},
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
                details={"demand_mb": memory_demand, "total_mb": total_memory},
            )
        )

    # -- AG205: min-instances unenforceable under allowed actions ----------
    for service in landscape.services:
        constraints = service.constraints
        if not constraints.allowed_actions or constraints.min_instances <= 0:
            continue
        if (
            Action.START not in constraints.allowed_actions
            and Action.SCALE_OUT not in constraints.allowed_actions
        ):
            diagnostics.append(
                Diagnostic(
                    code="AG205",
                    severity=Severity.WARNING,
                    message=(
                        f"minInstances={constraints.min_instances} but neither "
                        f"{Action.START.value!r} nor {Action.SCALE_OUT.value!r} "
                        f"is allowed; the controller cannot restore the minimum "
                        f"after an instance stops"
                    ),
                    subject=f"service {service.name!r}",
                    service=service.name,
                )
            )

    # -- AG210-AG213: control-domain feasibility ---------------------------
    if landscape.domains:
        diagnostics.extend(_analyze_domains(landscape, hosts_of, eligible_by_class))
    return diagnostics


def _analyze_domains(
    landscape: LandscapeSpec,
    hosts_of: Dict[str, List[str]],
    eligible_by_class: Dict[_HostClass, List[str]],
) -> List[Diagnostic]:
    """Domain-specific checks, run only when domains are declared."""
    diagnostics: List[Diagnostic] = []
    server_names = {server.name for server in landscape.servers}
    servers_by_name = {server.name: server for server in landscape.servers}
    for domain in landscape.domains:
        for host_name in domain.servers:
            if host_name not in server_names:
                diagnostics.append(
                    Diagnostic(
                        code="AG210",
                        severity=Severity.ERROR,
                        message=(
                            f"control domain {domain.name!r} references "
                            f"unknown server {host_name!r}"
                        ),
                        subject=f"domain {domain.name!r}",
                        details={"server": host_name},
                    )
                )
        if not domain.servers:
            diagnostics.append(
                Diagnostic(
                    code="AG211",
                    severity=Severity.WARNING,
                    message=(
                        f"control domain {domain.name!r} administers no "
                        f"servers; its controller can never act"
                    ),
                    subject=f"domain {domain.name!r}",
                )
            )
    domain_of = {
        host: domain.name
        for domain in landscape.domains
        for host in domain.servers
    }

    # AG212: an exclusive service is administered by its home domain only;
    # initial instances in other domains escape its exclusivity enforcement
    for service in landscape.services:
        if not service.constraints.exclusive:
            continue
        homes = sorted(
            {
                domain_of[host]
                for host in hosts_of.get(service.name, ())
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

    # AG213: minInstances must fit inside at least one single domain; the
    # best domain depends only on the host class and on exclusivity
    best_slots: Dict[Tuple[_HostClass, bool], int] = {}
    for service in landscape.services:
        minimum = service.constraints.min_instances
        if minimum <= 0:
            continue
        eligible = _eligible_hosts(service, landscape.servers, eligible_by_class)
        if not eligible:
            continue  # AG202 already flags the hopeless case
        key = (_host_class(service), service.constraints.exclusive)
        if key not in best_slots:
            best_slots[key] = _best_domain_slots(
                landscape, servers_by_name, set(eligible), service
            )
        best = best_slots[key]
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


def _best_domain_slots(
    landscape: LandscapeSpec,
    servers_by_name: Dict[str, ServerSpec],
    eligible: Set[str],
    service: ServiceSpec,
) -> int:
    """Most instances of ``service`` any single declared domain can hold."""
    per_instance = max(service.workload.memory_per_instance_mb, 1)
    best = 0
    for domain in landscape.domains:
        slots = 0
        for host_name in domain.servers:
            if host_name not in eligible:
                continue
            if service.constraints.exclusive:
                slots += 1  # exclusive instances need distinct hosts
            else:
                slots += servers_by_name[host_name].memory_mb // per_instance
        best = max(best, slots)
    return best
