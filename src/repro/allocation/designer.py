"""The landscape designer: statically optimized initial allocation.

"We plan to develop a landscape designer tool.  This tool calculates a
statically optimized pre-assignment of all services to improve the
dynamic optimization potential of the fuzzy controller."  (Section 7)

The designer works on predicted per-instance daily demand curves (from
the services' workload parameters and load profiles) and assigns
instances to hosts so that the worst per-host daily peak load is
minimized, subject to the declarative constraints (minimum performance
index, exclusivity, memory).  Greedy placement of the largest demands
first is followed by a best-improvement local search (single relocations
and pairwise swaps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config.model import LandscapeSpec, ServerSpec, ServiceKind, ServiceSpec
from repro.sim.clock import MINUTES_PER_DAY
from repro.sim.loadcurves import profile_array

__all__ = ["DesignedAllocation", "LandscapeDesigner"]


@dataclass
class DesignedAllocation:
    """Result of a designer run."""

    assignment: List[Tuple[str, str]]  # (service, host) per instance
    predicted_peak_load: float
    predicted_peak_by_host: Dict[str, float]

    def as_landscape(self, base: LandscapeSpec) -> LandscapeSpec:
        """The base landscape with the designed initial allocation."""
        return LandscapeSpec(
            name=f"{base.name}-designed",
            servers=list(base.servers),
            services=list(base.services),
            initial_allocation=list(self.assignment),
            controller=base.controller,
        )


class _Placement:
    """Mutable working state: per-host demand curves and memory."""

    def __init__(self, servers: List[ServerSpec]) -> None:
        self.servers = {s.name: s for s in servers}
        self.demand: Dict[str, np.ndarray] = {
            s.name: np.zeros(MINUTES_PER_DAY) for s in servers
        }
        self.memory_used: Dict[str, int] = {s.name: 0 for s in servers}
        self.services_on: Dict[str, List[str]] = {s.name: [] for s in servers}

    def peak_load(self, host_name: str) -> float:
        server = self.servers[host_name]
        return float(self.demand[host_name].max()) / server.performance_index

    def worst_peak(self) -> float:
        return max(self.peak_load(name) for name in self.servers)

    def peak_by_host(self) -> Dict[str, float]:
        return {name: self.peak_load(name) for name in self.servers}


class LandscapeDesigner:
    """Computes a statically optimized initial allocation."""

    def __init__(self, landscape: LandscapeSpec) -> None:
        self.landscape = landscape
        #: the search looks services up per host tried: one index, built once
        self._services: Dict[str, ServiceSpec] = {s.name: s for s in landscape.services}
        self._initial_counts: Dict[str, int] = {
            name: len(hosts) for name, hosts in landscape.instance_hosts().items()
        }
        self._curves: Dict[str, np.ndarray] = {}

    # -- demand prediction -----------------------------------------------------------

    def instance_curve(self, service: ServiceSpec, instance_count: int) -> np.ndarray:
        """Predicted daily demand curve of ONE instance of a service.

        Interactive demand is split evenly over the planned instances;
        derived services (CI/DB) are approximated via the request-path
        costs of their subsystem's application services.
        """
        key = f"{service.name}/{instance_count}"
        cached = self._curves.get(key)
        if cached is not None:
            return cached
        workload = service.workload
        if service.kind is ServiceKind.APPLICATION_SERVER:
            per_instance_users = workload.users / max(instance_count, 1)
            curve = workload.basic_load + (
                per_instance_users * workload.load_per_user * profile_array(
                    workload.profile
                )
            )
        else:
            curve = np.full(MINUTES_PER_DAY, workload.basic_load)
            for app in self.landscape.services:
                if (
                    app.kind is not ServiceKind.APPLICATION_SERVER
                    or app.subsystem != service.subsystem
                ):
                    continue
                cost = (
                    app.workload.ci_cost_per_user
                    if service.kind is ServiceKind.CENTRAL_INSTANCE
                    else app.workload.db_cost_per_user
                )
                curve = curve + (
                    app.workload.users * cost * profile_array(app.workload.profile)
                ) / max(instance_count, 1)
        self._curves[key] = curve
        return curve

    # -- constraint checks ---------------------------------------------------------------

    def _can_place(
        self, placement: _Placement, service: ServiceSpec, host: ServerSpec
    ) -> bool:
        constraints = service.constraints
        if host.performance_index < constraints.min_performance_index:
            return False
        occupants = placement.services_on[host.name]
        if constraints.exclusive and any(n != service.name for n in occupants):
            return False
        for occupant_name in occupants:
            if occupant_name == service.name:
                continue
            occupant = self._services[occupant_name]
            if occupant.constraints.exclusive:
                return False
        needed = service.workload.memory_per_instance_mb
        free = host.memory_mb - placement.memory_used[host.name]
        return needed <= free

    def _apply(
        self,
        placement: _Placement,
        service: ServiceSpec,
        curve: np.ndarray,
        host_name: str,
        sign: int = 1,
    ) -> None:
        placement.demand[host_name] = placement.demand[host_name] + sign * curve
        placement.memory_used[host_name] += sign * service.workload.memory_per_instance_mb
        if sign > 0:
            placement.services_on[host_name].append(service.name)
        else:
            placement.services_on[host_name].remove(service.name)

    # -- instance-count sizing -------------------------------------------------------------

    def suggest_instance_counts(
        self,
        target_peak_load: float = 0.6,
        reference_index: float = 1.0,
    ) -> Dict[str, int]:
        """How many instances each service needs so that one instance's
        daily peak fits into ``target_peak_load`` of a reference host.

        Application services are sized from their peak per-user demand;
        central instances and databases keep their current instance
        counts (their demand is derived and their instance counts are
        constrained).  The suggestion respects each service's min/max
        instance constraints.
        """
        if not 0.0 < target_peak_load <= 1.0:
            raise ValueError("target peak load must be in (0, 1]")
        if reference_index <= 0:
            raise ValueError("reference index must be positive")
        budget = target_peak_load * reference_index
        suggestions: Dict[str, int] = {}
        for spec in self.landscape.services:
            current = max(self._initial_counts.get(spec.name, 0), 1)
            if spec.kind is not ServiceKind.APPLICATION_SERVER:
                count = current
            else:
                workload = spec.workload
                per_instance_budget = budget - workload.basic_load
                if per_instance_budget <= 0:
                    raise ValueError(
                        f"service {spec.name!r}: basic load alone exceeds the "
                        f"target peak budget"
                    )
                peak_demand = workload.users * workload.load_per_user
                count = max(1, int(np.ceil(peak_demand / per_instance_budget)))
            constraints = spec.constraints
            count = max(count, constraints.min_instances)
            if constraints.max_instances is not None:
                count = min(count, constraints.max_instances)
            suggestions[spec.name] = count
        return suggestions

    # -- the optimization -------------------------------------------------------------------

    def design(
        self,
        instance_counts: Optional[Dict[str, int]] = None,
        local_search_rounds: int = 50,
    ) -> DesignedAllocation:
        """Compute an optimized assignment.

        Parameters
        ----------
        instance_counts:
            Instances to place per service; defaults to the base
            landscape's initial allocation counts.
        local_search_rounds:
            Maximum improvement rounds after the greedy phase.
        """
        counts = instance_counts or {
            spec.name: self._initial_counts.get(spec.name, 0)
            for spec in self.landscape.services
        }
        items: List[Tuple[ServiceSpec, np.ndarray]] = []
        for spec in self.landscape.services:
            count = counts.get(spec.name, 0)
            curve = self.instance_curve(spec, count)
            items.extend((spec, curve) for __ in range(count))
        # place the heaviest demands first
        items.sort(key=lambda item: -float(item[1].max()))

        placement = _Placement(self.landscape.servers)
        assignment: List[Tuple[str, str, np.ndarray]] = []
        for spec, curve in items:
            best_host, best_peak = None, None
            for server in self.landscape.servers:
                if not self._can_place(placement, spec, server):
                    continue
                trial = placement.demand[server.name] + curve
                peak = float(trial.max()) / server.performance_index
                if best_peak is None or peak < best_peak:
                    best_host, best_peak = server.name, peak
            if best_host is None:
                raise ValueError(
                    f"designer found no feasible host for an instance of "
                    f"{spec.name!r}"
                )
            self._apply(placement, spec, curve, best_host)
            assignment.append((spec.name, best_host, curve))

        self._local_search(placement, assignment, local_search_rounds)
        ordered = [(service, host) for service, host, __ in assignment]
        return DesignedAllocation(
            assignment=ordered,
            predicted_peak_load=placement.worst_peak(),
            predicted_peak_by_host=placement.peak_by_host(),
        )

    def _local_search(
        self,
        placement: _Placement,
        assignment: List[Tuple[str, str, np.ndarray]],
        rounds: int,
    ) -> None:
        """Best-improvement relocation moves on the worst peak."""
        for __ in range(rounds):
            worst = placement.worst_peak()
            best_move = None
            best_result = worst
            for index, (service_name, host_name, curve) in enumerate(assignment):
                if placement.peak_load(host_name) < worst - 1e-9:
                    continue  # only relocating off a worst host can help
                spec = self._services[service_name]
                self._apply(placement, spec, curve, host_name, sign=-1)
                for server in self.landscape.servers:
                    if server.name == host_name:
                        continue
                    if not self._can_place(placement, spec, server):
                        continue
                    self._apply(placement, spec, curve, server.name)
                    candidate = placement.worst_peak()
                    if candidate < best_result - 1e-9:
                        best_result = candidate
                        best_move = (index, server.name)
                    self._apply(placement, spec, curve, server.name, sign=-1)
                self._apply(placement, spec, curve, host_name)
            if best_move is None:
                return
            index, target = best_move
            service_name, host_name, curve = assignment[index]
            spec = self._services[service_name]
            self._apply(placement, spec, curve, host_name, sign=-1)
            self._apply(placement, spec, curve, target)
            assignment[index] = (service_name, target, curve)
