"""Request-path load propagation.

"As observed in existing SAP installations, the course of a request is
simulated as follows.  First, a request increases the load of the
affected service host for a short period.  Before handling the request
in the database, the lock management of the central instance (CI) is
requested.  Finally, the database sends the answer back to the
application server.  Since the load caused by a single request depends
on the specific service [...] our simulation system uses
service-specific parameters to simulate the impact of requests."

At one-minute resolution, the per-request round trip aggregates into
demand flows: every served user of an application service contributes
service-specific demand to its own application server, to the
subsystem's central instance (``ci_cost_per_user``) and to the
subsystem's database (``db_cost_per_user``), all modulated by the
service's daily profile.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.config.model import ServiceKind, ServiceSpec
from repro.serviceglobe.platform import Platform
from repro.sim.loadcurves import profile_value

__all__ = ["RequestFlows"]


class RequestFlows:
    """Derives central-instance and database demand from user activity."""

    def __init__(self, platform: Platform) -> None:
        self._platform = platform
        self._apps: List[ServiceSpec] = []
        self._ci_of: Dict[str, str] = {}
        self._db_of: Dict[str, str] = {}
        for spec in platform.landscape.services:
            if spec.kind is ServiceKind.APPLICATION_SERVER:
                self._apps.append(spec)
            elif spec.kind is ServiceKind.CENTRAL_INSTANCE:
                self._register_unique(self._ci_of, spec, "central instance")
            elif spec.kind is ServiceKind.DATABASE:
                self._register_unique(self._db_of, spec, "database")
        #: the services :meth:`derived_demands` answers for: every CI,
        #: then every DB, in landscape order
        self.targets: Tuple[str, ...] = (*self._ci_of.values(), *self._db_of.values())

    @staticmethod
    def _register_unique(mapping: Dict[str, str], spec: ServiceSpec, role: str) -> None:
        if spec.subsystem in mapping:
            raise ValueError(
                f"subsystem {spec.subsystem!r} has more than one {role}"
            )
        mapping[spec.subsystem] = spec.name

    def adopt(self, spec: ServiceSpec) -> None:
        """Track a dynamically adopted application service.

        If the service's subsystem has no central instance or database
        in this platform — the usual case for a cross-domain adoption,
        where the subsystem's CI/DB stay home — its request flow simply
        has no local target and contributes nothing here.
        """
        if spec.kind is ServiceKind.APPLICATION_SERVER and not any(
            existing.name == spec.name for existing in self._apps
        ):
            self._apps.append(spec)

    def ci_service_of(self, subsystem: str) -> str:
        return self._ci_of[subsystem]

    def db_service_of(self, subsystem: str) -> str:
        return self._db_of[subsystem]

    def derived_demands(self, now: int, served_users: Sequence[int]) -> Dict[str, float]:
        """Total demand forwarded to each CI and DB service this minute.

        ``served_users`` holds every service's connected users by service
        id.  Returns service name -> demand in performance index units
        (excluding the targets' own basic load), in :attr:`targets` order.
        """
        ci_demand: Dict[str, float] = {name: 0.0 for name in self._ci_of.values()}
        db_demand: Dict[str, float] = {name: 0.0 for name in self._db_of.values()}
        sid_of = self._platform.landscape_state.service_index.ids
        activities: Dict[str, float] = {}
        for spec in self._apps:
            served = served_users[sid_of[spec.name]]
            if served == 0:
                continue
            profile = spec.workload.profile
            activity = activities.get(profile)
            if activity is None:
                activity = activities[profile] = profile_value(profile, now)
            if activity <= 0.0:
                continue
            ci_name = self._ci_of.get(spec.subsystem)
            db_name = self._db_of.get(spec.subsystem)
            if ci_name is not None:
                ci_demand[ci_name] += served * spec.workload.ci_cost_per_user * activity
            if db_name is not None:
                db_demand[db_name] += served * spec.workload.db_cost_per_user * activity
        combined = dict(ci_demand)
        combined.update(db_demand)
        return combined
