"""In-memory model of the declarative landscape description.

The model mirrors the paper's XML language: servers with performance
metadata (Table 3's server-selection inputs), services with capability
constraints (Tables 5 and 6), an initial service-to-server allocation
(Figure 11), workload parameters (Table 4) and controller settings
(Section 5.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

__all__ = [
    "Action",
    "ServiceKind",
    "ControllerMode",
    "ServerSpec",
    "ServiceConstraints",
    "WorkloadSpec",
    "ServiceSpec",
    "ControllerSettings",
    "ControlDomainSpec",
    "LandscapeSpec",
    "service_spec_to_dict",
    "service_spec_from_dict",
]


class Action(enum.Enum):
    """The nine management actions of Table 2."""

    START = "start"
    STOP = "stop"
    SCALE_IN = "scaleIn"
    SCALE_OUT = "scaleOut"
    SCALE_UP = "scaleUp"
    SCALE_DOWN = "scaleDown"
    MOVE = "move"
    INCREASE_PRIORITY = "increasePriority"
    REDUCE_PRIORITY = "reducePriority"

    @classmethod
    def from_name(cls, name: str) -> "Action":
        for action in cls:
            if action.value == name:
                return action
        raise ValueError(
            f"unknown action {name!r}; known: {', '.join(a.value for a in cls)}"
        )

    @property
    def needs_target_host(self) -> bool:
        """Actions requiring the server-selection controller (Section 4.2)."""
        return self in _TARGETED_ACTIONS


_TARGETED_ACTIONS = frozenset(
    {Action.START, Action.SCALE_OUT, Action.SCALE_UP, Action.SCALE_DOWN, Action.MOVE}
)

#: Actions that relieve load (candidates on overload triggers).
RELIEF_ACTIONS = frozenset(
    {
        Action.START,
        Action.SCALE_OUT,
        Action.SCALE_UP,
        Action.MOVE,
        Action.INCREASE_PRIORITY,
        Action.SCALE_IN,
    }
)

#: Actions that release resources (candidates on idle triggers).
CONSOLIDATION_ACTIONS = frozenset(
    {Action.STOP, Action.SCALE_IN, Action.SCALE_DOWN, Action.MOVE, Action.REDUCE_PRIORITY}
)


class ServiceKind(enum.Enum):
    """Service roles in the simulated SAP installation (Figure 9)."""

    APPLICATION_SERVER = "application-server"
    DATABASE = "database"
    CENTRAL_INSTANCE = "central-instance"


class ControllerMode(enum.Enum):
    """Execution modes of the controller (Section 4.3)."""

    AUTOMATIC = "automatic"
    SEMI_AUTOMATIC = "semi-automatic"


@dataclass(frozen=True)
class ServerSpec:
    """Static description of one server.

    The fields cover all server-selection input variables of Table 3 that
    are not runtime measurements: performance index, CPU count/clock/cache,
    memory, swap and temp space.
    """

    name: str
    performance_index: float
    num_cpus: int = 1
    cpu_clock_mhz: float = 1000.0
    cpu_cache_kb: float = 512.0
    memory_mb: int = 2048
    swap_space_mb: int = 4096
    temp_space_mb: int = 10240
    category: str = "server"

    def __post_init__(self) -> None:
        if self.performance_index <= 0:
            raise ValueError(
                f"server {self.name!r}: performance index must be positive, "
                f"got {self.performance_index}"
            )
        if self.num_cpus < 1:
            raise ValueError(f"server {self.name!r}: needs at least one CPU")
        if self.memory_mb <= 0:
            raise ValueError(f"server {self.name!r}: memory must be positive")


@dataclass(frozen=True)
class ServiceConstraints:
    """Capability constraints of a service (Tables 5 and 6).

    Attributes
    ----------
    exclusive:
        No other service may run on a host executing this service.
    min_performance_index:
        Minimum performance requirement of any host running the service.
    min_instances / max_instances:
        Bounds on the number of concurrently running instances.
    allowed_actions:
        The management actions the service supports.  A traditional SAP
        database, for example, does not support scale-out.
    """

    exclusive: bool = False
    min_performance_index: float = 0.0
    min_instances: int = 1
    max_instances: Optional[int] = None
    allowed_actions: FrozenSet[Action] = frozenset()

    def __post_init__(self) -> None:
        if self.min_instances < 0:
            raise ValueError("min_instances must be non-negative")
        if self.max_instances is not None and self.max_instances < self.min_instances:
            raise ValueError(
                f"max_instances ({self.max_instances}) below "
                f"min_instances ({self.min_instances})"
            )

    def allows(self, action: Action) -> bool:
        return action in self.allowed_actions


def _check_range(
    owner: str, name: str, value: float, low: float, high: Optional[float]
) -> None:
    """Refuse ``value`` outside ``[low, high]`` (no upper bound for None)."""
    if value < low or (high is not None and value > high):
        bound = f"at least {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{owner} {name} {value!r} is not {bound}")


@dataclass(frozen=True)
class WorkloadSpec:
    """Simulation workload parameters of a service (Table 4 and Section 5.1).

    Attributes
    ----------
    users:
        Interactive users (or batch jobs for batch services) at the 100%
        reference point of Table 4.
    profile:
        Name of the daily load profile (see :mod:`repro.sim.loadcurves`).
    load_per_user:
        CPU demand one user induces at profile value 1.0, in performance
        index units ("a standard single processor blade [...] is
        dimensioned to handle at most 150 users of one service").
    basic_load:
        Demand every running instance induces even without users
        ("every application server itself induces a basic load").
    ci_cost_per_user / db_cost_per_user:
        Demand forwarded per served user to the subsystem's central
        instance (lock management) and database, modelling the course of
        a request (Section 5.1).
    batch:
        Batch services (BW) scale load per job instead of the number of
        jobs in capacity sweeps.
    memory_per_instance_mb:
        Memory footprint of one instance on its host.
    fluctuation_rate:
        Per-minute probability that a user logs off and reconnects to the
        currently least-loaded instance.
    """

    users: int = 0
    profile: str = "workday"
    load_per_user: float = 0.005
    basic_load: float = 0.02
    ci_cost_per_user: float = 0.0
    db_cost_per_user: float = 0.0
    batch: bool = False
    memory_per_instance_mb: int = 1024
    fluctuation_rate: float = 0.003

    def __post_init__(self) -> None:
        for name in ("users", "load_per_user", "basic_load", "ci_cost_per_user",
                     "db_cost_per_user", "memory_per_instance_mb"):
            _check_range("workload", name, getattr(self, name), 0, None)
        _check_range("workload", "fluctuation_rate", self.fluctuation_rate, 0, 1)


@dataclass(frozen=True)
class ServiceSpec:
    """Static description of one service."""

    name: str
    kind: ServiceKind = ServiceKind.APPLICATION_SERVER
    subsystem: str = ""
    constraints: ServiceConstraints = field(default_factory=ServiceConstraints)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    #: Service-specific rule bases layered over the defaults, keyed by
    #: trigger name (e.g. ``"serviceOverloaded"``); values are rule DSL text.
    rule_overrides: Mapping[str, str] = field(default_factory=dict)
    #: Diagnostic codes (e.g. ``"AG110"``) the static analyzers must not
    #: report for this service; ``lintIgnore="AG110 AG205"`` in the XML.
    lint_suppressions: FrozenSet[str] = frozenset()

    @property
    def interactive(self) -> bool:
        """Interactive services process user requests; batch ones run jobs."""
        return not self.workload.batch

    def with_users(self, users: int) -> "ServiceSpec":
        """A copy of the spec with a different reference user count."""
        return replace(self, workload=replace(self.workload, users=users))


def service_spec_to_dict(spec: ServiceSpec) -> Dict[str, object]:
    """A JSON-able encoding of a full service spec.

    Used wherever a spec crosses a process boundary: the federation
    wire protocol ships the spec of a cross-domain escrowed service to
    the adopting agent, and platform snapshots persist adopted specs so
    a killed-and-resumed agent can rebuild them.  The round trip through
    :func:`service_spec_from_dict` is lossless.
    """
    return {
        "name": spec.name,
        "kind": spec.kind.value,
        "subsystem": spec.subsystem,
        "constraints": {
            "exclusive": spec.constraints.exclusive,
            "min_performance_index": spec.constraints.min_performance_index,
            "min_instances": spec.constraints.min_instances,
            "max_instances": spec.constraints.max_instances,
            "allowed_actions": sorted(
                action.value for action in spec.constraints.allowed_actions
            ),
        },
        "workload": {
            "users": spec.workload.users,
            "profile": spec.workload.profile,
            "load_per_user": spec.workload.load_per_user,
            "basic_load": spec.workload.basic_load,
            "ci_cost_per_user": spec.workload.ci_cost_per_user,
            "db_cost_per_user": spec.workload.db_cost_per_user,
            "batch": spec.workload.batch,
            "memory_per_instance_mb": spec.workload.memory_per_instance_mb,
            "fluctuation_rate": spec.workload.fluctuation_rate,
        },
        "rule_overrides": dict(spec.rule_overrides),
        "lint_suppressions": sorted(spec.lint_suppressions),
    }


def service_spec_from_dict(payload: Mapping[str, object]) -> ServiceSpec:
    """Rebuild a :class:`ServiceSpec` encoded by :func:`service_spec_to_dict`."""
    constraints = payload.get("constraints") or {}
    workload = payload.get("workload") or {}
    assert isinstance(constraints, Mapping) and isinstance(workload, Mapping)
    return ServiceSpec(
        name=str(payload["name"]),
        kind=ServiceKind(payload["kind"]),
        subsystem=str(payload.get("subsystem", "")),
        constraints=ServiceConstraints(
            exclusive=bool(constraints.get("exclusive", False)),
            min_performance_index=float(
                constraints.get("min_performance_index", 0.0)
            ),
            min_instances=int(constraints.get("min_instances", 1)),
            max_instances=(
                None
                if constraints.get("max_instances") is None
                else int(constraints["max_instances"])  # type: ignore[index]
            ),
            allowed_actions=frozenset(
                Action(value)
                for value in constraints.get("allowed_actions", ())  # type: ignore[union-attr]
            ),
        ),
        workload=WorkloadSpec(
            users=int(workload.get("users", 0)),
            profile=str(workload.get("profile", "workday")),
            load_per_user=float(workload.get("load_per_user", 0.005)),
            basic_load=float(workload.get("basic_load", 0.02)),
            ci_cost_per_user=float(workload.get("ci_cost_per_user", 0.0)),
            db_cost_per_user=float(workload.get("db_cost_per_user", 0.0)),
            batch=bool(workload.get("batch", False)),
            memory_per_instance_mb=int(
                workload.get("memory_per_instance_mb", 1024)
            ),
            fluctuation_rate=float(workload.get("fluctuation_rate", 0.003)),
        ),
        rule_overrides=dict(payload.get("rule_overrides", {})),  # type: ignore[call-overload]
        lint_suppressions=frozenset(
            str(code) for code in payload.get("lint_suppressions", ())  # type: ignore[union-attr]
        ),
    )


@dataclass(frozen=True)
class ControllerSettings:
    """Tunable controller parameters (Section 5.1 defaults).

    All durations are simulated minutes.
    """

    overload_threshold: float = 0.70
    overload_watch_time: int = 10
    idle_threshold_base: float = 0.125
    idle_watch_time: int = 20
    protection_time: int = 30
    min_applicability: float = 0.10
    mode: ControllerMode = ControllerMode.AUTOMATIC
    #: minutes an unanswered semi-automatic confirmation stays pending
    #: before it expires (a revived controller must not act on stale
    #: approvals requested before a crash)
    approval_ttl: int = 240

    def __post_init__(self) -> None:
        for name in ("overload_threshold", "idle_threshold_base"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ValueError(f"controller {name} {value!r} is not in (0, 1]")
        for name in ("overload_watch_time", "idle_watch_time", "approval_ttl"):
            _check_range("controller", name, getattr(self, name), 1, None)
        _check_range("controller", "protection_time", self.protection_time, 0, None)
        _check_range("controller", "min_applicability", self.min_applicability, 0, 1)

    def idle_threshold(self, performance_index: float) -> float:
        """Idle threshold of a server: 12.5% divided by its performance index."""
        if performance_index <= 0:
            raise ValueError("performance index must be positive")
        return self.idle_threshold_base / performance_index


@dataclass(frozen=True)
class ControlDomainSpec:
    """One control domain: a named shard of the landscape's servers.

    Each domain gets its own controller, LMS, advisors and load archive;
    a federation layer coordinates relocations across domains.  A
    landscape without ``<controlDomains>`` has a single implicit domain
    covering every server, which behaves exactly like the pre-domain
    stack.
    """

    name: str
    servers: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("control domain needs a non-empty name")


#: Name of the implicit domain used when a landscape declares none.
DEFAULT_DOMAIN = "default"


@dataclass
class LandscapeSpec:
    """A complete landscape: servers, services, allocation and settings."""

    name: str
    servers: List[ServerSpec] = field(default_factory=list)
    services: List[ServiceSpec] = field(default_factory=list)
    #: Initial allocation as (service name, host name) pairs, one per
    #: instance, in start order (Figure 11).
    initial_allocation: List[Tuple[str, str]] = field(default_factory=list)
    controller: ControllerSettings = field(default_factory=ControllerSettings)
    #: Declared control domains; empty means one implicit domain spanning
    #: all servers (the classic single-controller deployment).
    domains: List[ControlDomainSpec] = field(default_factory=list)

    # One lookup scans once; a caller that looks up in a loop builds its
    # own name index.  Scanning from the end keeps a name index's answer
    # (the last declaration wins) for an unvalidated duplicate name.

    def server(self, name: str) -> ServerSpec:
        for server in reversed(self.servers):
            if server.name == name:
                return server
        raise KeyError(f"landscape {self.name!r} has no server {name!r}")

    def service(self, name: str) -> ServiceSpec:
        for service in reversed(self.services):
            if service.name == name:
                return service
        raise KeyError(f"landscape {self.name!r} has no service {name!r}")

    def instance_hosts(self) -> Dict[str, List[str]]:
        """Host names of each service's initial instances, in start order.

        One pass over the allocation; a service without initial instances
        has no entry.
        """
        hosts: Dict[str, List[str]] = {}
        for service_name, host_name in self.initial_allocation:
            hosts.setdefault(service_name, []).append(host_name)
        return hosts

    @property
    def is_federated(self) -> bool:
        """True when the landscape declares more than one control domain."""
        return len(self.domains) > 1

    def effective_domains(self) -> List[ControlDomainSpec]:
        """The declared domains, or the single implicit one covering all servers."""
        if self.domains:
            return list(self.domains)
        return [
            ControlDomainSpec(
                name=DEFAULT_DOMAIN,
                servers=tuple(server.name for server in self.servers),
            )
        ]

    def domain_of(self, host_name: str) -> str:
        """Name of the control domain a server belongs to."""
        for domain in self.effective_domains():
            if host_name in domain.servers:
                return domain.name
        raise KeyError(
            f"landscape {self.name!r}: server {host_name!r} belongs to no "
            f"control domain"
        )

    def service_domains(self) -> Dict[str, str]:
        """Home control domain of every service.

        A service belongs to the domain of its first initially allocated
        host; a service with no initial instances falls to the first
        declared domain.  The home domain's controller administers the
        service for the whole run — even after the federation relocates
        one of its instances onto another domain's host.
        """
        domains = self.effective_domains()
        server_domain = {
            server: domain.name for domain in domains for server in domain.servers
        }
        homes: Dict[str, str] = {}
        for service_name, host_name in self.initial_allocation:
            home = server_domain.get(host_name)
            if home is None:
                raise KeyError(
                    f"landscape {self.name!r}: server {host_name!r} belongs "
                    f"to no control domain"
                )
            homes.setdefault(service_name, home)
        for service in self.services:
            homes.setdefault(service.name, domains[0].name)
        return homes
