"""Service definitions, runtime service instances and their virtual IPs.

A :class:`ServiceInstance` is a handle: a row id plus immutable identity
(service name, instance id, virtual IP, start minute).  Its host, running
state, demand and users are columns of the platform's
:class:`~repro.serviceglobe.landscape_state.LandscapeState`, which
creates every handle and keeps the aggregate columns current on each
write.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.config.model import ServiceSpec

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.serviceglobe.landscape_state import LandscapeState

__all__ = ["InstanceState", "ServiceInstance", "ServiceDefinition", "VirtualIP"]

#: Service priorities are small integers; 5 is the neutral default.
MIN_PRIORITY = 1
MAX_PRIORITY = 10
DEFAULT_PRIORITY = 5


@dataclass(frozen=True)
class VirtualIP:
    """A virtual service IP address.

    "Services managed by the AutoGlobe platform are virtualized by the
    use of service IP addresses [...].  If a service is moved from one
    host to another, the virtual IP address is unbound from the NIC of
    the old host [...] and afterwards bound to the NIC of the target
    host."  (Section 2)  An instance keeps its address for its whole
    life, wherever it runs: the NIC it is bound to is the instance's
    host.
    """

    address: str

    @classmethod
    def nth(cls, sequence: int) -> VirtualIP:
        """The address of a platform's ``sequence``-th instance (from 1)."""
        third, fourth = divmod(sequence, 254)
        if third > 254:
            raise RuntimeError("virtual IP space exhausted")
        return cls(f"10.83.{third}.{fourth + 1}")


class InstanceState(enum.Enum):
    """Lifecycle states of a service instance."""

    RUNNING = "running"
    STOPPED = "stopped"


class ServiceInstance:
    """One instance of a service on a host: a row of a landscape state.

    ``demand`` is the CPU demand in performance index units, written by
    the workload model each tick and read by the load monitors;
    ``users`` the interactive user sessions connected to the instance.
    """

    __slots__ = ("_rows", "state_id", "service_name", "virtual_ip", "instance_id", "started_at")

    @classmethod
    def of_row(
        cls,
        rows: LandscapeState,
        row: int,
        service_name: str,
        ip: VirtualIP,
        instance_id: str,
        at: int,
    ) -> ServiceInstance:
        """The handle of instance row ``row`` of ``rows``."""
        instance = cls.__new__(cls)
        instance._rows, instance.state_id = rows, row
        instance.service_name, instance.virtual_ip = service_name, ip
        instance.instance_id, instance.started_at = instance_id, at
        return instance

    @property
    def demand(self) -> float:
        return self._rows.inst_demand[self.state_id]

    @demand.setter
    def demand(self, value: float) -> None:
        self._rows.set_demand(self.state_id, value)

    @property
    def users(self) -> int:
        return self._rows.inst_users[self.state_id]

    @users.setter
    def users(self, value: int) -> None:
        self._rows.inst_users[self.state_id] = value

    @property
    def host_name(self) -> str:
        return self._rows.inst_host[self.state_id]

    @host_name.setter
    def host_name(self, value: str) -> None:
        self._rows.set_host(self.state_id, value)

    @property
    def running(self) -> bool:
        return self._rows.inst_running[self.state_id]

    @property
    def state(self) -> InstanceState:
        return InstanceState.RUNNING if self.running else InstanceState.STOPPED

    @state.setter
    def state(self, value: InstanceState) -> None:
        self._rows.set_running(self.state_id, value is InstanceState.RUNNING)

    def _key(self) -> tuple:
        return (
            self.service_name,
            self.host_name,
            self.virtual_ip,
            self.instance_id,
            self.state,
            self.users,
            self.demand,
            self.started_at,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServiceInstance):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return (
            f"ServiceInstance(service_name={self.service_name!r}, "
            f"host_name={self.host_name!r}, instance_id={self.instance_id!r}, "
            f"state={self.state!r}, users={self.users!r}, "
            f"demand={self.demand!r})"
        )

    def __str__(self) -> str:
        return f"{self.instance_id}@{self.host_name}"


@dataclass
class ServiceDefinition:
    """Runtime state of a service: its spec, priority and instances.

    A platform's definition holds its row of the landscape state's
    ``service_members`` column as ``instances``: the state creates the
    list and keeps it current; the definition only refers to it.
    """

    spec: ServiceSpec
    priority: int = DEFAULT_PRIORITY
    instances: List[ServiceInstance] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def running_instances(self) -> List[ServiceInstance]:
        return [i for i in self.instances if i.running]

    @property
    def total_users(self) -> int:
        return sum(i.users for i in self.running_instances)

    def instances_on(self, host_name: str) -> List[ServiceInstance]:
        return [i for i in self.running_instances if i.host_name == host_name]

    def find_instance(self, instance_id: str) -> Optional[ServiceInstance]:
        for instance in self.instances:
            if instance.instance_id == instance_id:
                return instance
        return None

    def adjust_priority(self, delta: int) -> int:
        """Shift the service priority, clamped to the valid range."""
        self.priority = max(MIN_PRIORITY, min(MAX_PRIORITY, self.priority + delta))
        return self.priority
