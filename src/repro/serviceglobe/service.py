"""Service definitions and runtime service instances.

A :class:`ServiceInstance` is a handle: a row id plus immutable identity
(service name, instance id, virtual IP, start minute).  Its host, running
state, demand and users are columns of a :class:`Rows` table.  A
platform's instances are rows of its
:class:`~repro.serviceglobe.landscape_state.LandscapeState`, which
extends every write so it also leaves the aggregate columns current; an
instance built on its own (a unit test) keeps a private one-row table
whose writes are just the writes.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.config.model import ServiceSpec
from repro.serviceglobe.network import VirtualIP

__all__ = ["InstanceState", "Rows", "ServiceInstance", "ServiceDefinition"]

#: Service priorities are small integers; 5 is the neutral default.
MIN_PRIORITY = 1
MAX_PRIORITY = 10
DEFAULT_PRIORITY = 5

_instance_counter = itertools.count(1)


class InstanceState(enum.Enum):
    """Lifecycle states of a service instance."""

    RUNNING = "running"
    STOPPED = "stopped"


class Rows:
    """Mutable facts of instances and hosts as columns, one row each.

    Handles write through the ``set_*``/``attach``/``detach`` methods:
    here they only store, a landscape state also re-sums.
    """

    def __init__(self) -> None:
        #: per instance: the host it runs (or last ran) on, whether it
        #: runs, its CPU demand in performance-index units, its users
        self.inst_host: List[str] = []
        self.inst_running: List[bool] = []
        self.inst_demand: List[float] = []
        self.inst_users: List[int] = []
        #: per host: up (a numpy bool column in a landscape state) and
        #: its instances in attach order
        self.host_up: Any = []
        self.host_members: List[List[ServiceInstance]] = []

    def add_instance_row(self, host_name: str, running: bool, users: int, demand: float) -> None:
        self.inst_host.append(host_name)
        self.inst_running.append(running)
        self.inst_users.append(users)
        self.inst_demand.append(demand)

    def set_demand(self, row: int, value: float) -> None:
        self.inst_demand[row] = value

    def set_running(self, row: int, running: bool) -> None:
        self.inst_running[row] = running

    def set_host(self, row: int, host_name: str) -> None:
        self.inst_host[row] = host_name

    def set_up(self, hid: int, up: bool) -> None:
        self.host_up[hid] = up

    def attach(self, hid: int, instance: ServiceInstance) -> None:
        self.host_members[hid].append(instance)

    def detach(self, hid: int, instance: ServiceInstance) -> None:
        self.host_members[hid].remove(instance)

    def host_total_demand(self, hid: int) -> float:
        return sum(i.demand for i in self.host_members[hid] if i.running)


class ServiceInstance:
    """One instance of a service on a host: a row of a :class:`Rows` table.

    ``demand`` is the CPU demand in performance index units, written by
    the workload model each tick and read by the load monitors;
    ``users`` the interactive user sessions connected to the instance.
    """

    __slots__ = ("_rows", "state_id", "service_name", "virtual_ip", "instance_id", "started_at")

    def __init__(
        self,
        service_name: str,
        host_name: str,
        virtual_ip: VirtualIP,
        instance_id: str = "",
        state: InstanceState = InstanceState.RUNNING,
        users: int = 0,
        demand: float = 0.0,
        started_at: int = 0,
    ) -> None:
        self._rows = Rows()
        self._rows.add_instance_row(host_name, state is InstanceState.RUNNING, users, demand)
        self.state_id = 0
        self.service_name = service_name
        self.virtual_ip = virtual_ip
        self.instance_id = instance_id or f"{service_name}#{next(_instance_counter)}"
        self.started_at = started_at

    @classmethod
    def of_row(
        cls, rows: Rows, row: int, service_name: str, ip: VirtualIP, instance_id: str, at: int
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
