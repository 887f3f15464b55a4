"""Service definitions and runtime service instances."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.config.model import ServiceSpec
from repro.serviceglobe.network import VirtualIP

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serviceglobe.landscape_state import LandscapeState

__all__ = ["InstanceState", "ServiceInstance", "ServiceDefinition"]

#: Service priorities are small integers; 5 is the neutral default.
MIN_PRIORITY = 1
MAX_PRIORITY = 10
DEFAULT_PRIORITY = 5

_instance_counter = itertools.count(1)


class InstanceState(enum.Enum):
    """Lifecycle states of a service instance."""

    RUNNING = "running"
    STOPPED = "stopped"


class ServiceInstance:
    """One running instance of a service on a specific host.

    Attributes
    ----------
    demand:
        Current CPU demand of the instance in performance index units,
        written by the workload model each tick and read by the load
        monitors.
    users:
        Interactive user sessions currently connected to this instance.

    ``demand`` and ``state`` are write-through properties: an instance
    of a platform is bound to the platform's
    :class:`~repro.serviceglobe.landscape_state.LandscapeState`, and
    writing either marks the instance's host and service columns stale,
    to be re-summed before their next read.  On an instance built on its
    own (a unit test) they are plain attributes.
    """

    __slots__ = (
        "service_name",
        "host_name",
        "virtual_ip",
        "instance_id",
        "_state",
        "users",
        "_demand",
        "started_at",
        "_landscape_state",
    )

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
        self.service_name = service_name
        self.host_name = host_name
        self.virtual_ip = virtual_ip
        self.instance_id = instance_id
        self._state = state
        self.users = users
        self._demand = demand
        self.started_at = started_at
        self._landscape_state: Optional["LandscapeState"] = None
        if not self.instance_id:
            self.instance_id = f"{self.service_name}#{next(_instance_counter)}"

    def bind_state(self, landscape_state: Optional["LandscapeState"]) -> None:
        """Route future ``demand``/``state`` writes through the columnar cache."""
        self._landscape_state = landscape_state

    @property
    def demand(self) -> float:
        return self._demand

    @demand.setter
    def demand(self, value: float) -> None:
        self._demand = value
        if self._landscape_state is not None:
            self._landscape_state.touch_instance(self)

    @property
    def state(self) -> InstanceState:
        return self._state

    @state.setter
    def state(self, value: InstanceState) -> None:
        self._state = value
        if self._landscape_state is not None:
            self._landscape_state.touch_instance_topology(self)

    @property
    def running(self) -> bool:
        return self._state is InstanceState.RUNNING

    def _key(self) -> tuple:
        return (
            self.service_name,
            self.host_name,
            self.virtual_ip,
            self.instance_id,
            self._state,
            self.users,
            self._demand,
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
            f"state={self._state!r}, users={self.users!r}, "
            f"demand={self._demand!r})"
        )

    def __str__(self) -> str:
        return f"{self.instance_id}@{self.host_name}"


@dataclass
class ServiceDefinition:
    """Runtime state of a service: its spec, priority and instances."""

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
