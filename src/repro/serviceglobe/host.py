"""Service hosts: the server's spec plus a row id.

Its ``up`` flag and its instances (in attach order) are columns of the
platform's :class:`~repro.serviceglobe.landscape_state.LandscapeState`,
whose aggregate columns serve demand and CPU load.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List

from repro.config.model import ServerSpec
from repro.serviceglobe.service import ServiceInstance

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.serviceglobe.landscape_state import LandscapeState

__all__ = ["ServiceHost"]


class ServiceHost:
    """A server participating in the ServiceGlobe federation.

    CPU capacity equals the server's performance index: a host with
    index ``p`` saturates at a total instance demand of ``p`` units.
    """

    __slots__ = ("spec", "_rows", "state_id")

    @classmethod
    def of_row(cls, spec: ServerSpec, rows: LandscapeState, row: int) -> ServiceHost:
        """The handle of host row ``row`` of ``rows``."""
        host = cls.__new__(cls)
        host.spec, host._rows, host.state_id = spec, rows, row
        return host

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def performance_index(self) -> float:
        return self.spec.performance_index

    @property
    def cpu_capacity(self) -> float:
        return self.spec.performance_index

    # -- health -----------------------------------------------------------------

    @property
    def up(self) -> bool:
        """A crashed host takes its capacity out of the landscape until it
        reboots; while down it runs nothing and accepts nothing."""
        return bool(self._rows.host_up[self.state_id])

    @up.setter
    def up(self, value: bool) -> None:
        self._rows.set_up(self.state_id, value)

    # -- instance bookkeeping ------------------------------------------------

    @property
    def instances(self) -> List[ServiceInstance]:
        return self._rows.host_members[self.state_id]

    def attach(self, instance: ServiceInstance) -> None:
        if instance in self.instances:
            raise ValueError(f"{instance} is already attached to {self.name}")
        self._rows.attach(self.state_id, instance)

    def detach(self, instance: ServiceInstance) -> None:
        if instance not in self.instances:
            raise ValueError(f"{instance} is not attached to {self.name}")
        self._rows.detach(self.state_id, instance)

    @property
    def running_instances(self) -> List[ServiceInstance]:
        return [i for i in self.instances if i.running]

    def instances_of(self, service_name: str) -> List[ServiceInstance]:
        return [i for i in self.running_instances if i.service_name == service_name]

    @property
    def service_names(self) -> List[str]:
        seen = {}
        for instance in self.running_instances:
            seen.setdefault(instance.service_name, None)
        return list(seen)

    # -- load ------------------------------------------------------------------

    @property
    def total_demand(self) -> float:
        """Aggregate CPU demand of all running instances (may exceed capacity)."""
        return self._rows.host_total_demand(self.state_id)

    @property
    def cpu_load(self) -> float:
        """Observable CPU load in [0, 1]; a saturated CPU reads 100%."""
        return min(self.total_demand / self.cpu_capacity, 1.0)

    @property
    def overload_factor(self) -> float:
        """Demand over capacity; > 1 means work is being delayed."""
        return self.total_demand / self.cpu_capacity

    # -- memory -------------------------------------------------------------------

    def memory_used_mb(self, memory_of: Callable[[str], int]) -> int:
        """Total memory footprint, given ``memory_of(service_name) -> int``."""
        return sum(memory_of(i.service_name) for i in self.running_instances)

    def memory_free_mb(self, memory_of: Callable[[str], int]) -> int:
        return self.spec.memory_mb - self.memory_used_mb(memory_of)

    def mem_load(self, memory_of: Callable[[str], int]) -> float:
        """Memory load in [0, 1]."""
        return min(self.memory_used_mb(memory_of) / self.spec.memory_mb, 1.0)
