"""Service hosts: runtime capacity bookkeeping for one server."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.config.model import ServerSpec
from repro.serviceglobe.service import ServiceInstance

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serviceglobe.landscape_state import LandscapeState

__all__ = ["ServiceHost"]


class ServiceHost:
    """A server participating in the ServiceGlobe federation.

    CPU capacity equals the server's performance index: a host with
    index ``p`` saturates at a total instance demand of ``p`` units.

    A host of a platform is bound to the platform's
    :class:`~repro.serviceglobe.landscape_state.LandscapeState`: its
    demand and CPU load are served from the state's columns (recomputed
    lazily as exact left-to-right sums), and every mutation — attach,
    detach, ``up`` flips — writes through to the state.  A host built on
    its own (a unit test, the allocation designer) is unbound and sums
    its instance list.
    """

    __slots__ = ("spec", "instances", "_up", "_landscape_state", "state_id")

    def __init__(
        self,
        spec: ServerSpec,
        instances: Optional[List[ServiceInstance]] = None,
        up: bool = True,
    ) -> None:
        self.spec = spec
        self.instances: List[ServiceInstance] = (
            instances if instances is not None else []
        )
        self._up = up
        self._landscape_state: Optional["LandscapeState"] = None
        #: dense id of this host in the bound landscape state's columns
        self.state_id = -1

    def bind_state(self, landscape_state: "LandscapeState", state_id: int) -> None:
        self._landscape_state = landscape_state
        self.state_id = state_id

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
        return self._up

    @up.setter
    def up(self, value: bool) -> None:
        self._up = value
        if self._landscape_state is not None:
            self._landscape_state.host_up_changed(self, value)

    # -- instance bookkeeping ------------------------------------------------

    def attach(self, instance: ServiceInstance) -> None:
        if instance in self.instances:
            raise ValueError(f"{instance} is already attached to {self.name}")
        self.instances.append(instance)
        if self._landscape_state is not None:
            self._landscape_state.host_membership_changed(self, instance)

    def detach(self, instance: ServiceInstance) -> None:
        try:
            self.instances.remove(instance)
        except ValueError:
            raise ValueError(f"{instance} is not attached to {self.name}") from None
        if self._landscape_state is not None:
            self._landscape_state.host_membership_changed(self, instance)

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
        state = self._landscape_state
        if state is not None:
            return state.host_total_demand(self.state_id)
        return sum(i.demand for i in self.running_instances)

    @property
    def cpu_load(self) -> float:
        """Observable CPU load in [0, 1]; a saturated CPU reads 100%."""
        state = self._landscape_state
        if state is not None:
            return state.host_cpu_load(self.state_id)
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

    # -- equality (field-wise, matching the former dataclass semantics) ------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServiceHost):
            return NotImplemented
        return (self.spec, self.instances, self._up) == (
            other.spec,
            other.instances,
            other._up,
        )

    def __repr__(self) -> str:
        return (
            f"ServiceHost(spec={self.spec!r}, instances={self.instances!r}, "
            f"up={self._up!r})"
        )
