"""Columnar landscape state: the one place measurements are read from.

The object graph (:class:`~repro.serviceglobe.host.ServiceHost`,
:class:`~repro.serviceglobe.service.ServiceInstance`) stays the source
of truth for *structure*; this module keeps the derived quantities the
control loop reads tens of thousands of times per tick — per-host demand
and memory sums, per-service instance counts and load sums, up/blind
flags, placement-eligibility inputs — in numpy structure-of-arrays
columns with stable integer ids mapped from names.  Controller,
platform, monitors and the ops API all read these columns; nothing
re-derives them by walking the objects.

Two properties keep seeded runs byte-identical on top of it:

* **Exact sums.**  Aggregates are recomputed as left-to-right Python
  float additions over the host's / service's instance list in list
  order (never ``np.sum``, whose pairwise reduction associates
  differently), so a read equals the plain loop
  ``sum(i.demand for i in running)`` bit for bit — which is what
  ``tests/serviceglobe/test_landscape_state.py`` checks against a naive
  evaluator after every mutation.  Vectorized consumers
  (``np.minimum(demand / capacity, 1.0)``) only apply IEEE operations
  element-wise, which match the scalar ``min(d / c, 1.0)`` exactly.

* **Write-through invalidation.**  Every mutation path — instance
  ``demand``/``state`` writes, host ``up`` flips, attach/detach, service
  adoption, wholesale restore — notifies the state, which marks the
  affected host/service dirty and bumps the relevant version counter.
  Aggregates are recomputed lazily, per dirty id, on the next read; a
  tick that touches three hosts re-sums three hosts, not the landscape.

Version counters let consumers react to deltas instead of re-deriving
the world:

``registry_version``
    bumped when the host/service *sets* change (service adoption);
    guards monitor-set synchronization.
``topology_version``
    bumped when instance placement, the running set, or host health
    changes; guards instance-advisor synchronization and the down-host
    scan.
``mutation_version``
    bumped on every write; lets speculative batch computations (the
    batched fuzzy ranking) detect that the world moved underneath them.

``refresh_seq`` / ``host_stamp``
    ``host_stamp[hid]`` is the value of ``refresh_seq`` at which the
    host's aggregate columns were last recomputed.  Stamps are written
    where the lazy recomputation already visits the host (never on the
    per-write path), so a consumer that remembers the ``refresh_seq`` it
    last saw finds the hosts to re-derive with one column comparison.
``rebuilds``
    bumped by :meth:`rebuild`; consumers holding derived per-host
    tables drop them wholesale.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    cast,
)

import numpy as np
import numpy.typing as npt

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config.model import ServiceSpec
    from repro.serviceglobe.host import ServiceHost
    from repro.serviceglobe.service import ServiceDefinition, ServiceInstance

__all__ = ["HostIds", "IdMap", "LandscapeState"]


class IdMap:
    """Stable name <-> dense integer id mapping.

    Ids are assigned in registration order and never reused; the dense
    range ``0..len-1`` indexes the columnar arrays directly.
    """

    __slots__ = ("ids", "names")

    def __init__(self) -> None:
        self.ids: Dict[str, int] = {}
        self.names: List[str] = []

    def add(self, name: str) -> int:
        existing = self.ids.get(name)
        if existing is not None:
            return existing
        next_id = len(self.names)
        self.ids[name] = next_id
        self.names.append(name)
        return next_id

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.ids


def _grow(array: npt.NDArray[Any], size: int, fill: object) -> npt.NDArray[Any]:
    """Return ``array`` grown to ``size`` entries (geometric, amortized O(1))."""
    if array.shape[0] >= size:
        return array
    capacity = max(size, array.shape[0] * 2, 8)
    grown = np.full(capacity, fill, dtype=array.dtype)
    grown[: array.shape[0]] = array
    return grown


class HostIds(Sequence["ServiceHost"]):
    """The hosts of a state-id array; host objects are looked up on access.

    Placement filters produce id arrays of thousands of hosts whose
    consumer (the server selector) wants the ids back; the sequence hands
    them over as :attr:`ids` and still reads as a list of hosts.
    """

    __slots__ = ("state", "ids")

    def __init__(self, state: "LandscapeState", ids: npt.NDArray[np.int64]) -> None:
        self.state = state
        self.ids = ids

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index: Any) -> Any:
        host_objs = self.state.host_objs
        if isinstance(index, slice):
            return [host_objs[i] for i in self.ids[index]]
        return host_objs[self.ids[index]]

    def __iter__(self) -> Iterator["ServiceHost"]:
        host_objs = self.state.host_objs
        return (host_objs[i] for i in self.ids.tolist())


class LandscapeState:
    """Columnar cache of one platform's hot-path quantities."""

    def __init__(
        self,
        hosts: Dict[str, "ServiceHost"],
        services: Dict[str, "ServiceDefinition"],
        memory_of: Callable[[str], int],
    ) -> None:
        self.memory_of = memory_of
        self.host_index = IdMap()
        self.service_index = IdMap()
        self.host_objs: List["ServiceHost"] = []
        self.service_objs: List["ServiceDefinition"] = []
        #: names of services declared exclusive (static constraint data)
        self._exclusive_services: Set[str] = set()

        n = len(hosts)
        self.host_cpu_capacity = np.zeros(n, dtype=np.float64)
        self.host_perf_index = np.zeros(n, dtype=np.float64)
        self.host_memory_mb = np.zeros(n, dtype=np.int64)
        self.host_up = np.ones(n, dtype=np.bool_)
        #: exact left-to-right sum of running instance demands per host
        self.host_demand = np.zeros(n, dtype=np.float64)
        #: exact integer sum of per-instance memory footprints per host
        self.host_mem_used = np.zeros(n, dtype=np.int64)
        #: number of running instances per host
        self.host_running_instances = np.zeros(n, dtype=np.int64)
        #: number of distinct running services per host
        self.host_distinct_services = np.zeros(n, dtype=np.int64)
        #: number of distinct running *exclusive* services per host
        self.host_exclusive_services = np.zeros(n, dtype=np.int64)

        m = len(services)
        self.service_running = np.zeros(m, dtype=np.int64)
        self.service_demand_sum = np.zeros(m, dtype=np.float64)
        self.service_load_sum = np.zeros(m, dtype=np.float64)
        self.service_capacity_sum = np.zeros(m, dtype=np.float64)

        self._dirty_hosts: Set[int] = set()
        self._dirty_services: Set[int] = set()
        self.registry_version = 0
        self.topology_version = 0
        self.mutation_version = 0
        self.refresh_seq = 0
        self.host_stamp = np.zeros(n, dtype=np.int64)
        self.rebuilds = 0
        self._down_cache: Tuple[int, Tuple[int, ...]] = (-1, ())

        for host in hosts.values():
            hid = self.host_index.add(host.name)
            self.host_objs.append(host)
            self.host_cpu_capacity[hid] = host.spec.performance_index
            self.host_perf_index[hid] = host.spec.performance_index
            self.host_memory_mb[hid] = host.spec.memory_mb
            self.host_up[hid] = host.up
            self._dirty_hosts.add(hid)
            host.bind_state(self, hid)
        for definition in services.values():
            self.register_service(definition)

    # -- registration ---------------------------------------------------------------

    def register_service(self, definition: "ServiceDefinition") -> int:
        """Add one service's columns; idempotent per name."""
        name = definition.name
        if name in self.service_index:
            return self.service_index.ids[name]
        sid = self.service_index.add(name)
        self.service_objs.append(definition)
        size = sid + 1
        self.service_running = _grow(self.service_running, size, 0)
        self.service_demand_sum = _grow(self.service_demand_sum, size, 0.0)
        self.service_load_sum = _grow(self.service_load_sum, size, 0.0)
        self.service_capacity_sum = _grow(self.service_capacity_sum, size, 0.0)
        if definition.spec.constraints.exclusive:
            self._exclusive_services.add(name)
        self._dirty_services.add(sid)
        self.registry_version += 1
        self.topology_version += 1
        self.mutation_version += 1
        for instance in definition.instances:
            instance.bind_state(self)
        return sid

    # -- write-through notifications --------------------------------------------------

    def touch_instance(self, instance: "ServiceInstance") -> None:
        """An instance's demand changed; its host and service sums are stale."""
        hid = self.host_index.ids.get(instance.host_name)
        if hid is not None:
            self._dirty_hosts.add(hid)
        sid = self.service_index.ids.get(instance.service_name)
        if sid is not None:
            self._dirty_services.add(sid)
        self.mutation_version += 1

    def touch_instance_topology(self, instance: "ServiceInstance") -> None:
        """An instance's running state or placement changed."""
        self.touch_instance(instance)
        self.topology_version += 1

    def host_membership_changed(
        self, host: "ServiceHost", instance: "ServiceInstance"
    ) -> None:
        """An instance was attached to or detached from ``host``."""
        self._dirty_hosts.add(host.state_id)
        sid = self.service_index.ids.get(instance.service_name)
        if sid is not None:
            self._dirty_services.add(sid)
        self.topology_version += 1
        self.mutation_version += 1

    def host_up_changed(self, host: "ServiceHost", up: bool) -> None:
        self.host_up[host.state_id] = up
        self.topology_version += 1
        self.mutation_version += 1

    def rebuild(self) -> None:
        """Mark the entire landscape stale (wholesale ``restore_state``)."""
        for hid, host in enumerate(self.host_objs):
            self.host_up[hid] = host.up
            self._dirty_hosts.add(hid)
        self._dirty_services.update(range(len(self.service_index)))
        self.topology_version += 1
        self.mutation_version += 1
        self.rebuilds += 1

    # -- lazy recomputation -----------------------------------------------------------

    def _refresh_host(self, hid: int) -> None:
        demand = 0.0
        mem_used = 0
        running = 0
        seen: Dict[str, None] = {}
        memory_of = self.memory_of
        for instance in self.host_objs[hid].instances:
            if instance.running:
                demand += instance.demand
                mem_used += memory_of(instance.service_name)
                running += 1
                seen.setdefault(instance.service_name, None)
        self.host_demand[hid] = demand
        self.host_mem_used[hid] = mem_used
        self.host_running_instances[hid] = running
        self.host_distinct_services[hid] = len(seen)
        exclusive = self._exclusive_services
        self.host_exclusive_services[hid] = (
            sum(1 for name in seen if name in exclusive) if exclusive else 0
        )

    def _refresh_service(self, sid: int) -> None:
        count = 0
        demand_sum = 0.0
        load_sum = 0.0
        capacity_sum = 0.0
        ids = self.host_index.ids
        capacity = self.host_cpu_capacity
        for instance in self.service_objs[sid].instances:
            if instance.running:
                count += 1
                demand_sum += instance.demand
                cap = capacity[ids[instance.host_name]]
                load_sum += min(instance.demand / cap, 1.0)
                capacity_sum += cap
        self.service_running[sid] = count
        self.service_demand_sum[sid] = demand_sum
        self.service_load_sum[sid] = load_sum
        self.service_capacity_sum[sid] = capacity_sum

    def flush(self) -> None:
        """Recompute every stale host/service column."""
        if self._dirty_hosts:
            for hid in self._dirty_hosts:
                self._refresh_host(hid)
            self.refresh_seq += 1
            self.host_stamp[list(self._dirty_hosts)] = self.refresh_seq
            self._dirty_hosts.clear()
        if self._dirty_services:
            for sid in self._dirty_services:
                self._refresh_service(sid)
            self._dirty_services.clear()

    def _ensure_host(self, hid: int) -> None:
        if hid in self._dirty_hosts:
            self._refresh_host(hid)
            self._dirty_hosts.discard(hid)
            self.refresh_seq += 1
            self.host_stamp[hid] = self.refresh_seq

    def _ensure_service(self, sid: int) -> None:
        if sid in self._dirty_services:
            self._refresh_service(sid)
            self._dirty_services.discard(sid)

    # -- scalar reads ------------------------------------------------------------------

    def host_total_demand(self, hid: int) -> float:
        self._ensure_host(hid)
        return float(self.host_demand[hid])

    def host_cpu_load(self, hid: int) -> float:
        self._ensure_host(hid)
        return min(
            float(self.host_demand[hid]) / float(self.host_cpu_capacity[hid]), 1.0
        )

    def host_memory_used(self, hid: int) -> int:
        self._ensure_host(hid)
        return int(self.host_mem_used[hid])

    def host_memory_free(self, hid: int) -> int:
        return int(self.host_memory_mb[hid]) - self.host_memory_used(hid)

    def host_mem_load(self, hid: int) -> float:
        return min(self.host_memory_used(hid) / int(self.host_memory_mb[hid]), 1.0)

    def service_running_count(self, sid: int) -> int:
        self._ensure_service(sid)
        return int(self.service_running[sid])

    def service_demand(self, sid: int) -> float:
        self._ensure_service(sid)
        return float(self.service_demand_sum[sid])

    def service_load(self, sid: int) -> float:
        self._ensure_service(sid)
        count = int(self.service_running[sid])
        if count == 0:
            return 0.0
        return float(self.service_load_sum[sid]) / count

    def service_capacity(self, sid: int) -> float:
        self._ensure_service(sid)
        return float(self.service_capacity_sum[sid])

    # -- vectorized reads ---------------------------------------------------------------

    def host_cpu_values(self, ids: npt.NDArray[np.int64]) -> List[float]:
        """``cpu_load`` of every host in ``ids``, in order, as Python floats."""
        self.flush()
        loads = np.minimum(self.host_demand[ids] / self.host_cpu_capacity[ids], 1.0)
        return cast(List[float], loads.tolist())

    def host_mem_values(self, ids: npt.NDArray[np.int64]) -> List[float]:
        """``mem_load`` of every host in ``ids``, in order, as Python floats."""
        self.flush()
        loads = np.minimum(self.host_mem_used[ids] / self.host_memory_mb[ids], 1.0)
        return cast(List[float], loads.tolist())

    def host_server_inputs(
        self, ids: npt.NDArray[np.int64]
    ) -> Tuple[
        npt.NDArray[np.float64],
        npt.NDArray[np.float64],
        npt.NDArray[np.float64],
        npt.NDArray[np.float64],
    ]:
        """The load-dependent server-selection inputs for ``ids``, in order.

        Returns ``(cpu_load, mem_load, running_instances, memory_free_mb)``
        float columns.  Each element is bit-identical to the scalar
        read for the same host: the loads divide the same exact sums by
        the same capacities, and the instance count and free memory are
        exact integers converted to float.
        """
        self.flush()
        cpu = np.minimum(self.host_demand[ids] / self.host_cpu_capacity[ids], 1.0)
        mem = np.minimum(self.host_mem_used[ids] / self.host_memory_mb[ids], 1.0)
        running = self.host_running_instances[ids].astype(np.float64)
        free = (self.host_memory_mb[ids] - self.host_mem_used[ids]).astype(
            np.float64
        )
        return cpu, mem, running, free

    def host_ids(
        self, hosts: Sequence["ServiceHost"]
    ) -> Optional[npt.NDArray[np.int64]]:
        """State ids of ``hosts`` in order; ``None`` if one is not bound here."""
        if isinstance(hosts, HostIds):
            return hosts.ids if hosts.state is self else None
        host_objs = self.host_objs
        bound = len(host_objs)
        ids = [host.state_id for host in hosts]
        for hid, host in zip(ids, hosts):
            if not 0 <= hid < bound or host_objs[hid] is not host:
                return None
        return np.asarray(ids, dtype=np.int64)

    def service_demand_values(self, ids: npt.NDArray[np.int64]) -> List[float]:
        self.flush()
        return cast(List[float], self.service_demand_sum[ids].tolist())

    def down_host_ids(self) -> Tuple[int, ...]:
        """Ids of down hosts in registration (= substrate iteration) order.

        Cached per :attr:`topology_version`: in the steady state the scan
        is one tuple identity check instead of an O(hosts) sweep.
        """
        version, cached = self._down_cache
        if version == self.topology_version:
            return cached
        n = len(self.host_index)
        ids = tuple(int(i) for i in np.flatnonzero(~self.host_up[:n]))
        self._down_cache = (self.topology_version, ids)
        return ids

    def eligible_mask(self, definition: "ServiceDefinition") -> npt.NDArray[np.bool_]:
        """Boolean mask over host ids: which hosts pass ``can_host``.

        Reproduces exactly the conjunction checked by
        :meth:`Platform.can_host` — up, minimum performance index,
        exclusivity in both directions, free memory — as one vectorized
        expression.
        """
        self.flush()
        n = len(self.host_index)
        constraints = definition.spec.constraints
        needed = definition.spec.workload.memory_per_instance_mb
        mask = (
            self.host_up[:n]
            & (self.host_perf_index[:n] >= constraints.min_performance_index)
            & (self.host_memory_mb[:n] - self.host_mem_used[:n] >= needed)
        )
        runs_target = np.zeros(n, dtype=np.bool_)
        ids = self.host_index.ids
        for instance in definition.instances:
            if instance.running:
                hid = ids.get(instance.host_name)
                if hid is not None:
                    runs_target[hid] = True
        if constraints.exclusive:
            # an exclusive service tolerates no other service on the host
            mask &= (self.host_distinct_services[:n] - runs_target) == 0
        else:
            # a non-exclusive service may not join a host reserved by an
            # exclusive one (the target itself is not exclusive here)
            mask &= self.host_exclusive_services[:n] == 0
        return mask
