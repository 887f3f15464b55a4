"""Columnar landscape state: the one store of a platform's landscape.

Every mutable fact of a platform lives here once, as a column: per
instance its host, running state, demand and users; per host its ``up``
flag and its instances in attach order; per service its instances in
creation order.  :class:`~repro.serviceglobe.host.ServiceHost` and
:class:`~repro.serviceglobe.service.ServiceInstance` are handles — a row
id plus immutable identity — created here, one per row, so ``is``,
``in`` and the registry's virtual-IP map keep working; a
:class:`~repro.serviceglobe.service.ServiceDefinition` refers to its
row of ``service_members``.  Beside the facts sit the numpy aggregates
the control loop reads tens of thousands of times per tick: per-host
demand and memory sums, per-service counts and load sums,
placement-eligibility inputs.

* **Every write leaves the columns current.**  A structural change
  (start, stop, move, compensation, crash, recovery, restore) re-sums
  the hosts and services it touches, a single ``instance.demand = x``
  its host and service; the workload's per-tick pass writes the whole
  demand column through :meth:`write_demands` and re-sums everything
  once.  A reader never refreshes anything.
* **Exact sums.**  A re-sum adds the members left to right in member
  order with Python floats (never ``np.sum``, whose pairwise reduction
  associates differently), so a read equals the plain loop
  ``sum(i.demand for i in running)`` bit for bit — which
  ``tests/serviceglobe/test_landscape_state.py`` checks against a naive
  evaluator after every mutation.  Vectorized consumers
  (``np.minimum(demand / capacity, 1.0)``) only apply IEEE operations
  element-wise, which match the scalar ``min(d / c, 1.0)`` exactly.

Cursors for consumers that react to deltas: ``registry_version`` (the
service set changed: monitor-set sync), ``topology_version``
(placement, running set or host health: advisor sync, down-host scan),
``mutation_version`` (any write: the batched fuzzy ranking's cache);
``host_stamp[hid]`` is the ``refresh_seq`` of the host's last re-sum,
so a consumer remembering the ``refresh_seq`` it saw finds the hosts to
re-derive with one comparison; ``rebuilds`` counts restores, after
which consumers drop derived per-host tables.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
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

from repro.serviceglobe.host import ServiceHost
from repro.serviceglobe.network import VirtualIP
from repro.serviceglobe.service import Rows, ServiceDefinition, ServiceInstance

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.config.model import ServerSpec, ServiceSpec

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
        self.ids[name] = len(self.names)
        self.names.append(name)
        return self.ids[name]


def _grow(array: npt.NDArray[Any], size: int, fill: object) -> npt.NDArray[Any]:
    """Return ``array`` grown to ``size`` entries (geometric, amortized O(1))."""
    if array.shape[0] >= size:
        return array
    capacity = max(size, array.shape[0] * 2, 8)
    grown = np.full(capacity, fill, dtype=array.dtype)
    grown[: array.shape[0]] = array
    return grown


class HostIds(Sequence[ServiceHost]):
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

    def __iter__(self) -> Iterator[ServiceHost]:
        host_objs = self.state.host_objs
        return (host_objs[i] for i in self.ids.tolist())


class LandscapeState(Rows):
    """The columns of one platform: its facts and their aggregates."""

    def __init__(self, servers: Sequence["ServerSpec"]) -> None:
        super().__init__()
        self.host_index = IdMap()
        self.service_index = IdMap()
        self.host_objs: List[ServiceHost] = []
        self.service_objs: List[ServiceDefinition] = []
        self.instance_objs: List[ServiceInstance] = []
        #: per service id: its instances (stopped ones too) in creation order
        self.service_members: List[List[ServiceInstance]] = []
        #: per-instance memory footprint of each service (static)
        self._memory: Dict[str, int] = {}
        #: names of services declared exclusive (static constraint data)
        self._exclusive_services: Set[str] = set()

        n = len(servers)
        self.host_perf_index = np.array([s.performance_index for s in servers], np.float64)
        self.host_memory_mb = np.array([s.memory_mb for s in servers], np.int64)
        self.host_up = np.ones(n, dtype=np.bool_)
        self.host_members = [[] for __ in range(n)]
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

        self.service_running = np.zeros(0, dtype=np.int64)
        self.service_demand_sum = np.zeros(0, dtype=np.float64)
        self.service_load_sum = np.zeros(0, dtype=np.float64)
        self.service_capacity_sum = np.zeros(0, dtype=np.float64)

        self.registry_version = 0
        self.topology_version = 0
        self.mutation_version = 0
        self.refresh_seq = 0
        self.host_stamp = np.zeros(n, dtype=np.int64)
        self.rebuilds = 0
        self._down_cache: Tuple[int, Tuple[int, ...]] = (-1, ())

        for spec in servers:
            hid = self.host_index.add(spec.name)
            self.host_objs.append(ServiceHost.of_row(spec, self, hid))

    # -- rows -------------------------------------------------------------------------

    def add_service(self, spec: "ServiceSpec") -> ServiceDefinition:
        """Add one service row (no instances yet); its definition refers
        to the row's member list."""
        size = self.service_index.add(spec.name) + 1
        self.service_members.append([])
        definition = ServiceDefinition(spec, instances=self.service_members[-1])
        self.service_objs.append(definition)
        self.service_running = _grow(self.service_running, size, 0)
        self.service_demand_sum = _grow(self.service_demand_sum, size, 0.0)
        self.service_load_sum = _grow(self.service_load_sum, size, 0.0)
        self.service_capacity_sum = _grow(self.service_capacity_sum, size, 0.0)
        self._memory[spec.name] = spec.workload.memory_per_instance_mb
        if spec.constraints.exclusive:
            self._exclusive_services.add(spec.name)
        self.registry_version += 1
        self._moved()
        return definition

    def add_instance(
        self, service_name: str, host_name: str, ip: VirtualIP, instance_id: str, now: int
    ) -> ServiceInstance:
        """Add a running instance row (not yet attached to its host)."""
        row = len(self.instance_objs)
        instance = ServiceInstance.of_row(self, row, service_name, ip, instance_id, now)
        self.instance_objs.append(instance)
        self.add_instance_row(host_name, True, 0, 0.0)
        sid = self.service_index.ids[service_name]
        self.service_members[sid].append(instance)
        self._resum_service(sid)
        self._moved()
        return instance

    # -- writes: each leaves the aggregate columns current -------------------------------

    def _moved(self) -> None:
        self.topology_version += 1
        self.mutation_version += 1

    def _resum_instance(self, row: int) -> None:
        self._resum_host(self.host_index.ids[self.inst_host[row]])
        self._resum_service(self.service_index.ids[self.instance_objs[row].service_name])

    def set_demand(self, row: int, value: float) -> None:
        self.inst_demand[row] = value
        self._resum_instance(row)
        self.mutation_version += 1

    def set_running(self, row: int, running: bool) -> None:
        self.inst_running[row] = running
        self._resum_instance(row)
        self._moved()

    def set_host(self, row: int, host_name: str) -> None:
        self.inst_host[row] = host_name
        self._resum_instance(row)  # the service's capacity moved with it
        self._moved()

    def set_up(self, hid: int, up: bool) -> None:
        self.host_up[hid] = up
        self._moved()

    def attach(self, hid: int, instance: ServiceInstance) -> None:
        super().attach(hid, instance)
        self._resum_host(hid)
        self._moved()

    def detach(self, hid: int, instance: ServiceInstance) -> None:
        super().detach(hid, instance)
        self._resum_host(hid)
        self._moved()

    def write_demands(self, demands: Iterable[Tuple[int, float]]) -> None:
        """Write ``(row, demand)`` pairs, then re-sum every host and service."""
        for row, value in demands:
            self.inst_demand[row] = value
        self.mutation_version += 1
        self._resum_all()

    # -- re-summing ------------------------------------------------------------------------

    def _resum_host(self, hid: int) -> None:
        demand = 0.0
        mem_used = 0
        running = 0
        seen: Dict[str, None] = {}
        memory = self._memory
        inst_running = self.inst_running
        inst_demand = self.inst_demand
        for instance in self.host_members[hid]:
            row = instance.state_id
            if inst_running[row]:
                name = instance.service_name
                demand += inst_demand[row]
                mem_used += memory[name]
                running += 1
                seen[name] = None
        self.host_demand[hid] = demand
        self.host_mem_used[hid] = mem_used
        self.host_running_instances[hid] = running
        self.host_distinct_services[hid] = len(seen)
        exclusive = self._exclusive_services
        self.host_exclusive_services[hid] = (
            sum(1 for name in seen if name in exclusive) if exclusive else 0
        )
        self.refresh_seq += 1
        self.host_stamp[hid] = self.refresh_seq

    def _resum_service(self, sid: int) -> None:
        count = 0
        demand_sum = 0.0
        load_sum = 0.0
        capacity_sum = 0.0
        ids = self.host_index.ids
        capacity = self.host_perf_index
        inst_running = self.inst_running
        inst_demand = self.inst_demand
        inst_host = self.inst_host
        for instance in self.service_members[sid]:
            row = instance.state_id
            if inst_running[row]:
                demand = inst_demand[row]
                cap = capacity[ids[inst_host[row]]]
                count += 1
                demand_sum += demand
                load_sum += min(demand / cap, 1.0)
                capacity_sum += cap
        self.service_running[sid] = count
        self.service_demand_sum[sid] = demand_sum
        self.service_load_sum[sid] = load_sum
        self.service_capacity_sum[sid] = capacity_sum

    def _resum_all(self) -> None:
        for hid in range(len(self.host_members)):
            self._resum_host(hid)
        for sid in range(len(self.service_members)):
            self._resum_service(sid)

    # -- snapshot ---------------------------------------------------------------------------

    def snapshot_columns(self) -> Dict[str, Any]:
        """The facts as JSON-able columns: instance identities and rows,
        host rows with their members in attach order (a service's
        members are its rows in row order, which is creation order)."""
        return {
            "identity": [
                [i.service_name, i.virtual_ip.address, i.instance_id, i.started_at]
                for i in self.instance_objs
            ],
            "host": list(self.inst_host),
            "running": list(self.inst_running),
            "demand": list(self.inst_demand),
            "users": list(self.inst_users),
            "host_up": self.host_up.tolist(),
            "host_members": [[i.state_id for i in m] for m in self.host_members],
        }

    def restore_columns(self, columns: Dict[str, Any]) -> None:
        """Replace every fact with a :meth:`snapshot_columns` payload
        (fresh instance handles), then re-sum everything."""
        self.instance_objs = [
            ServiceInstance.of_row(self, row, service, VirtualIP(address), iid, started)
            for row, (service, address, iid, started) in enumerate(columns["identity"])
        ]
        for members in self.service_members:
            members.clear()  # in place: definitions refer to these lists
        for instance in self.instance_objs:
            self.service_members[self.service_index.ids[instance.service_name]].append(
                instance
            )
        self.inst_host = list(columns["host"])
        self.inst_running = list(columns["running"])
        self.inst_demand = list(columns["demand"])
        self.inst_users = list(columns["users"])
        self.host_up = np.array(columns["host_up"], dtype=np.bool_)
        self.host_members = [
            [self.instance_objs[row] for row in members]
            for members in columns["host_members"]
        ]
        self._resum_all()
        self._moved()
        self.rebuilds += 1

    # -- scalar reads ------------------------------------------------------------------

    def host_total_demand(self, hid: int) -> float:
        return float(self.host_demand[hid])

    def host_cpu_load(self, hid: int) -> float:
        return min(float(self.host_demand[hid]) / float(self.host_perf_index[hid]), 1.0)

    def host_memory_used(self, hid: int) -> int:
        return int(self.host_mem_used[hid])

    def host_memory_free(self, hid: int) -> int:
        return int(self.host_memory_mb[hid]) - self.host_memory_used(hid)

    def host_mem_load(self, hid: int) -> float:
        return min(self.host_memory_used(hid) / int(self.host_memory_mb[hid]), 1.0)

    def service_running_count(self, sid: int) -> int:
        return int(self.service_running[sid])

    def service_demand(self, sid: int) -> float:
        return float(self.service_demand_sum[sid])

    def service_load(self, sid: int) -> float:
        count = int(self.service_running[sid])
        if count == 0:
            return 0.0
        return float(self.service_load_sum[sid]) / count

    def service_capacity(self, sid: int) -> float:
        return float(self.service_capacity_sum[sid])

    # -- vectorized reads ---------------------------------------------------------------

    def host_cpu_values(self, ids: npt.NDArray[np.int64]) -> List[float]:
        """``cpu_load`` of every host in ``ids``, in order, as Python floats."""
        loads = np.minimum(self.host_demand[ids] / self.host_perf_index[ids], 1.0)
        return cast(List[float], loads.tolist())

    def host_mem_values(self, ids: npt.NDArray[np.int64]) -> List[float]:
        """``mem_load`` of every host in ``ids``, in order, as Python floats."""
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
        cpu = np.minimum(self.host_demand[ids] / self.host_perf_index[ids], 1.0)
        mem = np.minimum(self.host_mem_used[ids] / self.host_memory_mb[ids], 1.0)
        running = self.host_running_instances[ids].astype(np.float64)
        free = (self.host_memory_mb[ids] - self.host_mem_used[ids]).astype(
            np.float64
        )
        return cpu, mem, running, free

    def host_ids(
        self, hosts: Sequence[ServiceHost]
    ) -> Optional[npt.NDArray[np.int64]]:
        """State ids of ``hosts`` in order; ``None`` if one is not a row here."""
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
        return cast(List[float], self.service_demand_sum[ids].tolist())

    def down_host_ids(self) -> Tuple[int, ...]:
        """Ids of down hosts in registration (= substrate iteration) order.

        Cached per :attr:`topology_version`: in the steady state the scan
        is one tuple identity check instead of an O(hosts) sweep.
        """
        version, cached = self._down_cache
        if version == self.topology_version:
            return cached
        ids = tuple(int(i) for i in np.flatnonzero(~self.host_up))
        self._down_cache = (self.topology_version, ids)
        return ids

    def eligible_mask(self, definition: ServiceDefinition) -> npt.NDArray[np.bool_]:
        """Boolean mask over host ids: which hosts pass ``can_host``.

        Reproduces exactly the conjunction checked by
        :meth:`Platform.can_host` — up, minimum performance index,
        exclusivity in both directions, free memory — as one vectorized
        expression.
        """
        constraints = definition.spec.constraints
        needed = definition.spec.workload.memory_per_instance_mb
        mask = (
            self.host_up
            & (self.host_perf_index >= constraints.min_performance_index)
            & (self.host_memory_mb - self.host_mem_used >= needed)
        )
        runs_target = np.zeros(len(mask), dtype=np.bool_)
        ids = self.host_index.ids
        for instance in definition.instances:
            if instance.running:
                runs_target[ids[instance.host_name]] = True
        if constraints.exclusive:
            # an exclusive service tolerates no other service on the host
            mask &= (self.host_distinct_services - runs_target) == 0
        else:
            # a non-exclusive service may not join a host reserved by an
            # exclusive one (the target itself is not exclusive here)
            mask &= self.host_exclusive_services == 0
        return mask
