"""The workload model driving instance demands minute by minute.

Per tick the model:

1. applies user fluctuation for sticky sessions ("users infrequently log
   themselves off [...] and reconnect to the currently least-loaded
   server"),
2. writes the demand of every application-server instance: basic load
   plus per-user demand following the service's daily profile, with
   stochastic measurement noise and occasional load bursts
   ("unpredictable load bursts" that the watch-time filtering exists
   for), and
3. derives central-instance and database demand from the served user
   activity via :class:`repro.sim.requests.RequestFlows`,

all into the landscape state's demand column in one pass, which then
re-sums the demand aggregates once.

Everything around the random draws is column code over the landscape
state's running layout: one ``binomial`` call for the fluctuation, the
demands computed element-wise in the scalar formula's operation order.
The draws themselves stay one scalar call each, in the order a loop
over services and their running instances makes them, so a seed gives
the same stream as ever.

Batch services (BW) are driven identically, with jobs taking the role of
users; capacity sweeps scale the per-job load instead of the job count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional

import numpy as np
import numpy.typing as npt

from repro.config.model import ServiceKind, ServiceSpec
from repro.serviceglobe.dispatcher import Fluctuation
from repro.serviceglobe.landscape_state import LandscapeState
from repro.serviceglobe.platform import Platform
from repro.sim.loadcurves import profile_value
from repro.sim.requests import RequestFlows

__all__ = ["NoiseParameters", "WorkloadModel"]


@dataclass(frozen=True)
class NoiseParameters:
    """Stochastic components of the demand model.

    ``sigma`` is the per-minute multiplicative measurement noise;
    ``burst_probability`` starts a load burst per instance-minute, with a
    duration and relative amplitude drawn uniformly from the given
    ranges.  ``derived_sigma`` is the (smaller) noise on CI/DB demand.
    """

    sigma: float = 0.03
    burst_probability: float = 0.002
    burst_minutes: tuple = (3, 9)
    burst_amplitude: tuple = (0.15, 0.35)
    derived_sigma: float = 0.02


class _BurstState:
    """Per-instance burst bookkeeping."""

    __slots__ = ("remaining", "amplitude")

    def __init__(self) -> None:
        self.remaining = 0
        self.amplitude = 0.0


class _Plan:
    """What the demand pass reads of one topology, as columns.

    The application column lists the running instances of every
    application service, service by service in the model's service
    order, creation order within a service: the order of the scalar
    draws; ``app_bounds`` delimits the services.  ``fluctuation`` lays
    out the part of it that fluctuates; ``moving_rows`` are those
    entries' rows and ``moving_hosts`` their hosts.  The derived
    column lists the running instances of every CI and DB in
    :attr:`RequestFlows.targets` order.  A plan is rebuilt when the
    topology moves or a service is adopted.
    """

    __slots__ = (
        "version", "apps", "rows", "app_rows", "app_ids", "app_sids", "app_bounds",
        "base", "per_user", "profiles", "profile_of",
        "fluctuation", "moving_rows", "moving_hosts",
        "derived_live", "derived_counts", "derived_basic",
    )

    def __init__(self, model: "WorkloadModel", state: LandscapeState) -> None:
        layout = state.running_layout()
        sid_of = state.service_index.ids
        specs = list(model._app_specs.values())
        self.version = state.topology_version
        self.apps = len(specs)
        self.app_sids = [sid_of[spec.name] for spec in specs]
        members = [layout.service_rows[sid] for sid in self.app_sids]
        sizes = [len(rows) for rows in members]
        self.app_rows = [row for rows in members for row in rows]
        instances = state.instance_objs
        self.app_ids = [instances[row].instance_id for row in self.app_rows]
        self.app_bounds = [0, *accumulate(sizes)]
        self.base = np.repeat([spec.workload.basic_load for spec in specs], sizes)
        self.per_user = np.repeat([spec.workload.load_per_user for spec in specs], sizes)
        self.profiles = list(dict.fromkeys(spec.workload.profile for spec in specs))
        profile_index = {name: k for k, name in enumerate(self.profiles)}
        self.profile_of = np.repeat(
            [profile_index[spec.workload.profile] for spec in specs], sizes
        ).astype(np.int64)

        bounds = self.app_bounds
        self.fluctuation = Fluctuation(
            (spec.workload.fluctuation_rate, range(first, end), self.app_ids[first:end])
            for spec, first, end in zip(specs, bounds, bounds[1:])
        )
        self.moving_rows = [self.app_rows[k] for k in self.fluctuation.entries.tolist()]
        self.moving_hosts = layout.inst_hosts[self.moving_rows]

        targets = [layout.service_rows[sid_of[name]] for name in model._flows.targets]
        counts = np.array([len(rows) for rows in targets], dtype=np.int64)
        self.derived_live = counts > 0
        self.derived_counts = counts[self.derived_live]
        self.derived_basic = np.repeat(
            [model._derived_specs[name].workload.basic_load for name in model._flows.targets],
            counts,
        ).astype(np.float64)
        self.rows = np.array(
            self.app_rows + [row for rows in targets for row in rows], dtype=np.int64
        )


class WorkloadModel:
    """Drives one platform's demand; deterministic under a fixed seed."""

    def __init__(
        self,
        platform: Platform,
        seed: int = 7,
        noise: Optional[NoiseParameters] = None,
    ) -> None:
        self.platform = platform
        self.noise = noise if noise is not None else NoiseParameters()
        self._rng = np.random.default_rng(seed)
        self._flows = RequestFlows(platform)
        self._bursts: Dict[str, _BurstState] = {}
        self._app_specs: Dict[str, ServiceSpec] = {}
        self._derived_specs: Dict[str, ServiceSpec] = {}
        self._plan: Optional[_Plan] = None
        for spec in platform.landscape.services:
            if spec.kind is ServiceKind.APPLICATION_SERVER:
                self._app_specs[spec.name] = spec
            else:
                self._derived_specs[spec.name] = spec

    # -- setup -----------------------------------------------------------------------

    def initialize(self) -> None:
        """Place the reference user population onto the initial instances."""
        state = self.platform.landscape_state
        for spec in self._app_specs.values():
            running = state.service_running_count(state.service_index.ids[spec.name])
            if spec.workload.users and running:
                self.platform.dispatcher.place_users(
                    self.platform.service(spec.name).instances, spec.workload.users
                )

    # -- dynamic services (cross-domain adoption) --------------------------------------

    def adopt(self, spec: ServiceSpec) -> None:
        """Start driving demand for a service adopted after construction.

        Multi-process federation: an escrowed instance arriving from
        another domain brings its service spec along; registering it
        here makes the demand model treat its users exactly like those
        of a landscape-declared service.  Only application servers are
        escrowed.  Idempotent for retried attaches.
        """
        if spec.kind is not ServiceKind.APPLICATION_SERVER:
            raise ValueError(
                f"only application-server services can be adopted, "
                f"got {spec.kind.value!r} for {spec.name!r}"
            )
        if spec.name not in self._app_specs:
            self._app_specs[spec.name] = spec
            self._flows.adopt(spec)

    # -- noise: one scalar draw after another, in column order ----------------------------

    def _noise_factors(self, instance_ids: List[str]) -> List[float]:
        """The noise factor of each application instance, bursts included."""
        noise = self.noise
        sigma = noise.sigma
        low, high = 1.0 - 3 * sigma, 1.0 + 3 * sigma
        chance = noise.burst_probability
        rng = self._rng
        # ``normal(0, s)`` is ``0 + s * z`` of one standard normal draw
        normal, draw = rng.standard_normal, rng.random
        bursts = self._bursts
        factors = []
        for instance_id in instance_ids:
            factor = min(max(1.0 + sigma * normal(), low), high)
            state = bursts.get(instance_id)
            if state is None:
                state = bursts[instance_id] = _BurstState()
            if state.remaining > 0:
                state.remaining -= 1
                factor *= 1.0 + state.amplitude
            elif draw() < chance:
                shortest, longest = noise.burst_minutes
                state.remaining = int(rng.integers(shortest, longest + 1))
                state.amplitude = float(rng.uniform(*noise.burst_amplitude))
            factors.append(factor)
        return factors

    def _derived_noise(self, count: int) -> List[float]:
        sigma = self.noise.derived_sigma
        low, high = 1.0 - 3 * sigma, 1.0 + 3 * sigma
        normal = self._rng.standard_normal
        return [min(max(1.0 + sigma * normal(), low), high) for __ in range(count)]

    # -- the per-minute update ------------------------------------------------------------

    def tick(self, now: int) -> None:
        state = self.platform.landscape_state
        plan = self._plan
        if (
            plan is None
            or plan.version != state.topology_version
            or plan.apps != len(self._app_specs)
        ):
            plan = self._plan = _Plan(self, state)
        users = self._fluctuate(state, plan)
        application = self._application_demands(plan, users, now)
        derived = self._derived_demands(state, plan, users, now)
        state.write_demands(plan.rows, np.concatenate((application, derived)))

    def _fluctuate(self, state: LandscapeState, plan: _Plan) -> npt.NDArray[np.int64]:
        """Move this minute's fluctuating users; returns the application
        column's users afterwards."""
        inst_users = state.inst_users
        users = np.array([inst_users[row] for row in plan.app_rows], dtype=np.int64)
        moving = plan.fluctuation.entries
        after, __ = plan.fluctuation.move(
            users[moving], state.host_cpu_values(plan.moving_hosts), self._rng
        )
        users[moving] = after
        for row, value in zip(plan.moving_rows, after.tolist()):
            inst_users[row] = value
        return users

    def _application_demands(
        self, plan: _Plan, users: npt.NDArray[np.int64], now: int
    ) -> npt.NDArray[np.float64]:
        activity = np.array([profile_value(name, now) for name in plan.profiles])
        noise = np.array(self._noise_factors(plan.app_ids), dtype=np.float64)
        # the scalar ``base + users * per_user * activity * noise``, in its order
        return plan.base + ((users * plan.per_user) * activity[plan.profile_of]) * noise

    def _derived_demands(
        self, state: LandscapeState, plan: _Plan, users: npt.NDArray[np.int64], now: int
    ) -> npt.NDArray[np.float64]:
        # follows served users, not application demand: nothing the
        # application pass wrote is read here
        running = np.cumsum(users)
        served = [0] * len(state.service_members)
        ends = plan.app_bounds
        totals = [0, *running.tolist()]
        for sid, first, end in zip(plan.app_sids, ends, ends[1:]):
            served[sid] = totals[end] - totals[first]
        demand = self._flows.derived_demands(now, served)
        share = np.array(list(demand.values()), dtype=np.float64)[plan.derived_live]
        share = np.repeat(share / plan.derived_counts, plan.derived_counts)
        noise = np.array(self._derived_noise(len(share)), dtype=np.float64)
        return plan.derived_basic + share * noise

    # -- durability (kill -9 and resume) -----------------------------------------------

    def snapshot_state(self) -> Dict[str, object]:
        """JSON-able model state: the RNG stream position and open bursts.

        Everything else the model reads lives on the platform (users,
        instances), which snapshots itself; restoring both makes a
        resumed run draw byte-identical demands.
        """
        return {
            "rng": self._rng.bit_generator.state,
            "bursts": {
                instance_id: [state.remaining, state.amplitude]
                for instance_id, state in self._bursts.items()
            },
        }

    def restore_state(self, payload: Dict[str, object]) -> None:
        self._rng.bit_generator.state = payload["rng"]
        self._bursts = {}
        for instance_id, (remaining, amplitude) in payload.get(
            "bursts", {}
        ).items():  # type: ignore[union-attr]
            state = _BurstState()
            state.remaining = int(remaining)
            state.amplitude = float(amplitude)
            self._bursts[instance_id] = state

    # -- introspection ----------------------------------------------------------------------

    @property
    def flows(self) -> RequestFlows:
        return self._flows

    def total_users(self) -> int:
        return sum(
            self.platform.service(name).total_users for name in self._app_specs
        )
