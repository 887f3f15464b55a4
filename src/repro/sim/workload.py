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
re-sums every host and service once.

Batch services (BW) are driven identically, with jobs taking the role of
users; capacity sweeps scale the per-job load instead of the job count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.config.model import ServiceKind, ServiceSpec
from repro.serviceglobe.platform import Platform
from repro.serviceglobe.service import ServiceInstance
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
        for spec in platform.landscape.services:
            if spec.kind is ServiceKind.APPLICATION_SERVER:
                self._app_specs[spec.name] = spec
            else:
                self._derived_specs[spec.name] = spec

    # -- setup -----------------------------------------------------------------------

    def initialize(self) -> None:
        """Place the reference user population onto the initial instances."""
        for spec in self._app_specs.values():
            definition = self.platform.service(spec.name)
            if spec.workload.users and definition.running_instances:
                self.platform.dispatcher.place_users(
                    definition.running_instances, spec.workload.users
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

    # -- noise ------------------------------------------------------------------------

    def _noise_factor(self, instance: ServiceInstance) -> float:
        noise = self.noise
        factor = 1.0 + float(self._rng.normal(0.0, noise.sigma))
        factor = min(max(factor, 1.0 - 3 * noise.sigma), 1.0 + 3 * noise.sigma)
        state = self._bursts.get(instance.instance_id)
        if state is None:
            state = _BurstState()
            self._bursts[instance.instance_id] = state
        if state.remaining > 0:
            state.remaining -= 1
            factor *= 1.0 + state.amplitude
        elif float(self._rng.random()) < noise.burst_probability:
            low, high = noise.burst_minutes
            state.remaining = int(self._rng.integers(low, high + 1))
            state.amplitude = float(self._rng.uniform(*noise.burst_amplitude))
        return factor

    def _derived_noise(self) -> float:
        sigma = self.noise.derived_sigma
        factor = 1.0 + float(self._rng.normal(0.0, sigma))
        return min(max(factor, 1.0 - 3 * sigma), 1.0 + 3 * sigma)

    # -- the per-minute update ------------------------------------------------------------

    def tick(self, now: int) -> None:
        self._fluctuate()
        self.platform.landscape_state.write_demands(
            [*self._application_demands(now), *self._derived_demands(now)]
        )

    def _fluctuate(self) -> None:
        for spec in self._app_specs.values():
            rate = spec.workload.fluctuation_rate
            if rate <= 0.0:
                continue
            instances = self.platform.service(spec.name).running_instances
            self.platform.dispatcher.fluctuate(instances, rate, self._rng)

    def _application_demands(self, now: int) -> Iterator[Tuple[int, float]]:
        for spec in self._app_specs.values():
            workload = spec.workload
            activity = profile_value(workload.profile, now)
            for instance in self.platform.service(spec.name).running_instances:
                base = workload.basic_load
                user_demand = instance.users * workload.load_per_user * activity
                yield instance.state_id, base + user_demand * self._noise_factor(instance)

    def _derived_demands(self, now: int) -> Iterator[Tuple[int, float]]:
        # follows served users, not application demand: nothing the
        # application pass wrote is read here
        derived = self._flows.derived_demands(now)
        for service_name, demand in derived.items():
            spec = self._derived_specs[service_name]
            instances = self.platform.service(service_name).running_instances
            if not instances:
                continue
            share = demand / len(instances)
            for instance in instances:
                yield instance.state_id, spec.workload.basic_load + share * self._derived_noise()

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
