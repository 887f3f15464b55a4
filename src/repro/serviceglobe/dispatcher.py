"""User-session routing policies.

Section 5.1 describes two regimes:

* **Sticky sessions** (constrained mobility): "users are logged in at one
  service instance during their complete session", with a slow background
  *fluctuation*: "users infrequently log themselves off of the application
  server they are connected to and reconnect to the currently least-loaded
  server".
* **Dynamic redistribution** (full mobility): "if a new instance of a
  service is started, the users are equally redistributed across all
  instances".

The dispatcher implements both, plus initial least-loaded placement (used
to seed every scenario) and forced reassignment when an instance stops.
Load comparisons use demand-per-capacity of the hosting server so that a
PI=2 blade attracts twice the users of a PI=1 blade at equal load.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.serviceglobe.service import ServiceInstance

__all__ = ["UserDistribution", "Dispatcher"]


class UserDistribution(enum.Enum):
    """Session policy applied after controller actions."""

    STICKY = "sticky"
    REDISTRIBUTE = "redistribute"


#: Returns the current load of the host running an instance, in [0, 1].
LoadProbe = Callable[[ServiceInstance], float]
#: Returns the CPU capacity (performance index) of an instance's host.
CapacityProbe = Callable[[ServiceInstance], float]


class Dispatcher:
    """Routes user sessions of one platform to service instances."""

    def __init__(self, host_load: LoadProbe, host_capacity: CapacityProbe) -> None:
        self._host_load = host_load
        self._host_capacity = host_capacity

    # -- placement ----------------------------------------------------------------

    def least_loaded(
        self, instances: Sequence[ServiceInstance]
    ) -> Optional[ServiceInstance]:
        """The instance whose host currently has the lowest CPU load."""
        running = [i for i in instances if i.running]
        if not running:
            return None
        return min(running, key=lambda i: (self._host_load(i), i.instance_id))

    def place_users(self, instances: Sequence[ServiceInstance], users: int) -> None:
        """Distribute ``users`` new sessions proportionally to host capacity.

        This models the equilibrium that least-loaded login reaches: user
        counts proportional to the capacity of the hosting servers.  The
        Figure 11 allocation with Table 4's user counts yields exactly the
        paper's dimensioning under this placement.
        """
        running = [i for i in instances if i.running]
        if not running:
            raise ValueError("cannot place users: no running instances")
        capacities = np.array([self._host_capacity(i) for i in running], dtype=float)
        shares = capacities / capacities.sum()
        assigned = np.floor(shares * users).astype(int)
        remainder = users - int(assigned.sum())
        # hand out the rounding remainder to the largest shares first
        order = np.argsort(-shares)
        for index in order[:remainder]:
            assigned[index] += 1
        for instance, extra in zip(running, assigned):
            instance.users += int(extra)

    # -- forced reassignment ----------------------------------------------------------

    def displace_users(
        self,
        from_instance: ServiceInstance,
        remaining: Sequence[ServiceInstance],
    ) -> int:
        """Reconnect all users of a stopping instance to the least-loaded
        remaining instances (capacity-proportionally).  Returns the number
        of displaced users; they are dropped if no instance remains.
        """
        displaced = from_instance.users
        from_instance.users = 0
        running = [i for i in remaining if i.running and i is not from_instance]
        if running and displaced:
            self.place_users(running, displaced)
        return displaced

    # -- constrained-mobility fluctuation ------------------------------------------------

    def fluctuate(
        self,
        instances: Sequence[ServiceInstance],
        rate: float,
        rng: np.random.Generator,
    ) -> int:
        """One minute of user fluctuation.

        Each connected user independently logs off with probability
        ``rate`` and reconnects to the currently least-loaded instance.
        Returns the number of users that moved.  Conserves total users.
        """
        running = [i for i in instances if i.running]
        if len(running) < 2 or rate <= 0.0:
            return 0
        moved = 0
        departures = [
            int(rng.binomial(i.users, rate)) if i.users else 0 for i in running
        ]
        for instance, leaving in zip(running, departures):
            instance.users -= leaving
            moved += leaving
        if moved:
            # host load follows ``users`` only once the workload model recomputes
            # demands, later in the tick: every user finds the same instance
            target = self.least_loaded(running)
            assert target is not None
            target.users += moved
        return moved

    # -- full-mobility redistribution --------------------------------------------------

    def redistribute_equally(self, instances: Sequence[ServiceInstance]) -> None:
        """Redistribute all users of a service across its instances so
        that every instance ends up *equally loaded*.

        This is the paper's full-mobility behaviour after instance-set
        changes ("the users are equally redistributed across all
        instances").  We interpret "equally" as equal resulting load:
        shares are proportional to the capacity of the hosting servers —
        a literal equal head-count would saturate a PI=1 blade with the
        same share a PI=9 server shrugs off, which contradicts the
        paper's observation that controller effects are visible
        "almost instantly".  Conserves the total user count exactly.
        """
        running = [i for i in instances if i.running]
        if not running:
            return
        total = sum(i.users for i in running)
        for instance in running:
            instance.users = 0
        if total:
            self.place_users(running, total)
