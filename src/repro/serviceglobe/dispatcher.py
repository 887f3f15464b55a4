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

The dispatcher implements placement (used to seed every scenario),
forced reassignment when an instance stops and redistribution;
:class:`Fluctuation` is the sticky-session minute over the running
instances of many services at once, as columns.  Load comparisons use
demand-per-capacity of the hosting server so that a PI=2 blade attracts
twice the users of a PI=1 blade at equal load.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.serviceglobe.landscape_state import Segments
from repro.serviceglobe.service import ServiceInstance

__all__ = ["UserDistribution", "Dispatcher", "Fluctuation"]


class UserDistribution(enum.Enum):
    """Session policy applied after controller actions."""

    STICKY = "sticky"
    REDISTRIBUTE = "redistribute"


#: Returns the CPU capacity (performance index) of an instance's host.
CapacityProbe = Callable[[ServiceInstance], float]


class Dispatcher:
    """Routes user sessions of one platform to service instances."""

    def __init__(self, host_capacity: CapacityProbe) -> None:
        self._host_capacity = host_capacity

    # -- placement ----------------------------------------------------------------

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


# -- constrained-mobility fluctuation -----------------------------------------------------


class Fluctuation:
    """The sticky-session minute of many services, laid out for one topology.

    ``services`` gives, per service in draw order, its fluctuation rate,
    the positions of its running instances in a users column (creation
    order) and their instance ids.  Services with a positive rate and at
    least two running instances fluctuate: :attr:`entries` lists their
    positions, :attr:`rates` each entry's rate, and ``choice`` groups
    the entries by service in instance-id order, the order that breaks
    ties between equally loaded hosts.
    """

    __slots__ = ("entries", "rates", "choice")

    def __init__(self, services: Iterable[Tuple[float, Sequence[int], Sequence[str]]]) -> None:
        entries: List[int] = []
        rates: List[float] = []
        choice: List[List[int]] = []
        for rate, positions, ids in services:
            if rate > 0.0 and len(positions) >= 2:
                first = len(entries)
                entries.extend(positions)
                rates.extend([rate] * len(positions))
                choice.append(sorted(range(first, len(entries)), key=lambda k: ids[k - first]))
        self.entries = np.array(entries, dtype=np.int64)
        self.rates = np.array(rates, dtype=np.float64)
        self.choice = Segments(choice)

    def move(
        self,
        users: npt.NDArray[np.int64],
        loads: npt.NDArray[np.float64],
        rng: np.random.Generator,
    ) -> Tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
        """One minute of user fluctuation of every fluctuating service.

        ``users`` holds the users of :attr:`entries`, ``loads`` the CPU
        load of each entry's host.  Each connected user independently
        logs off with its service's probability and reconnects to the
        service's least-loaded instance, ties going to the lowest
        instance id: host load follows users only once the workload
        model recomputes demands, later in the tick, so every user of a
        service finds the same instance.  Returns the entries' users
        afterwards and the users each service moved; conserves every
        service's users.

        One ``binomial`` call draws every departure in entry order.
        numpy draws each element with the routine a scalar call uses,
        and an instance without users draws nothing, so the stream moves
        exactly as one scalar draw per connected instance would move it.
        """
        if not len(self.entries):
            return users.copy(), np.zeros(0, dtype=np.int64)
        leaving = rng.binomial(users, self.rates)
        moved = self.choice.sums(leaving)
        after = users - leaving
        after[self.choice.first_minimum(loads)] += moved
        return after, moved
