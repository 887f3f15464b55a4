"""Explicit reservations for mission-critical tasks.

"First, we will enhance the controller in such a way that it can manage
explicit reservations, i.e., that an administrator can register
mission-critical tasks along with their resource requirements."
(Section 7)

A reservation blocks CPU headroom on a host for a time window.  The
:class:`ReservationBook` integrates with server selection: candidate
hosts are scored against their *effective* load including reserved
capacity, so the controller never parks new instances on capacity that
a mission-critical task is about to claim.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Reservation", "ReservationBook"]

_reservation_ids = itertools.count(1)


@dataclass(frozen=True)
class Reservation:
    """Reserved CPU capacity on one host for a time window."""

    host_name: str
    demand: float  # in performance-index units
    start: int
    end: int  # inclusive
    label: str = ""
    reservation_id: int = field(default_factory=lambda: next(_reservation_ids))

    def __post_init__(self) -> None:
        if self.demand <= 0:
            raise ValueError("a reservation must claim positive demand")
        if self.end < self.start:
            raise ValueError(
                f"reservation window [{self.start}, {self.end}] is empty"
            )

    def active_at(self, minute: int) -> bool:
        return self.start <= minute <= self.end

    def overlaps(self, start: int, end: int) -> bool:
        return self.start <= end and start <= self.end


class ReservationBook:
    """Registry of reservations with per-host capacity accounting."""

    def __init__(self) -> None:
        self._by_host: Dict[str, List[Reservation]] = {}

    def register(self, reservation: Reservation) -> Reservation:
        self._by_host.setdefault(reservation.host_name, []).append(reservation)
        return reservation

    def cancel(self, reservation_id: int) -> bool:
        for reservations in self._by_host.values():
            for reservation in reservations:
                if reservation.reservation_id == reservation_id:
                    reservations.remove(reservation)
                    return True
        return False

    def reserved_demand(self, host_name: str, minute: int) -> float:
        """Total demand reserved on a host at one minute."""
        return sum(
            r.demand
            for r in self._by_host.get(host_name, [])
            if r.active_at(minute)
        )

    def peak_reserved_demand(
        self, host_name: str, start: int, end: int
    ) -> float:
        """Worst-case concurrent reservation in a window.

        Evaluated at window boundaries and reservation edges, which is
        sufficient for piecewise-constant demand.
        """
        candidates = {start, end}
        for reservation in self._by_host.get(host_name, []):
            if reservation.overlaps(start, end):
                candidates.add(max(reservation.start, start))
                candidates.add(min(reservation.end, end))
        return max(
            (self.reserved_demand(host_name, minute) for minute in candidates),
            default=0.0,
        )

    def effective_cpu_load(
        self,
        host_name: str,
        raw_load: float,
        capacity: float,
        minute: int,
        horizon: int = 0,
    ) -> float:
        """Host load as the controller should see it: measured load plus
        the reserved share of capacity (now, or the peak within
        ``horizon`` minutes ahead)."""
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if horizon > 0:
            reserved = self.peak_reserved_demand(host_name, minute, minute + horizon)
        else:
            reserved = self.reserved_demand(host_name, minute)
        return min(raw_load + reserved / capacity, 1.0)
