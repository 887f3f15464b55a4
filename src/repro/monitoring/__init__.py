"""Monitoring framework (Figure 2 of the paper).

Load monitors run for every server and every service instance; advisors
read their newest measurements and maintain an up-to-date local view of
the load situation.  Both are columns of the controller's tick
(:class:`~repro.core.autoglobe.AutoGlobeController`): one vectorized
read per monitor family, one threshold comparison for the advisors.
Imminent overload (or idle) situations are reported
to the load monitoring system, which observes the load for a tunable
``watchTime`` and triggers the fuzzy controller only for *real*
situations, filtering out the short load peaks that are common in real
systems.  A load archive stores aggregated historic load data: the only
store of samples, from which the LMS reads its watch windows.
"""

from repro.monitoring.heartbeat import HeartbeatDetector
from repro.monitoring.archive import InMemoryLoadArchive, LoadArchive, SqliteLoadArchive
from repro.monitoring.lms import (
    LoadMonitoringSystem,
    Observation,
    Situation,
    SituationKind,
)

__all__ = [
    "HeartbeatDetector",
    "InMemoryLoadArchive",
    "LoadArchive",
    "LoadMonitoringSystem",
    "Observation",
    "Situation",
    "SituationKind",
    "SqliteLoadArchive",
]
