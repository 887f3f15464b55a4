"""Simulation environment modelling a realistic SAP installation (Section 5).

The simulated installation comprises the ERP, CRM and BW subsystems with
their application servers, central instances and databases on the
Figure 11 hardware.  A varying number of users generates requests whose
load follows predetermined daily patterns (Figure 10); the course of a
request is modelled by forwarding demand from the application server to
the subsystem's central instance (lock management) and database.

Scenarios: ``STATIC`` (no controller actions), ``CONSTRAINED_MOBILITY``
(scale-in/scale-out for application servers, sticky users with slow
fluctuation) and ``FULL_MOBILITY`` (relocation actions everywhere,
dynamic user redistribution) — Tables 5 and 6.
"""

from repro.sim.capacity import CapacityResult, capacity_search
from repro.sim.clock import format_minute
from repro.sim.export import export_all
from repro.sim.faults import FaultInjector, FaultRecord
from repro.sim.loadcurves import available_profiles, profile_value
from repro.sim.results import (
    DowntimeEpisode,
    OverloadEpisode,
    ServiceAvailability,
    SimulationResult,
    SlaPolicy,
)
from repro.sim.runner import SimulationRunner
from repro.sim.scenarios import (
    ChaosProfile,
    Scenario,
    default_chaos,
    scenario_landscape,
)
from repro.sim.workload import WorkloadModel

__all__ = [
    "CapacityResult",
    "ChaosProfile",
    "DowntimeEpisode",
    "FaultInjector",
    "FaultRecord",
    "OverloadEpisode",
    "Scenario",
    "ServiceAvailability",
    "SimulationResult",
    "SimulationRunner",
    "SlaPolicy",
    "WorkloadModel",
    "available_profiles",
    "capacity_search",
    "default_chaos",
    "export_all",
    "format_minute",
    "profile_value",
    "scenario_landscape",
]
