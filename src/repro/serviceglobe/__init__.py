"""ServiceGlobe platform substrate.

AutoGlobe is built on the ServiceGlobe platform (Section 2 of the paper):
services are virtualized via service IP addresses, decoupled from servers,
and can be instantiated during runtime on arbitrary service hosts.  This
package models that platform in-process, with one copy of placement:

* :mod:`repro.serviceglobe.landscape_state` — the columns every host,
  service and instance handle reads and writes,
* :mod:`repro.serviceglobe.host` — service hosts with capacity bookkeeping,
* :mod:`repro.serviceglobe.service` — service definitions, instances and
  the virtual service IP an instance keeps wherever it runs,
* :mod:`repro.serviceglobe.dispatcher` — user-session routing policies,
* :mod:`repro.serviceglobe.actions` — the nine management actions,
* :mod:`repro.serviceglobe.platform` — the federation executing actions,
* :mod:`repro.serviceglobe.executor` — retries, timeouts and compensation,
* :mod:`repro.serviceglobe.transactions` — all-or-nothing rearrangements.
"""

from repro.serviceglobe.actions import (
    ActionError,
    ActionNotAllowed,
    ActionOutcome,
    ConstraintViolation,
    NoSuchTarget,
    TransientActionFailure,
)
from repro.serviceglobe.executor import ActionExecutor, ExecutionFaults, RetryPolicy
from repro.serviceglobe.dispatcher import Dispatcher, UserDistribution
from repro.serviceglobe.host import ServiceHost
from repro.serviceglobe.platform import Platform
from repro.serviceglobe.service import (
    InstanceState,
    ServiceDefinition,
    ServiceInstance,
    VirtualIP,
)
from repro.serviceglobe.transactions import PlatformTransaction

__all__ = [
    "ActionError",
    "ActionExecutor",
    "ActionNotAllowed",
    "ActionOutcome",
    "ConstraintViolation",
    "Dispatcher",
    "ExecutionFaults",
    "InstanceState",
    "NoSuchTarget",
    "Platform",
    "PlatformTransaction",
    "RetryPolicy",
    "ServiceDefinition",
    "ServiceHost",
    "ServiceInstance",
    "TransientActionFailure",
    "UserDistribution",
    "VirtualIP",
]
