"""ServiceGlobe platform substrate.

AutoGlobe is built on the ServiceGlobe platform (Section 2 of the paper):
services are virtualized via service IP addresses, decoupled from servers,
and can be instantiated during runtime on arbitrary service hosts.  This
package models that platform in-process:

* :mod:`repro.serviceglobe.network` — virtual service IPs bound to host NICs,
* :mod:`repro.serviceglobe.host` — service hosts with capacity bookkeeping,
* :mod:`repro.serviceglobe.service` — service definitions and instances,
* :mod:`repro.serviceglobe.registry` — the service registry (UDDI-style lookup),
* :mod:`repro.serviceglobe.dispatcher` — user-session routing policies,
* :mod:`repro.serviceglobe.actions` — the nine management actions,
* :mod:`repro.serviceglobe.platform` — the federation executing actions.
"""

from repro.serviceglobe.code import CodeBundle, CodeRepository
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
from repro.serviceglobe.network import NetworkFabric, VirtualIP
from repro.serviceglobe.platform import Platform
from repro.serviceglobe.registry import ServiceRegistry
from repro.serviceglobe.service import InstanceState, ServiceDefinition, ServiceInstance
from repro.serviceglobe.transactions import PlatformTransaction

__all__ = [
    "ActionError",
    "ActionExecutor",
    "ActionNotAllowed",
    "ActionOutcome",
    "CodeBundle",
    "CodeRepository",
    "ConstraintViolation",
    "Dispatcher",
    "ExecutionFaults",
    "InstanceState",
    "NetworkFabric",
    "NoSuchTarget",
    "Platform",
    "PlatformTransaction",
    "RetryPolicy",
    "ServiceDefinition",
    "ServiceHost",
    "ServiceInstance",
    "ServiceRegistry",
    "TransientActionFailure",
    "UserDistribution",
    "VirtualIP",
]
