"""Semantic validation of landscape descriptions.

The XML loader only checks syntax; this module checks cross-references
and feasibility before a landscape is handed to the platform:

* unique server and service names,
* allocation entries referencing known servers and services,
* allocated hosts satisfying each service's minimum performance index,
* exclusivity respected by the initial allocation,
* instance counts within the services' min/max bounds,
* aggregate memory fitting on every host,
* service-specific rule overrides passing the rule-base linter: they
  must parse under the fuzzy rule DSL, name a known trigger and only
  reference declared variables and terms
  (see :mod:`repro.analysis.rulebase`).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

from repro.config.model import LandscapeSpec

__all__ = ["ValidationError", "validate_landscape"]


class ValidationError(ValueError):
    """Raised when a landscape description is semantically inconsistent.

    Collects *all* problems found, not just the first one, so an
    administrator can fix a description in one pass.
    """

    def __init__(self, problems: List[str]) -> None:
        self.problems = list(problems)
        super().__init__(
            "invalid landscape description:\n"
            + "\n".join(f"  - {p}" for p in self.problems)
        )


def validate_landscape(landscape: LandscapeSpec) -> None:
    """Validate a landscape; raise :class:`ValidationError` on problems."""
    problems: List[str] = []

    server_names = [s.name for s in landscape.servers]
    service_names = [s.name for s in landscape.services]
    for kind, names in (("server", server_names), ("service", service_names)):
        duplicates = [name for name, count in Counter(names).items() if count > 1]
        for name in sorted(duplicates):
            problems.append(f"duplicate {kind} name {name!r}")

    servers = {s.name: s for s in landscape.servers}
    services = {s.name: s for s in landscape.services}

    instance_count: Dict[str, int] = {name: 0 for name in services}
    hosts_of_service: Dict[str, List[str]] = {name: [] for name in services}
    services_on_host: Dict[str, List[str]] = {name: [] for name in servers}
    memory_on_host: Dict[str, int] = {name: 0 for name in servers}

    for service_name, host_name in landscape.initial_allocation:
        service = services.get(service_name)
        server = servers.get(host_name)
        if service is None:
            problems.append(f"allocation references unknown service {service_name!r}")
        if server is None:
            problems.append(f"allocation references unknown server {host_name!r}")
        if service is None or server is None:
            continue
        instance_count[service_name] += 1
        hosts_of_service[service_name].append(host_name)
        services_on_host[host_name].append(service_name)
        memory_on_host[host_name] += service.workload.memory_per_instance_mb
        if server.performance_index < service.constraints.min_performance_index:
            problems.append(
                f"service {service_name!r} requires performance index >= "
                f"{service.constraints.min_performance_index}, but is allocated "
                f"on {host_name!r} (index {server.performance_index})"
            )

    for service_name, service in services.items():
        count = instance_count[service_name]
        constraints = service.constraints
        if count < constraints.min_instances:
            problems.append(
                f"service {service_name!r} needs at least "
                f"{constraints.min_instances} instances, allocation has {count}"
            )
        if constraints.max_instances is not None and count > constraints.max_instances:
            problems.append(
                f"service {service_name!r} allows at most "
                f"{constraints.max_instances} instances, allocation has {count}"
            )
        if constraints.exclusive:
            for host_name in hosts_of_service[service_name]:
                others = [s for s in services_on_host[host_name] if s != service_name]
                if others:
                    problems.append(
                        f"service {service_name!r} is exclusive but shares "
                        f"{host_name!r} with {', '.join(sorted(set(others)))}"
                    )

    for host_name, used_mb in memory_on_host.items():
        server = servers[host_name]
        if used_mb > server.memory_mb:
            problems.append(
                f"server {host_name!r} has {server.memory_mb} MB memory but the "
                f"initial allocation requires {used_mb} MB"
            )

    # Imported lazily: repro.analysis depends on repro.config.model, so a
    # top-level import here would close a cycle through config/__init__.
    from repro.analysis.diagnostics import Severity
    from repro.analysis.rulebase import lint_override_text

    for service_name, service in services.items():
        for trigger, text in service.rule_overrides.items():
            diagnostics, _ = lint_override_text(service, trigger, text)
            for diagnostic in diagnostics:
                if diagnostic.severity is not Severity.ERROR:
                    continue
                if diagnostic.code in service.lint_suppressions:
                    continue
                problems.append(
                    f"service {service_name!r}, rules for trigger {trigger!r}: "
                    f"[{diagnostic.code}] {diagnostic.message}"
                )

    if problems:
        raise ValidationError(problems)
