"""Parse landscape descriptions from XML.

Example document::

    <landscape name="sap-medium">
      <controller overloadThreshold="0.7" overloadWatchTime="10"
                  idleThresholdBase="0.125" idleWatchTime="20"
                  protectionTime="30" minApplicability="0.1"
                  mode="automatic"/>
      <servers>
        <server name="Blade1" performanceIndex="1" cpus="1"
                cpuClockMhz="933" cpuCacheKb="512" memoryMb="2048"
                swapSpaceMb="4096" tempSpaceMb="10240" category="FSC-BX300"/>
      </servers>
      <services>
        <service name="FI" kind="application-server" subsystem="ERP">
          <workload users="600" profile="workday" loadPerUser="0.005"
                    basicLoad="0.02" ciCostPerUser="0.0002"
                    dbCostPerUser="0.0023" memoryPerInstanceMb="1024"
                    fluctuationRate="0.003"/>
          <constraints minInstances="2" maxInstances="8"
                       minPerformanceIndex="0" exclusive="false">
            <allowedActions>scaleIn scaleOut</allowedActions>
          </constraints>
          <rules trigger="serviceOverloaded">
            IF cpuLoad IS high THEN scaleOut IS applicable
          </rules>
        </service>
      </services>
      <allocation>
        <instance service="FI" host="Blade3"/>
      </allocation>
      <controlDomains>
        <controlDomain name="erp">
          <server name="Blade1"/>
        </controlDomain>
      </controlDomains>
    </landscape>

``<controlDomains>`` is optional: without it the landscape forms one
implicit control domain spanning every server.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.config.model import (
    Action,
    ControlDomainSpec,
    ControllerMode,
    ControllerSettings,
    LandscapeSpec,
    ServerSpec,
    ServiceConstraints,
    ServiceKind,
    ServiceSpec,
    WorkloadSpec,
)

__all__ = ["LandscapeParseError", "landscape_from_xml", "load_landscape"]


class LandscapeParseError(ValueError):
    """Raised for malformed landscape XML."""


def _require(element: ET.Element, attribute: str) -> str:
    value = element.get(attribute)
    if value is None:
        raise LandscapeParseError(
            f"<{element.tag}> is missing required attribute {attribute!r}"
        )
    return value


def _float(element: ET.Element, attribute: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise LandscapeParseError(
            f"<{element.tag}> attribute {attribute!r}: {raw!r} is not a number"
        ) from None
    if not math.isfinite(value):
        raise LandscapeParseError(
            f"<{element.tag}> attribute {attribute!r}: {raw!r} is not a finite number"
        )
    return value


def _int(element: ET.Element, attribute: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise LandscapeParseError(
            f"<{element.tag}> attribute {attribute!r}: {raw!r} is not an integer"
        ) from None


def _get_float(element: ET.Element, attribute: str, default: float) -> float:
    raw = element.get(attribute)
    return default if raw is None else _float(element, attribute, raw)


def _get_int(element: ET.Element, attribute: str, default: int) -> int:
    raw = element.get(attribute)
    return default if raw is None else _int(element, attribute, raw)


def _get_bool(element: ET.Element, attribute: str, default: bool) -> bool:
    raw = element.get(attribute)
    if raw is None:
        return default
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise LandscapeParseError(
        f"<{element.tag}> attribute {attribute!r}: {raw!r} is not a boolean"
    )


def _parse_controller(element: Optional[ET.Element]) -> ControllerSettings:
    if element is None:
        return ControllerSettings()
    mode_raw = element.get("mode", ControllerMode.AUTOMATIC.value)
    try:
        mode = ControllerMode(mode_raw)
    except ValueError:
        raise LandscapeParseError(f"unknown controller mode {mode_raw!r}") from None
    return ControllerSettings(
        overload_threshold=_get_float(element, "overloadThreshold", 0.70),
        overload_watch_time=_get_int(element, "overloadWatchTime", 10),
        idle_threshold_base=_get_float(element, "idleThresholdBase", 0.125),
        idle_watch_time=_get_int(element, "idleWatchTime", 20),
        protection_time=_get_int(element, "protectionTime", 30),
        min_applicability=_get_float(element, "minApplicability", 0.10),
        mode=mode,
    )


def _parse_server(element: ET.Element) -> ServerSpec:
    return ServerSpec(
        name=_require(element, "name"),
        performance_index=_float(
            element, "performanceIndex", _require(element, "performanceIndex")
        ),
        num_cpus=_get_int(element, "cpus", 1),
        cpu_clock_mhz=_get_float(element, "cpuClockMhz", 1000.0),
        cpu_cache_kb=_get_float(element, "cpuCacheKb", 512.0),
        memory_mb=_get_int(element, "memoryMb", 2048),
        swap_space_mb=_get_int(element, "swapSpaceMb", 4096),
        temp_space_mb=_get_int(element, "tempSpaceMb", 10240),
        category=element.get("category", "server"),
    )


def _parse_constraints(element: Optional[ET.Element]) -> ServiceConstraints:
    if element is None:
        return ServiceConstraints()
    actions_element = element.find("allowedActions")
    allowed = frozenset(
        Action.from_name(token)
        for token in (actions_element.text or "").split()
    ) if actions_element is not None else frozenset()
    max_instances_raw = element.get("maxInstances")
    return ServiceConstraints(
        exclusive=_get_bool(element, "exclusive", False),
        min_performance_index=_get_float(element, "minPerformanceIndex", 0.0),
        min_instances=_get_int(element, "minInstances", 1),
        max_instances=(
            None if max_instances_raw is None
            else _int(element, "maxInstances", max_instances_raw)
        ),
        allowed_actions=allowed,
    )


def _parse_workload(element: Optional[ET.Element]) -> WorkloadSpec:
    if element is None:
        return WorkloadSpec()
    return WorkloadSpec(
        users=_get_int(element, "users", 0),
        profile=element.get("profile", "workday"),
        load_per_user=_get_float(element, "loadPerUser", 0.005),
        basic_load=_get_float(element, "basicLoad", 0.02),
        ci_cost_per_user=_get_float(element, "ciCostPerUser", 0.0),
        db_cost_per_user=_get_float(element, "dbCostPerUser", 0.0),
        batch=_get_bool(element, "batch", False),
        memory_per_instance_mb=_get_int(element, "memoryPerInstanceMb", 1024),
        fluctuation_rate=_get_float(element, "fluctuationRate", 0.003),
    )


def _parse_service(element: ET.Element) -> ServiceSpec:
    kind_raw = element.get("kind", ServiceKind.APPLICATION_SERVER.value)
    try:
        kind = ServiceKind(kind_raw)
    except ValueError:
        raise LandscapeParseError(f"unknown service kind {kind_raw!r}") from None
    rule_overrides: Dict[str, str] = {}
    for rules_element in element.findall("rules"):
        trigger = _require(rules_element, "trigger")
        rule_overrides[trigger] = (rules_element.text or "").strip()
    suppressions = frozenset(
        (element.get("lintIgnore") or "").replace(",", " ").split()
    )
    return ServiceSpec(
        name=_require(element, "name"),
        kind=kind,
        subsystem=element.get("subsystem", ""),
        constraints=_parse_constraints(element.find("constraints")),
        workload=_parse_workload(element.find("workload")),
        rule_overrides=rule_overrides,
        lint_suppressions=suppressions,
    )


def _parse_domains(element: Optional[ET.Element]) -> List[ControlDomainSpec]:
    if element is None:
        return []
    domains = []
    for domain_element in element.findall("controlDomain"):
        name = _require(domain_element, "name")
        servers = tuple(
            _require(server, "name") for server in domain_element.findall("server")
        )
        domains.append(ControlDomainSpec(name=name, servers=servers))
    seen: set = set()
    for domain in domains:
        if domain.name in seen:
            raise LandscapeParseError(
                f"duplicate control domain name {domain.name!r}"
            )
        seen.add(domain.name)
    assigned: Dict[str, str] = {}
    for domain in domains:
        for server in domain.servers:
            if server in assigned:
                raise LandscapeParseError(
                    f"server {server!r} assigned to both control domains "
                    f"{assigned[server]!r} and {domain.name!r}"
                )
            assigned[server] = domain.name
    return domains


def _parse_allocation(element: Optional[ET.Element]) -> List[Tuple[str, str]]:
    if element is None:
        return []
    allocation = []
    for instance in element.findall("instance"):
        allocation.append((_require(instance, "service"), _require(instance, "host")))
    return allocation


def landscape_from_xml(text: str) -> LandscapeSpec:
    """Parse a landscape description from an XML string.

    Every refusal is a :class:`LandscapeParseError`, the model's own
    validation (a server without CPUs, a negative instance bound) too.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise LandscapeParseError(f"not well-formed XML: {exc}") from exc
    if root.tag != "landscape":
        raise LandscapeParseError(
            f"expected <landscape> document root, got <{root.tag}>"
        )
    try:
        return _parse_landscape(root)
    except LandscapeParseError:
        raise
    except ValueError as exc:
        raise LandscapeParseError(str(exc)) from exc


def _parse_landscape(root: ET.Element) -> LandscapeSpec:
    servers_element = root.find("servers")
    services_element = root.find("services")
    return LandscapeSpec(
        name=_require(root, "name"),
        servers=[
            _parse_server(e)
            for e in (servers_element.findall("server") if servers_element is not None else [])
        ],
        services=[
            _parse_service(e)
            for e in (services_element.findall("service") if services_element is not None else [])
        ],
        initial_allocation=_parse_allocation(root.find("allocation")),
        controller=_parse_controller(root.find("controller")),
        domains=_parse_domains(root.find("controlDomains")),
    )


def load_landscape(path: Union[str, Path]) -> LandscapeSpec:
    """Load a landscape description from an XML file."""
    return landscape_from_xml(Path(path).read_text(encoding="utf-8"))
