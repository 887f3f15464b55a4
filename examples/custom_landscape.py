"""Describing a landscape in the declarative XML language.

The paper describes services and servers "using a declarative XML
language": performance metadata, capability constraints (exclusive,
minimum performance index, instance bounds, allowed actions) and even
service-specific fuzzy rules.  This example authors a small e-commerce
landscape in XML, loads and validates it, and lets the controller manage
it — including a mission-critical rule override that favors priority
boosts for the checkout service.

Run with:  python examples/custom_landscape.py
"""

from repro.config import landscape_from_xml, validate_landscape
from repro.core.federation import FederatedControlPlane
from repro.ops.api import OpsBridge
from repro.ops.console import render_snapshot
from repro.serviceglobe.platform import Platform

LANDSCAPE_XML = """
<landscape name="webshop">
  <controller overloadThreshold="0.7" overloadWatchTime="5"
              idleThresholdBase="0.125" idleWatchTime="10"
              protectionTime="15" minApplicability="0.1" mode="automatic"/>
  <servers>
    <server name="web1" performanceIndex="1" cpus="1" memoryMb="2048"
            category="web-tier"/>
    <server name="web2" performanceIndex="1" cpus="1" memoryMb="2048"
            category="web-tier"/>
    <server name="app1" performanceIndex="2" cpus="2" memoryMb="4096"
            category="app-tier"/>
    <server name="db1" performanceIndex="9" cpus="4" memoryMb="12288"
            category="db-tier"/>
  </servers>
  <services>
    <service name="storefront" kind="application-server" subsystem="shop">
      <workload users="250" profile="crm" loadPerUser="0.005"
                ciCostPerUser="0.0002" dbCostPerUser="0.002"
                memoryPerInstanceMb="1024"/>
      <constraints minInstances="1">
        <allowedActions>scaleIn scaleOut scaleUp scaleDown move</allowedActions>
      </constraints>
    </service>
    <service name="checkout" kind="application-server" subsystem="shop">
      <workload users="120" profile="crm" loadPerUser="0.005"
                dbCostPerUser="0.003" memoryPerInstanceMb="1024"/>
      <constraints minInstances="1">
        <allowedActions>scaleOut scaleIn increasePriority</allowedActions>
      </constraints>
      <rules trigger="serviceOverloaded">
        # mission critical: prefer a priority boost over anything else
        IF cpuLoad IS high THEN increasePriority IS applicable
      </rules>
    </service>
    <service name="orders-db" kind="database" subsystem="shop">
      <workload basicLoad="0.4" memoryPerInstanceMb="6144"/>
      <constraints exclusive="true" minPerformanceIndex="5" maxInstances="1"/>
    </service>
  </services>
  <allocation>
    <instance service="storefront" host="web1"/>
    <instance service="checkout" host="web2"/>
    <instance service="orders-db" host="db1"/>
  </allocation>
</landscape>
"""


def main() -> None:
    landscape = landscape_from_xml(LANDSCAPE_XML)
    validate_landscape(landscape)
    print(f"loaded landscape {landscape.name!r}: "
          f"{len(landscape.servers)} servers, {len(landscape.services)} services")

    platform = Platform(landscape)
    # the landscape declares no control domains: one domain, one controller
    controller = FederatedControlPlane(platform)
    # the controller console (Figure 8): its messages are the alerts the
    # bridge sees on the bus, so it listens from the start
    bridge = OpsBridge(platform, controller)
    bridge.attach(platform.bus)

    # saturate the checkout host; the service-specific rule base makes the
    # controller reach for a priority boost before structural actions
    checkout = platform.service("checkout").running_instances[0]
    for minute in range(8):
        checkout.demand = 0.92
        for outcome in controller.tick(minute):
            print(f"minute {minute}: {outcome}")

    print(f"checkout priority is now {platform.service('checkout').priority} "
          f"(neutral is 5)")
    print()
    # the frame `autoglobe console` prints
    bridge.refresh(7)
    print(render_snapshot(*map(bridge.snapshot, ("landscape", "situations", "approvals"))))


if __name__ == "__main__":
    main()
