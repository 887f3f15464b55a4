"""Quickstart: the fuzzy controller end to end.

Reproduces the paper's Section 3 worked example with the public API —
fuzzification of crisp measurements (Figure 3), max-min inference over
the two sample rules, leftmost-maximum defuzzification (Figure 5) — and
then lets a full AutoGlobe controller remedy an overload on a tiny
two-host landscape.

Run with:  python examples/quickstart.py
"""

from repro.config.model import (
    Action,
    LandscapeSpec,
    ServerSpec,
    ServiceConstraints,
    ServiceSpec,
    WorkloadSpec,
)
from repro.core.autoglobe import AutoGlobeController
from repro.core.variables import applicability_variable, load_variable, performance_index_variable
from repro.fuzzy import FuzzyController, RuleBase, parse_rules
from repro.serviceglobe.platform import Platform
from repro.telemetry.records import TOPIC_ALERTS


def paper_worked_example() -> None:
    """Section 3: cpuLoad 0.9 and PI grades (0, 0.6, 0.3) favor scale-up."""
    rules = RuleBase(
        "paper",
        list(
            parse_rules(
                """
                IF cpuLoad IS high AND
                   (performanceIndex IS low OR performanceIndex IS medium)
                THEN scaleUp IS applicable
                IF cpuLoad IS high AND performanceIndex IS high
                THEN scaleOut IS applicable
                """
            )
        ),
    )
    controller = FuzzyController(
        [load_variable("cpuLoad"), performance_index_variable()],
        [applicability_variable("scaleUp"), applicability_variable("scaleOut")],
        rules,
    )
    # a performance index of 5.8 fuzzifies to 0.6 medium / 0.4 high, close
    # to the paper's (0.6, 0.3) illustration
    result = controller.evaluate({"cpuLoad": 0.9, "performanceIndex": 5.8})
    print("fuzzified measurements:")
    for variable, grades in result.grades.items():
        rendered = ", ".join(f"{term}={grade:.2f}" for term, grade in grades.items())
        print(f"  {variable}: {rendered}")
    print("action applicabilities:")
    for action, value in result.ranked():
        print(f"  {action}: {value:.0%}")
    print(f"the controller favors: {result.best()}\n")


def tiny_landscape() -> LandscapeSpec:
    return LandscapeSpec(
        name="quickstart",
        servers=[
            ServerSpec("small-blade", performance_index=1.0, memory_mb=2048),
            ServerSpec("big-server", performance_index=9.0, num_cpus=4,
                       memory_mb=12288),
        ],
        services=[
            ServiceSpec(
                "shop",
                constraints=ServiceConstraints(
                    min_instances=1,
                    allowed_actions=frozenset(
                        {Action.SCALE_OUT, Action.SCALE_IN, Action.SCALE_UP,
                         Action.SCALE_DOWN, Action.MOVE}
                    ),
                ),
                workload=WorkloadSpec(users=140, memory_per_instance_mb=1024),
            ),
        ],
        initial_allocation=[("shop", "small-blade")],
    )


LOAD_PER_USER = 0.0068  # one user's CPU demand in performance-index units


def self_organizing_demo() -> None:
    """Overload the blade; watch AutoGlobe scale the service out."""
    from repro.serviceglobe.dispatcher import UserDistribution

    platform = Platform(tiny_landscape(), UserDistribution.REDISTRIBUTE)
    # the controller publishes its alerts; whoever wants them subscribes
    alerts = []
    platform.bus.subscribe(TOPIC_ALERTS, lambda envelope: alerts.append(envelope.record))
    controller = AutoGlobeController(platform)
    shop = platform.service("shop")
    shop.running_instances[0].users = 140  # ~95% of the small blade
    print("driving a sustained overload on small-blade (140 users)")
    for minute in range(20):
        for running in shop.running_instances:
            running.demand = running.users * LOAD_PER_USER
        outcomes = controller.tick(minute)
        for outcome in outcomes:
            print(f"  minute {minute}: controller executed {outcome}")
        load = platform.host_cpu_load("small-blade")
        if minute in (0, 9, 10, 19):
            print(f"  minute {minute}: small-blade CPU load {load:.0%}")
    final = platform.service("shop").running_instances
    print("final placement:", ", ".join(str(i) for i in final))
    print("alerts:")
    for alert in alerts:
        print(f"  {alert}")


if __name__ == "__main__":
    paper_worked_example()
    self_organizing_demo()
