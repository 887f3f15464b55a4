"""Self-healing and feed-forward control.

Two capabilities beyond reactive load balancing:

1. **Self-healing** (Section 2: "Failure situations like a program crash
   are remedied for example with a restart") — we crash a database
   instance and an application server instance and watch the controller
   restart them, users reconnecting where possible.

2. **Feed-forward control** (Section 7 future work / the CAiSE'05
   companion paper) — after the load archive has seen a day of the
   periodic morning rush, the proactive scaler anticipates the next
   breach and scales out *before* the rush instead of paying the
   watch-time latency.

Run with:  python examples/self_healing_and_forecasting.py
"""

from repro.config.builtin import paper_landscape
from repro.core.autoglobe import AutoGlobeController
from repro.forecasting.forecast import ProactiveScaler
from repro.serviceglobe.platform import Platform
from repro.sim.clock import MINUTES_PER_DAY, format_minute
from repro.sim.scenarios import Scenario, scenario_landscape
from repro.sim.workload import NoiseParameters, WorkloadModel
from repro.telemetry.records import TOPIC_ACTIONS, TOPIC_ALERTS


def self_healing_demo() -> None:
    print("=== self-healing: crash and restart ===")
    landscape = scenario_landscape(paper_landscape(), Scenario.CONSTRAINED_MOBILITY, 1.0)
    platform = Platform(landscape)
    # the controller publishes its alerts; whoever wants them subscribes
    alerts = []
    platform.bus.subscribe(TOPIC_ALERTS, lambda envelope: alerts.append(envelope.record))
    controller = AutoGlobeController(platform)
    controller.tick(0)

    fi_instance = platform.service("FI").running_instances[0]
    fi_instance.users = 150
    print(f"crashing {fi_instance} holding {fi_instance.users} users")
    outcome = controller.report_failure(fi_instance.instance_id, now=1)
    print(f"  controller: {outcome}")
    print(f"  FI users preserved: {platform.service('FI').total_users}")

    db_instance = platform.service("DB-ERP").running_instances[0]
    print(f"crashing {db_instance} (a service that allows NO actions)")
    outcome = controller.report_failure(db_instance.instance_id, now=2)
    print(f"  controller: {outcome}  (self-healing outranks the action policy)")
    for alert in alerts:
        print(f"  {alert}")


def forecasting_demo() -> None:
    print("\n=== feed-forward: anticipating the morning rush ===")
    landscape = scenario_landscape(paper_landscape(), Scenario.FULL_MOBILITY, 1.25)
    platform = Platform(landscape)
    executed = []
    platform.bus.subscribe(
        TOPIC_ACTIONS, lambda envelope: executed.append(envelope.record.outcome)
    )
    controller = AutoGlobeController(platform)
    workload = WorkloadModel(
        platform, seed=11, noise=NoiseParameters(sigma=0.0, burst_probability=0.0)
    )
    workload.initialize()
    scaler = ProactiveScaler(controller, lookahead=45)

    proactive = []
    for now in range(2 * MINUTES_PER_DAY):
        workload.tick(now)
        controller.tick(now)
        proactive.extend(scaler.tick(now))

    print(f"anticipated situations: {len(scaler.anticipations)}")
    for outcome in proactive[:8]:
        print(f"  {format_minute(outcome.time)}  proactive: {outcome}")
    reactive = [a for a in executed if a not in proactive]
    print(f"(plus {len(reactive)} reactive controller actions)")


if __name__ == "__main__":
    self_healing_demo()
    forecasting_demo()
