"""Ablations: watch-time filtering and protection mode.

DESIGN.md calls out two anti-oscillation mechanisms for ablation:

* **watchTime** (Section 2): without the 10-minute observation window,
  the controller reacts to the short load peaks that are "quite common"
  in real systems, producing an "unsettled and instable system" — many
  more actions for no capacity benefit.
* **Protection mode** (Section 4): without the 30-minute protection of
  involved services and servers, the controller re-acts on the same
  subjects immediately, "moving services back and forth".

Both ablations run one simulated day of the constrained-mobility /
full-mobility scenario at 115% users and compare action volumes.
"""

import dataclasses

import pytest

from repro.config.model import ControllerSettings
from repro.sim.clock import MINUTES_PER_DAY
from repro.sim.runner import SimulationRunner
from repro.sim.scenarios import Scenario
from repro.telemetry.records import TOPIC_SITUATIONS, SituationPhase


def run_with_settings(scenario, **setting_overrides):
    settings = dataclasses.replace(ControllerSettings(), **setting_overrides)
    runner = SimulationRunner(
        scenario,
        user_factor=1.15,
        horizon=MINUTES_PER_DAY,
        seed=7,
        collect_host_series=False,
        controller_settings=settings,
    )
    confirmed = []

    def on_situation(envelope):
        if envelope.record.phase is SituationPhase.CONFIRMED:
            confirmed.append(envelope.record)

    runner.platform.bus.subscribe(TOPIC_SITUATIONS, on_situation)
    result = runner.run()
    return result, len(confirmed)


@pytest.mark.benchmark(group="ablation")
def test_ablation_watchtime(benchmark):
    def experiment():
        with_watch = run_with_settings(
            Scenario.CONSTRAINED_MOBILITY, overload_watch_time=10, idle_watch_time=20
        )
        without_watch = run_with_settings(
            Scenario.CONSTRAINED_MOBILITY, overload_watch_time=1, idle_watch_time=1
        )
        return with_watch, without_watch

    (with_watch, confirmed_with), (without_watch, confirmed_without) = (
        benchmark.pedantic(experiment, rounds=1, iterations=1)
    )

    print("\nAblation — watchTime (CM @ 115%, one day)")
    print(f"  watchTime 10/20 min: {confirmed_with:>6} confirmed situations, "
          f"{len(with_watch.actions):>4} actions, "
          f"{with_watch.overload_minutes_per_day:6.0f} degraded min/day")
    print(f"  watchTime  1/1  min: {confirmed_without:>6} confirmed situations, "
          f"{len(without_watch.actions):>4} actions, "
          f"{without_watch.overload_minutes_per_day:6.0f} degraded min/day")

    # without the observation window, every short peak becomes a confirmed
    # situation: the controller is invoked an order of magnitude more often
    # ("Immediate reaction on these peaks could lead to an unsettled and
    # instable system") ...
    assert confirmed_without > 5 * confirmed_with
    # ... while the protection mode caps the executed-action fallout, so
    # all the extra invocations buy nothing structural
    assert len(without_watch.actions) < 3 * max(len(with_watch.actions), 1)


@pytest.mark.benchmark(group="ablation")
def test_ablation_protection(benchmark):
    def experiment():
        with_protection, __ = run_with_settings(
            Scenario.FULL_MOBILITY, protection_time=30
        )
        without_protection, __ = run_with_settings(
            Scenario.FULL_MOBILITY, protection_time=0
        )
        return with_protection, without_protection

    with_protection, without_protection = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )

    print("\nAblation — protection mode (FM @ 115%, one day)")
    print(f"  protection 30 min: {len(with_protection.actions):>4} actions, "
          f"{with_protection.overload_minutes_per_day:6.0f} degraded min/day")
    print(f"  protection  0 min: {len(without_protection.actions):>4} actions, "
          f"{without_protection.overload_minutes_per_day:6.0f} degraded min/day")

    # without protection the controller thrashes: it re-acts on the same
    # subjects as soon as the next situation is confirmed, executing
    # clearly more actions without reducing degraded service
    assert len(without_protection.actions) > 1.2 * len(with_protection.actions)
    assert without_protection.overload_minutes_per_day > (
        0.7 * with_protection.overload_minutes_per_day
    )
