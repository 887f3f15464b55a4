"""Ablation: fuzzy controller vs. a crisp threshold-rule controller.

The paper positions AutoGlobe against vendor infrastructures whose
"automatic administration [...] is mostly rule-based and not as flexible
as our fuzzy controller".  The crisp baseline
(:class:`repro.core.crisp.CrispThresholdController`) shares thresholds,
watch times and protection with AutoGlobe but always reacts the same way
(scale-out to the least-loaded host; scale-in when idle), with no graded
applicability and no fuzzy host scoring.
"""

import pytest

from repro.core.crisp import CrispThresholdController
from repro.core.failover import ControllerSupervisor
from repro.sim.clock import MINUTES_PER_DAY
from repro.sim.runner import SimulationRunner
from repro.sim.scenarios import Scenario


class CrispSupervisor(ControllerSupervisor):
    def _new_controller(self):
        controller = CrispThresholdController(self.platform, self.settings, self._enabled)
        self.replicas.append(controller)
        return controller


def run_controller(crisp: bool):
    factory = None
    if crisp:
        factory = lambda platform, settings, enabled, store: CrispSupervisor(
            platform, settings=settings, enabled=enabled, store=store
        )
    runner = SimulationRunner(
        Scenario.CONSTRAINED_MOBILITY,
        user_factor=1.15,
        horizon=2 * MINUTES_PER_DAY,
        seed=7,
        collect_host_series=False,
        controller_factory=factory,
    )
    return runner.run()


@pytest.mark.benchmark(group="ablation")
def test_ablation_crisp_vs_fuzzy(benchmark):
    def experiment():
        return run_controller(crisp=False), run_controller(crisp=True)

    fuzzy, crisp = benchmark.pedantic(experiment, rounds=1, iterations=1)

    print("\nAblation — fuzzy vs. crisp controller (CM @ 115%, two days)")
    for label, result in (("fuzzy", fuzzy), ("crisp", crisp)):
        print(
            f"  {label}: {result.overload_minutes_per_day:6.0f} degraded min/day, "
            f"{len(result.actions):>3} actions, "
            f"longest episode {result.longest_episode} min"
        )

    # the fuzzy controller's graded action/host choice handles the same
    # workload with clearly less degraded service
    assert fuzzy.overload_minutes_per_day < 0.7 * crisp.overload_minutes_per_day
