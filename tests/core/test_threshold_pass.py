"""The controller's threshold pass against the deleted advisors.

Every tick, a shadow of the old monitor and advisor objects
(:mod:`tests.monitoring.advisor_oracle`) is fed the same landscape
state as the controller's column reads.  Over a seeded chaos run with
monitoring outages, crashes, moves and controller failovers, and over a
two-domain run, the controller must report the same rows and open the
same observations, in the same order — same subject, kind, threshold
and minute — as the shadow's advisors, and revive the same recovered
observations.
"""

import pytest

from repro.config.builtin import paper_landscape, partition_landscape
from repro.config.model import Action
from repro.core.autoglobe import AutoGlobeController
from repro.monitoring.lms import LoadMonitoringSystem, SituationKind
from repro.sim.runner import SimulationRunner
from repro.sim.scenarios import Scenario, controller_chaos, default_chaos
from repro.telemetry.records import TOPIC_ACTIONS, TOPIC_FAULTS
from tests.conftest import published
from tests.core.conftest import build_landscape, set_demand
from tests.monitoring.advisor_oracle import AdvisorShadow


class Shadowed:
    """Class-level wrappers pairing every controller with its shadow."""

    def __init__(self, monkeypatch):
        self.openings = []
        self.expected = []
        self.revived = 0
        self.ticks = 0
        self._shadows = {}
        self._rows = {}
        for name in ("restore_state", "_restore_observations", "_report_layout",
                     "_sample"):
            original = getattr(AutoGlobeController, name)
            monkeypatch.setattr(
                AutoGlobeController, name, self._wrap(getattr(self, name), original)
            )
        monkeypatch.setattr(
            LoadMonitoringSystem, "open_observation",
            self._wrap(self.open_observation, LoadMonitoringSystem.open_observation),
        )

    @staticmethod
    def _wrap(hook, original):
        def wrapper(owner, *args):
            return hook(original, owner, *args)
        return wrapper

    def shadow(self, controller):
        shadow = self._shadows.get(id(controller))
        if shadow is None or shadow.controller is not controller:
            shadow = self._shadows[id(controller)] = AdvisorShadow(
                controller, self.expected
            )
        return shadow

    def restore_state(self, original, controller, payload):
        original(controller, payload)
        self.shadow(controller).restored_advisor_keys = [
            (str(instance_id), str(host_name))
            for instance_id, host_name in payload.get("instance_advisors", [])
        ]

    def _restore_observations(self, original, controller):
        shadow = self.shadow(controller)
        shadow.sync()
        descriptors = list(controller._pending_observation_restores)
        before = list(controller.lms._observations)
        original(controller)
        revived = [
            (str(d["subject"]), SituationKind(str(d["kind"])))
            for d in descriptors
            if shadow.watched(d)
        ]
        assert list(controller.lms._observations) == list(
            dict.fromkeys(before + revived)
        )
        self.revived += len(revived)

    def _report_layout(self, original, controller, blind):
        self._rows[id(controller)] = self.shadow(controller).tick(
            controller.platform.current_time, blind
        )
        return original(controller, blind)

    def _sample(self, original, controller, now, layout):
        host_cpu, instance_cpu, batch = original(controller, now, layout)
        rows = self._rows.pop(id(controller))
        assert (() if batch is None else batch.rows()) == rows
        self.ticks += 1
        return host_cpu, instance_cpu, batch

    def open_observation(self, original, lms, kind, subject, metric, threshold,
                         now, watch_time, service_name=None):
        self.openings.append((
            id(lms), now, kind, subject, metric, threshold, watch_time, service_name,
        ))
        return original(lms, kind, subject, metric, threshold, now, watch_time,
                        service_name)

    def assert_same(self):
        assert self.openings == self.expected
        for opening in self.openings:
            assert type(opening[5]) is float


@pytest.fixture
def shadowed(monkeypatch):
    return Shadowed(monkeypatch)


def test_a_chaos_run_opens_the_advisors_observations(shadowed):
    """Six hours with monitoring outages, host and instance crashes,
    moves and controller failovers."""
    runner = SimulationRunner(
        Scenario.FULL_MOBILITY, user_factor=1.15, horizon=6 * 60, seed=7,
        collect_host_series=False, chaos=controller_chaos(),
    )
    faults = published(runner.platform.bus, TOPIC_FAULTS)
    actions = published(runner.platform.bus, TOPIC_ACTIONS)
    runner.run()
    kinds = {fault.kind for fault in faults}
    assert {"monitor-outage", "host-crash", "crash"} <= kinds, kinds
    assert {Action.MOVE, Action.SCALE_UP} & {
        event.outcome.action for event in actions
    }
    assert shadowed.ticks > 300  # minus the minutes no leader ticked
    assert len(shadowed.openings) > 50
    assert shadowed.revived > 0
    shadowed.assert_same()


def test_a_two_domain_run_opens_the_advisors_observations(shadowed):
    runner = SimulationRunner(
        Scenario.FULL_MOBILITY, user_factor=1.15, horizon=6 * 60, seed=7,
        collect_host_series=False, chaos=default_chaos(),
        landscape=partition_landscape(paper_landscape(), 2),
    )
    runner.run()
    assert len(runner.controller.leaders()) == 2
    assert shadowed.ticks >= 2 * 6 * 60
    assert len(shadowed.openings) > 50
    shadowed.assert_same()


def test_a_blind_host_opens_nothing(shadowed):
    """An outage hides an overloaded host and its instance from the
    threshold pass; the next seen minute opens their observations."""
    from repro.serviceglobe.platform import Platform

    platform = Platform(build_landscape())
    controller = AutoGlobeController(platform)
    set_demand(platform, "Weak1", 0.95)
    controller.degrade_monitoring("Weak1", until=1)
    controller.tick(0)
    controller.tick(1)
    assert [o[3] for o in shadowed.openings if o[3].startswith("Weak1")] == []
    controller.tick(2)
    (instance,) = platform.service("APP").running_instances
    opened = [(o[1], o[2], o[3]) for o in shadowed.openings]
    assert (2, SituationKind.SERVER_OVERLOADED, "Weak1") in opened
    assert (2, SituationKind.SERVICE_OVERLOADED, instance.instance_id) in opened
    shadowed.assert_same()


def test_only_watched_subjects_revive_their_observations():
    """A recovered observation comes back only while its host is in the
    platform or its instance still runs."""
    from repro.serviceglobe.platform import Platform

    platform = Platform(build_landscape())
    controller = AutoGlobeController(platform)
    (instance,) = platform.service("APP").running_instances

    def descriptor(subject, kind):
        return {"subject": subject, "kind": kind.value, "service_name": None,
                "threshold": 0.7, "started_at": 0, "watch_time": 10,
                "min_coverage": 0.5}

    controller.restore_state({"observations": [
        descriptor("Weak1", SituationKind.SERVER_OVERLOADED),
        descriptor("Elsewhere", SituationKind.SERVER_OVERLOADED),
        descriptor(instance.instance_id, SituationKind.SERVICE_OVERLOADED),
        descriptor("APP#999", SituationKind.SERVICE_OVERLOADED),
    ]})
    set_demand(platform, "Weak1", 0.5)
    controller.tick(1)
    # revived before the tick's threshold pass opens the idle hosts' ones
    observed = [(d["subject"], d["kind"]) for d in controller.lms.snapshot_state()]
    assert observed[:2] == [
        ("Weak1", "serverOverloaded"),
        (instance.instance_id, "serviceOverloaded"),
    ]
    assert {"Elsewhere", "APP#999"}.isdisjoint(subject for subject, __ in observed)
