"""Tests for the Figure 6 decision loop."""

import pytest

from repro.config.model import Action, ControllerMode, ControllerSettings
from repro.core.action_selection import RankedAction
from repro.core.alerts import AlertChannel
from repro.core.decision import DecisionLoop
from repro.core.protection import ProtectionRegistry
from repro.core.server_selection import ServerSelector
from repro.monitoring.lms import Situation, SituationKind
from repro.serviceglobe.platform import Platform
from tests.conftest import alerts_of, escalations, executed
from tests.core.conftest import build_landscape, set_demand


def make_loop(platform, mode=ControllerMode.AUTOMATIC, confirm=None,
              min_applicability=0.10):
    settings = ControllerSettings(mode=mode, min_applicability=min_applicability)
    alerts = alerts_of(platform)
    loop = DecisionLoop(
        platform=platform,
        server_selector=ServerSelector(),
        protection=ProtectionRegistry(settings.protection_time),
        alerts=AlertChannel(platform.bus, confirm),
        settings=settings,
    )
    return loop, alerts


def situation(subject="APP#1", service="APP",
              kind=SituationKind.SERVICE_OVERLOADED):
    return Situation(kind, subject, service, detected_at=0, observed_mean=0.9)


def ranked(action, applicability, service="APP", instance=None):
    return RankedAction(action, applicability, service, instance)


class TestExecution:
    def test_best_action_executed(self, platform):
        loop, __ = make_loop(platform)
        outcome = loop.handle(
            situation(),
            [ranked(Action.SCALE_OUT, 0.8), ranked(Action.MOVE, 0.5)],
            now=0,
        )
        assert outcome is not None
        assert outcome.action is Action.SCALE_OUT
        assert len(platform.service("APP").running_instances) == 2

    def test_target_host_chosen_by_server_selector(self, platform):
        loop, __ = make_loop(platform)
        outcome = loop.handle(situation(), [ranked(Action.SCALE_OUT, 0.8)], now=0)
        # the idle big server wins the scale-out placement
        assert outcome.target_host == "Big1"

    def test_involved_subjects_protected(self, platform):
        loop, __ = make_loop(platform)
        outcome = loop.handle(situation(), [ranked(Action.SCALE_OUT, 0.8)], now=0)
        assert loop.protection.is_protected("APP", 1)
        assert loop.protection.is_protected(outcome.target_host, 1)

    def test_applicability_recorded_in_audit(self, platform):
        loop, __ = make_loop(platform)
        outcomes = executed(platform)
        loop.handle(situation(), [ranked(Action.SCALE_OUT, 0.8)], now=0)
        assert outcomes[-1].applicability == pytest.approx(0.8)


class TestFallback:
    def test_below_threshold_actions_discarded(self, platform):
        """'Actions whose applicability value is lower than an
        administrator-controlled minimum threshold are discarded.'"""
        loop, alerts = make_loop(platform, min_applicability=0.5)
        outcome = loop.handle(situation(), [ranked(Action.SCALE_OUT, 0.3)], now=0)
        assert outcome is None
        assert escalations(alerts)

    def test_falls_back_to_next_action_when_first_infeasible(self, platform):
        loop, __ = make_loop(platform)
        # scale-in is infeasible (single instance); move must win
        outcome = loop.handle(
            situation(),
            [ranked(Action.SCALE_IN, 0.9), ranked(Action.MOVE, 0.5)],
            now=0,
        )
        assert outcome.action is Action.MOVE
        assert outcome.target_host == "Weak2"

    def test_falls_back_to_next_host_on_execution_failure(self, platform, monkeypatch):
        """Figure 6: when executing on the best host fails, the loop tries
        the next-ranked host instead of giving up."""
        from repro.serviceglobe.actions import ActionError

        loop, __ = make_loop(platform)
        original_execute = platform.execute
        attempts = []

        def flaky_execute(action, service_name, **kwargs):
            attempts.append(kwargs.get("target_host"))
            if kwargs.get("target_host") == "Big1":
                raise ActionError("simulated start failure on Big1")
            return original_execute(action, service_name, **kwargs)

        monkeypatch.setattr(platform, "execute", flaky_execute)
        outcome = loop.handle(situation(), [ranked(Action.SCALE_OUT, 0.8)], now=0)
        assert outcome is not None
        assert attempts[0] == "Big1"  # best host tried first...
        assert outcome.target_host != "Big1"  # ...then fell back

    def test_protected_host_may_still_receive_instances(self, platform):
        """Protection excludes subjects from being acted upon, but a
        protected host can absorb a scale-out (it is not oscillation)."""
        loop, __ = make_loop(platform)
        loop.protection.protect(["Big1"], now=0)
        outcome = loop.handle(situation(), [ranked(Action.SCALE_OUT, 0.8)], now=0)
        assert outcome is not None
        assert outcome.target_host == "Big1"

    def test_protected_service_deferred_without_escalation(self, platform):
        """A situation whose only remedies touch protected services is a
        deliberate wait (remedy in flight), not an emergency."""
        loop, alerts = make_loop(platform)
        loop.protection.protect(["APP"], now=0)
        outcome = loop.handle(situation(), [ranked(Action.SCALE_OUT, 0.9)], now=5)
        assert outcome is None
        assert not escalations(alerts)
        assert any("deferred" in a.message for a in alerts)

    def test_escalates_when_nothing_possible(self, platform):
        """'If there are no possible hosts and actions with a sufficient
        applicability, the controller requests human interaction.'"""
        loop, alerts = make_loop(platform)
        outcome = loop.handle(situation(), [ranked(Action.SCALE_IN, 0.9)], now=0)
        assert outcome is None
        assert len(escalations(alerts)) == 1
        assert "human interaction" in escalations(alerts)[0].message

    def test_decision_record_keeps_rejection_reasons(self, platform):
        loop, __ = make_loop(platform)
        loop.handle(
            situation(),
            [ranked(Action.SCALE_IN, 0.9), ranked(Action.MOVE, 0.5)],
            now=0,
        )
        record = loop.records[-1]
        assert record.acted
        assert any("scaleIn" in note for note in record.considered)


class TestSemiAutomaticMode:
    def test_approved_action_executes(self, platform):
        loop, __ = make_loop(
            platform, mode=ControllerMode.SEMI_AUTOMATIC, confirm=lambda d: True
        )
        outcome = loop.handle(situation(), [ranked(Action.SCALE_OUT, 0.8)], now=0)
        assert outcome is not None

    def test_declined_action_not_executed(self, platform):
        loop, __ = make_loop(
            platform, mode=ControllerMode.SEMI_AUTOMATIC, confirm=lambda d: False
        )
        outcome = loop.handle(situation(), [ranked(Action.SCALE_OUT, 0.8)], now=0)
        assert outcome is None
        assert len(platform.service("APP").running_instances) == 1

    def test_unattended_semi_automatic_never_acts(self, platform):
        loop, alerts = make_loop(platform, mode=ControllerMode.SEMI_AUTOMATIC)
        outcome = loop.handle(situation(), [ranked(Action.SCALE_OUT, 0.8)], now=0)
        assert outcome is None
        assert escalations(alerts)

    def test_priority_action_also_needs_confirmation(self, platform):
        asked = []
        loop, __ = make_loop(
            platform,
            mode=ControllerMode.SEMI_AUTOMATIC,
            confirm=lambda d: asked.append(d) or True,
        )
        outcome = loop.handle(
            situation(), [ranked(Action.INCREASE_PRIORITY, 0.8)], now=0
        )
        assert outcome is not None
        assert asked
