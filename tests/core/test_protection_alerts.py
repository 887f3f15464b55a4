"""Tests for protection mode and the alert channel."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.alerts import AlertChannel, AlertSeverity
from repro.core.protection import ProtectionRegistry
from repro.telemetry.bus import EventBus
from repro.telemetry.records import TOPIC_ALERTS
from tests.conftest import escalations, published as published_on


def _channel(confirm=None):
    """A channel over a fresh bus, and the alerts it publishes."""
    bus = EventBus()
    return AlertChannel(bus, confirm), published_on(bus, TOPIC_ALERTS)


class TestProtection:
    def test_protected_for_exactly_protection_time(self):
        """Section 5.1: 'After an action took place, the affected services
        and servers are protected for 30 minutes.'"""
        registry = ProtectionRegistry(protection_time=30)
        registry.protect(["FI", "Blade3"], now=100)
        assert registry.is_protected("FI", 100)
        assert registry.is_protected("FI", 129)
        assert not registry.is_protected("FI", 130)

    def test_unprotected_subject(self):
        registry = ProtectionRegistry(30)
        assert not registry.is_protected("Blade1", 0)

    def test_any_protected(self):
        registry = ProtectionRegistry(30)
        registry.protect(["Blade3"], now=0)
        assert registry.any_protected(["FI", "Blade3"], 10)
        assert not registry.any_protected(["FI", "Blade4"], 10)

    def test_reprotection_extends(self):
        registry = ProtectionRegistry(30)
        registry.protect(["FI"], now=0)
        registry.protect(["FI"], now=20)
        assert registry.is_protected("FI", 45)
        assert not registry.is_protected("FI", 50)

    def test_reprotection_never_shortens(self):
        registry = ProtectionRegistry(30)
        registry.protect(["FI"], now=20)
        registry.protect(["FI"], now=0)  # out-of-order events
        assert registry.is_protected("FI", 45)

    def test_protected_subjects_listing(self):
        registry = ProtectionRegistry(30)
        registry.protect(["B", "A"], now=0)
        assert registry.protected_subjects(10) == ["A", "B"]
        assert registry.protected_subjects(31) == []

    def test_prune_drops_expired(self):
        registry = ProtectionRegistry(30)
        registry.protect(["FI"], now=0)
        registry.prune(100)
        assert registry.expiry_of("FI") == -1

    def test_zero_protection_time(self):
        registry = ProtectionRegistry(0)
        registry.protect(["FI"], now=5)
        assert not registry.is_protected("FI", 5)

    def test_negative_protection_time_rejected(self):
        with pytest.raises(ValueError):
            ProtectionRegistry(-1)

    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=100))
    def test_protection_window_invariant(self, start, duration):
        registry = ProtectionRegistry(duration)
        registry.protect(["X"], now=start)
        if duration > 0:
            assert registry.is_protected("X", start)
            assert registry.is_protected("X", start + duration - 1)
        assert not registry.is_protected("X", start + duration)


class TestAlerts:
    def test_severities(self):
        channel, published = _channel()
        channel.info(0, "started")
        channel.warning(1, "load rising")
        channel.escalate(2, "no applicable action")
        assert [a.severity for a in published] == [
            AlertSeverity.INFO.value,
            AlertSeverity.WARNING.value,
            AlertSeverity.ESCALATION.value,
        ]
        assert len(escalations(published)) == 1

    def test_confirmation_approved(self):
        channel, published = _channel(confirm=lambda description: True)
        assert channel.request_confirmation(0, "scaleOut(FI)")
        assert "approved" in published[-1].message

    def test_confirmation_declined(self):
        channel, published = _channel(confirm=lambda description: False)
        assert not channel.request_confirmation(0, "scaleOut(FI)")
        assert "declined" in published[-1].message

    def test_unattended_semi_automatic_denies_and_escalates(self):
        """Without an administrator, semi-automatic mode must not act."""
        channel, published = _channel()
        assert not channel.request_confirmation(0, "scaleOut(FI)")
        assert escalations(published)

    def test_alert_str(self):
        channel, published = _channel()
        channel.escalate(7, "help")
        assert str(published[0]) == "[t=7 escalation] help"
