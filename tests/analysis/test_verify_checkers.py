"""Unit tests for the AG301-AG305 temporal invariant checkers.

Every test builds a small synthetic event stream (the JSON-shaped dicts
:func:`repro.telemetry.records.record_to_dict` produces) and feeds it
through one checker or the full :class:`TraceVerifier`.
"""

import numpy as np

from repro.analysis.verify import (
    TraceVerifier,
    VerificationContext,
    vc_format,
    vc_join,
    vc_leq,
)
from repro.analysis.verify.checkers import (
    COMPENSATION_GRACE_MINUTES,
    AccountingChecker,
    CompensationChecker,
    EscrowOrderChecker,
    ExactlyOnceChecker,
    FencingChecker,
)
from repro.telemetry.records import record_to_dict
from repro.telemetry.trace import TraceEvent

_SEQ = 0


def _event(topic, record):
    global _SEQ
    _SEQ += 1
    return TraceEvent(seq=_SEQ, topic=topic, record=record)


def _action(time, action="start", status="ok", service="FI", instance="FI#1",
            source="", target="", attempts=1, note="", domain="", token=None):
    return _event("actions", {
        "type": "ActionEvent", "time": time, "action": action,
        "service_name": service, "instance_id": instance,
        "source_host": source, "target_host": target, "status": status,
        "attempts": attempts, "note": note, "domain": domain,
        "fencing_token": token,
    })


def _epoch(time, token, domain=""):
    return _event("supervision", {
        "type": "SupervisionEvent", "time": time, "kind": "leader-epoch",
        "detail": f"controller-{token}", "domain": domain,
        "fencing_token": token,
    })


def _escrow(time, phase, escrow_id="escrow-000001", service="FI",
            instance="FI#1", source_domain="east", target_domain="west",
            token=None):
    return _event("escrow", {
        "type": "EscrowEvent", "time": time, "phase": phase,
        "escrow_id": escrow_id, "service_name": service,
        "instance_id": instance, "source_domain": source_domain,
        "target_domain": target_domain, "source_host": "h1",
        "target_host": "h2", "fencing_token": token, "note": "",
    })


def _alert(time, severity="escalation"):
    return _event("alerts", {
        "type": "AlertEvent", "time": time, "severity": severity,
        "message": "m",
    })


def _fault(time, kind="crash"):
    return _event("faults", {
        "type": "FaultRecord", "time": time, "instance_id": "FI#1",
        "service_name": "FI", "host_name": "h1", "kind": kind, "domain": "",
    })


def _finish(checker, complete=True, summary=None, end_time=10_000):
    return checker.finish(VerificationContext(
        complete=complete, summary=summary, end_time=end_time,
    ))


class TestVectorClocks:
    def test_join_takes_componentwise_max(self):
        assert vc_join({"a": 2, "b": 1}, {"b": 3, "c": 1}) == {
            "a": 2, "b": 3, "c": 1,
        }

    def test_leq_requires_every_component(self):
        assert vc_leq({"a": 1}, {"a": 2, "b": 1})
        assert not vc_leq({"a": 3}, {"a": 2, "b": 9})
        assert vc_leq({}, {"a": 1})

    def test_format_renders_global_scope(self):
        assert "global" in vc_format({"": 3})
        assert "east" in vc_format({"east": 2})


class TestFencingChecker:
    def test_monotonic_tokens_are_clean(self):
        checker = FencingChecker()
        checker.feed(_epoch(1, 1))
        checker.feed(_action(2, token=1))
        checker.feed(_epoch(3, 2))
        checker.feed(_action(4, token=2))
        assert _finish(checker) == []

    def test_stale_applied_action_flagged(self):
        checker = FencingChecker()
        checker.feed(_epoch(1, 1))
        checker.feed(_epoch(5, 2))
        checker.feed(_action(6, token=1))  # deposed leader got through
        [finding] = _finish(checker)
        assert finding.code == "AG301"
        assert "stale fencing token 1" in finding.message

    def test_fenced_outcome_is_the_guard_working(self):
        checker = FencingChecker()
        checker.feed(_epoch(1, 2))
        checker.feed(_action(2, status="fenced", token=1))
        assert _finish(checker) == []

    def test_failed_outcome_never_flags(self):
        # a "failed" action never touched the platform: an injected
        # failure may race the fence check, so it is not evidence
        checker = FencingChecker()
        checker.feed(_epoch(1, 2))
        checker.feed(_action(2, status="failed", token=1))
        assert _finish(checker) == []

    def test_scopes_are_independent_domains(self):
        checker = FencingChecker()
        checker.feed(_epoch(1, 5, domain="east"))
        checker.feed(_action(2, token=1, domain="west"))
        assert _finish(checker) == []

    def test_stale_escrow_phase_flagged(self):
        checker = FencingChecker()
        checker.feed(_epoch(1, 2, domain="east"))
        checker.feed(_escrow(2, "prepare", source_domain="east", token=1))
        [finding] = _finish(checker)
        assert finding.code == "AG301"
        assert "escrow" in finding.message

    def test_tokenless_events_ignored(self):
        checker = FencingChecker()
        checker.feed(_action(1, token=None))
        checker.feed(_epoch(2, 3))
        checker.feed(_action(3, token=None))
        assert _finish(checker) == []


class TestEscrowOrderChecker:
    def test_prepare_commit_attach_is_clean(self):
        checker = EscrowOrderChecker()
        checker.feed(_escrow(1, "prepare"))
        checker.feed(_escrow(1, "commit"))
        checker.feed(_escrow(2, "attach"))
        assert _finish(checker) == []

    def test_prepare_abort_is_clean(self):
        checker = EscrowOrderChecker()
        checker.feed(_escrow(1, "prepare"))
        checker.feed(_escrow(1, "abort"))
        assert _finish(checker) == []

    def test_attach_without_commit_flagged(self):
        checker = EscrowOrderChecker()
        checker.feed(_escrow(1, "prepare"))
        checker.feed(_escrow(2, "attach"))
        findings = _finish(checker)
        assert any(
            f.code == "AG302" and "commit barrier never ran" in f.message
            for f in findings
        )

    def test_commit_without_prepare_flagged(self):
        checker = EscrowOrderChecker()
        checker.feed(_escrow(1, "commit"))
        checker.feed(_escrow(2, "attach"))
        findings = _finish(checker)
        assert any(
            f.code == "AG302" and "commit without prepare" in f.message
            for f in findings
        )

    def test_truncated_stream_suppresses_missing_predecessors(self):
        # same stream as above, but the trace is incomplete: the ring may
        # simply have evicted the prepare — not evidence of a race
        checker = EscrowOrderChecker()
        checker.feed(_escrow(1, "commit"))
        checker.feed(_escrow(2, "attach"))
        assert _finish(checker, complete=False) == []

    def test_duplicate_prepare_flagged(self):
        checker = EscrowOrderChecker()
        checker.feed(_escrow(1, "prepare"))
        checker.feed(_escrow(2, "prepare"))
        findings = _finish(checker)
        assert any("duplicate prepare" in f.message for f in findings)

    def test_attach_after_abort_flagged(self):
        checker = EscrowOrderChecker()
        checker.feed(_escrow(1, "prepare"))
        checker.feed(_escrow(1, "abort"))
        checker.feed(_escrow(2, "attach"))
        findings = _finish(checker)
        assert any("attach after abort" in f.message for f in findings)

    def test_unresolved_escrow_flagged_on_complete_trace_only(self):
        checker = EscrowOrderChecker()
        checker.feed(_escrow(1, "prepare"))
        checker.feed(_escrow(1, "commit"))
        [finding] = _finish(checker)
        assert finding.code == "AG302" and "unresolved" in finding.message

        checker = EscrowOrderChecker()
        checker.feed(_escrow(1, "prepare"))
        checker.feed(_escrow(1, "commit"))
        assert _finish(checker, complete=False) == []

    def test_independent_escrows_do_not_interfere(self):
        checker = EscrowOrderChecker()
        checker.feed(_escrow(1, "prepare", escrow_id="escrow-000001"))
        checker.feed(_escrow(1, "prepare", escrow_id="escrow-000002",
                             source_domain="north", target_domain="south"))
        checker.feed(_escrow(1, "commit", escrow_id="escrow-000002",
                             source_domain="north", target_domain="south"))
        checker.feed(_escrow(1, "commit", escrow_id="escrow-000001"))
        checker.feed(_escrow(2, "attach", escrow_id="escrow-000001"))
        checker.feed(_escrow(2, "attach", escrow_id="escrow-000002",
                             source_domain="north", target_domain="south"))
        assert _finish(checker) == []


class TestExactlyOnceChecker:
    def test_identical_ok_action_twice_flagged(self):
        checker = ExactlyOnceChecker()
        checker.feed(_action(5, action="move", source="h1", target="h2"))
        checker.feed(_action(5, action="move", source="h1", target="h2"))
        [finding] = _finish(checker)
        assert finding.code == "AG303"
        assert "applied twice" in finding.message

    def test_different_instance_is_clean(self):
        checker = ExactlyOnceChecker()
        checker.feed(_action(5, instance="FI#1"))
        checker.feed(_action(5, instance="FI#2"))
        assert _finish(checker) == []

    def test_failed_duplicates_are_clean(self):
        # a failed attempt then its successful retry is the normal path
        checker = ExactlyOnceChecker()
        checker.feed(_action(5, status="failed"))
        checker.feed(_action(5, status="ok"))
        assert _finish(checker) == []


class TestCompensationChecker:
    def test_lost_source_without_heal_flagged(self):
        checker = CompensationChecker()
        checker.feed(_action(
            10, action="move", status="compensated",
            note="source lost during move: host crash",
        ))
        [finding] = _finish(checker, end_time=1000)
        assert finding.code == "AG304"
        assert "never restored or escalated" in finding.message

    def test_later_restart_heals(self):
        checker = CompensationChecker()
        checker.feed(_action(
            10, action="move", status="compensated",
            note="source lost during move: host crash",
        ))
        checker.feed(_action(25, action="start", status="ok"))
        assert _finish(checker, end_time=1000) == []

    def test_escalation_counts_as_resolution(self):
        checker = CompensationChecker()
        checker.feed(_action(
            10, action="move", status="compensated",
            note="source lost during move: host crash",
        ))
        checker.feed(_alert(12))
        assert _finish(checker, end_time=1000) == []

    def test_loss_at_end_of_trace_gets_grace(self):
        checker = CompensationChecker()
        checker.feed(_action(
            10, action="move", status="compensated",
            note="source lost during move: host crash",
        ))
        assert _finish(
            checker, end_time=10 + COMPENSATION_GRACE_MINUTES
        ) == []

    def test_rolled_back_move_is_not_a_loss(self):
        checker = CompensationChecker()
        checker.feed(_action(
            10, action="move", status="compensated",
            note="move rolled back: target start failure",
        ))
        assert _finish(checker, end_time=1000) == []


class TestAccountingChecker:
    def _stream(self, checker):
        checker.feed(_action(1, status="ok"))
        checker.feed(_action(2, status="failed"))
        checker.feed(_action(3, status="ok", attempts=2))
        checker.feed(_fault(4))
        checker.feed(_alert(5))

    def _summary(self, **overrides):
        summary = {
            "action_count": 3,
            "failed_action_count": 1,
            "compensated_action_count": 0,
            "fenced_action_count": 0,
            "retried_action_count": 1,
            "injected_fault_count": 1,
            "escalation_count": 1,
            "total_down_minutes": 7,
            "availability_by_service": {
                "FI": {"down_minutes": 3}, "DB": {"down_minutes": 4},
            },
        }
        summary.update(overrides)
        return summary

    def test_reconciling_summary_is_clean(self):
        checker = AccountingChecker()
        self._stream(checker)
        assert _finish(checker, summary=self._summary()) == []

    def test_action_count_mismatch_flagged(self):
        checker = AccountingChecker()
        self._stream(checker)
        findings = _finish(checker, summary=self._summary(action_count=99))
        assert [f.code for f in findings] == ["AG305"]
        assert "action_count" in findings[0].message

    def test_down_minutes_must_sum(self):
        checker = AccountingChecker()
        self._stream(checker)
        findings = _finish(
            checker, summary=self._summary(total_down_minutes=8)
        )
        assert [f.code for f in findings] == ["AG305"]
        assert "total_down_minutes" in findings[0].message

    def test_supervision_recovery_counts_as_fault(self):
        checker = AccountingChecker()
        self._stream(checker)
        checker.feed(_event("supervision", {
            "type": "SupervisionEvent", "time": 6,
            "kind": "leader-failover", "detail": "a->b", "domain": "",
        }))
        assert _finish(
            checker, summary=self._summary(injected_fault_count=2)
        ) == []

    def test_incomplete_trace_skips_reconciliation(self):
        checker = AccountingChecker()
        self._stream(checker)
        assert _finish(
            checker, complete=False, summary=self._summary(action_count=99)
        ) == []

    def test_absent_summary_keys_are_skipped(self):
        checker = AccountingChecker()
        self._stream(checker)
        assert _finish(checker, summary={"scenario": "x"}) == []


class TestTraceVerifier:
    def test_report_folds_all_checkers_and_sorts(self):
        verifier = TraceVerifier()
        verifier.feed(_epoch(1, 2))
        verifier.feed(_action(2, token=1))            # AG301
        verifier.feed(_action(5, action="move", source="h1", target="h2"))
        verifier.feed(_action(5, action="move", source="h1", target="h2"))
        report = verifier.report("synthetic")
        codes = [d.code for d in report.diagnostics]
        assert "AG301" in codes and "AG303" in codes
        assert report.exit_code() == 2

    def test_ignore_filters_codes(self):
        verifier = TraceVerifier(ignore=("AG301",))
        verifier.feed(_epoch(1, 2))
        verifier.feed(_action(2, token=1))
        report = verifier.report("synthetic")
        assert report.clean

    def test_end_time_tracked_from_stream(self):
        verifier = TraceVerifier()
        verifier.feed(_action(
            10, action="move", status="compensated",
            note="source lost during move: host crash", instance="FI#9",
        ))
        verifier.feed(_action(12, action="stop", service="DB",
                              instance="DB#1"))
        # trace ends 2 minutes after the loss: inside the grace window
        assert verifier.report("synthetic").clean

    def test_live_reports_are_counted_not_converted(self, monkeypatch):
        """No checker reads a load report, so the live front end never
        converts one; it still counts it and takes its time as the end."""
        from repro.analysis.verify import engine
        from repro.telemetry.bus import EventBus
        from repro.telemetry.records import AlertEvent, LoadReportBatch

        converted = []

        def spy(record):
            converted.append(type(record).__name__)
            return record_to_dict(record)

        monkeypatch.setattr(engine, "record_to_dict", spy)
        bus = EventBus()
        verifier = TraceVerifier()
        verifier.attach(bus)
        bus.publish(AlertEvent(5, "info", "m"))
        bus.publish(LoadReportBatch(10 + COMPENSATION_GRACE_MINUTES + 1,
                                    (("Blade1", "cpu"),), np.array([0.5])))
        assert converted == ["AlertEvent"]
        assert verifier.fed == 2
        verifier.feed(_action(
            10, action="move", status="compensated",
            note="source lost during move: host crash",
        ))
        # the report batch's minute ended the trace past the grace window
        assert [d.code for d in verifier.report("live").diagnostics] == ["AG304"]
