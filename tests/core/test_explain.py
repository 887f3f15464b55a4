"""Tests for decision explanations."""

from repro.core.autoglobe import AutoGlobeController
from repro.core.explain import explain_decision, explain_last_decisions
from repro.monitoring.lms import SituationKind
from repro.serviceglobe.platform import Platform
from tests.core.conftest import build_landscape, set_demand


class TestExplainDecision:
    def _run(self):
        platform = Platform(build_landscape())
        controller = AutoGlobeController(platform)
        for now in range(12):
            set_demand(platform, "Weak1", 0.95)
            set_demand(platform, "Big1", 3.0)
            controller.tick(now)
        return controller

    def test_explains_executed_decision(self):
        controller = self._run()
        records = controller.decision_records
        assert records
        text = explain_decision(records[0])
        assert "situation:" in text
        assert "executed:" in text

    def test_explain_last_decisions_newest_first(self):
        controller = self._run()
        text = explain_last_decisions(controller.decision_records)
        assert "situation:" in text

    def test_empty_records(self):
        assert "no decisions" in explain_last_decisions([])

    def test_unactionable_decision_explained(self):
        from repro.core.decision import DecisionRecord
        from repro.monitoring.lms import Situation

        record = DecisionRecord(
            situation=Situation(
                SituationKind.SERVER_OVERLOADED, "Blade1", None, 10, 0.9
            ),
            considered=["scaleOut(FI)=80%: no candidate host"],
        )
        text = explain_decision(record)
        assert "rejected" in text
        assert "no candidate host" in text
        assert "nothing" in text
