"""End-to-end tests for the generic fuzzy controller (Figure 4 cycle)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fuzzy.controller import FuzzyController
from repro.fuzzy.parser import parse_rules
from repro.fuzzy.rules import RuleBase
from repro.fuzzy.sets import RampUp, Trapezoid
from repro.fuzzy.variables import LinguisticTerm, LinguisticVariable


def build_controller():
    cpu = LinguisticVariable(
        "cpuLoad",
        [
            LinguisticTerm("low", Trapezoid(0.0, 0.0, 0.2, 0.4)),
            LinguisticTerm("medium", Trapezoid(0.2, 0.35, 0.5, 0.7)),
            LinguisticTerm("high", Trapezoid(0.5, 1.0, 1.0, 1.0)),
        ],
        domain=(0.0, 1.0),
    )
    pi = LinguisticVariable(
        "performanceIndex",
        [
            LinguisticTerm("low", Trapezoid(0.0, 0.0, 1.0, 3.0)),
            LinguisticTerm("medium", Trapezoid(1.0, 3.0, 5.0, 10.0)),
            LinguisticTerm("high", Trapezoid(5.5, 10.5, 10.5, 10.5)),
        ],
        domain=(0.0, 10.0),
    )
    outputs = [
        LinguisticVariable(
            name,
            [LinguisticTerm("applicable", RampUp(0.0, 1.0))],
            domain=(0.0, 1.0),
        )
        for name in ("scaleUp", "scaleOut")
    ]
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
    return FuzzyController([cpu, pi], outputs, rules)


class TestPaperExample:
    """The complete Section 3 worked example: l=0.9, PI grades (0, 0.6, 0.3)."""

    def test_crisp_outputs(self):
        controller = build_controller()
        result = controller.evaluate({"cpuLoad": 0.9, "performanceIndex": 7.0})
        assert result.outputs["scaleUp"] == pytest.approx(0.6, abs=1e-3)
        assert result.outputs["scaleOut"] == pytest.approx(0.3, abs=1e-3)

    def test_controller_favors_scale_up(self):
        """'Therefore, the controller will favor the scale-up action.'"""
        controller = build_controller()
        result = controller.evaluate({"cpuLoad": 0.9, "performanceIndex": 7.0})
        assert result.best() == "scaleUp"

    def test_ranked_order(self):
        controller = build_controller()
        result = controller.evaluate({"cpuLoad": 0.9, "performanceIndex": 7.0})
        names = [name for name, _ in result.ranked()]
        assert names == ["scaleUp", "scaleOut"]


class TestControllerMechanics:
    def test_invalid_rule_base_rejected_at_construction(self):
        with pytest.raises(ValueError):
            controller = build_controller()
            bad = RuleBase(
                "bad",
                list(parse_rules("IF diskLoad IS high THEN scaleUp IS applicable")),
            )
            FuzzyController(
                controller.engine.input_variables.values(),
                controller.engine.output_variables.values(),
                bad,
            )

    def test_per_call_rule_base_override(self):
        controller = build_controller()
        override = RuleBase(
            "override",
            list(parse_rules("IF cpuLoad IS high THEN scaleOut IS applicable")),
        )
        result = controller.evaluate({"cpuLoad": 0.9}, rule_base=override)
        assert set(result.outputs) == {"scaleOut"}
        assert result.outputs["scaleOut"] == pytest.approx(0.8, abs=1e-3)

    def test_per_call_override_validated(self):
        controller = build_controller()
        bad = RuleBase(
            "bad", list(parse_rules("IF diskLoad IS high THEN scaleUp IS applicable"))
        )
        with pytest.raises(ValueError):
            controller.evaluate({"cpuLoad": 0.9}, rule_base=bad)

    def test_fired_audit_records_in_rule_order(self):
        controller = build_controller()
        result = controller.evaluate({"cpuLoad": 0.9, "performanceIndex": 7.0})
        assert len(result.fired) == 2
        assert result.fired[0].rule.output_variable == "scaleUp"
        assert result.fired[0].strength == pytest.approx(0.6)

    def test_no_load_means_no_action(self):
        controller = build_controller()
        result = controller.evaluate({"cpuLoad": 0.1, "performanceIndex": 7.0})
        assert result.outputs["scaleUp"] == pytest.approx(0.0, abs=1e-3)
        assert result.outputs["scaleOut"] == pytest.approx(0.0, abs=1e-3)

    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    def test_outputs_always_in_unit_interval(self, load, pi):
        controller = build_controller()
        result = controller.evaluate({"cpuLoad": load, "performanceIndex": pi})
        for value in result.outputs.values():
            assert 0.0 <= value <= 1.0

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_applicability_monotone_in_cpu_load(self, load):
        """More CPU load never makes scale-up less applicable (with fixed PI)."""
        controller = build_controller()
        low = controller.evaluate({"cpuLoad": load * 0.5, "performanceIndex": 2.0})
        high = controller.evaluate({"cpuLoad": load, "performanceIndex": 2.0})
        assert high.outputs["scaleUp"] >= low.outputs["scaleUp"] - 1e-3
