"""Tests for max-min inference: the paper's Section 3 worked example end to end.

``InferenceEngine.infer`` returns ``(outputs, grades, fired)``; the
clipped and united output sets of Figure 5 are the scalar oracle's
(``tests/fuzzy/oracle.py``), whose leftmost maximum the engine's crisp
values must be.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fuzzy.inference import InferenceEngine
from repro.fuzzy.parser import parse_rules
from repro.fuzzy.rules import Rule, RuleBase
from repro.fuzzy.sets import RampUp, Trapezoid
from repro.fuzzy.variables import LinguisticTerm, LinguisticVariable
from tests.fuzzy import oracle
from tests.fuzzy.oracle import ClippedSet, UnionSet


def cpu_load():
    return LinguisticVariable(
        "cpuLoad",
        [
            LinguisticTerm("low", Trapezoid(0.0, 0.0, 0.2, 0.4)),
            LinguisticTerm("medium", Trapezoid(0.2, 0.35, 0.5, 0.7)),
            LinguisticTerm("high", Trapezoid(0.5, 1.0, 1.0, 1.0)),
        ],
        domain=(0.0, 1.0),
    )


def performance_index():
    """Grades at PI measurement used below: low 0, medium 0.6, high 0.3."""
    return LinguisticVariable(
        "performanceIndex",
        [
            LinguisticTerm("low", Trapezoid(0.0, 0.0, 1.0, 3.0)),
            LinguisticTerm("medium", Trapezoid(1.0, 3.0, 5.0, 10.0)),
            LinguisticTerm("high", Trapezoid(5.5, 10.5, 10.5, 10.5)),
        ],
        domain=(0.0, 10.0),
    )


def applicability_variable(name):
    return LinguisticVariable(
        name, [LinguisticTerm("applicable", RampUp(0.0, 1.0))], domain=(0.0, 1.0)
    )


PAPER_RULES = """
IF cpuLoad IS high AND (performanceIndex IS low OR performanceIndex IS medium)
THEN scaleUp IS applicable
IF cpuLoad IS high AND performanceIndex IS high
THEN scaleOut IS applicable
"""

#: PI measurement chosen so that fuzzification yields the paper's grades
#: mu_low = 0, mu_medium = 0.6, mu_high = 0.3 (medium falls 5->10, high rises 4->9).
PI_MEASUREMENT = 7.0


@pytest.fixture
def engine():
    return InferenceEngine(
        [cpu_load(), performance_index()],
        [applicability_variable("scaleUp"), applicability_variable("scaleOut")],
    )


@pytest.fixture
def rule_base():
    return RuleBase("paper", list(parse_rules(PAPER_RULES)))


class TestFuzzify:
    def test_paper_measurements(self, engine, rule_base):
        __, grades, __ = engine.infer(
            rule_base, {"cpuLoad": 0.9, "performanceIndex": PI_MEASUREMENT}
        )
        assert grades["cpuLoad"]["high"] == pytest.approx(0.8)
        assert grades["performanceIndex"]["low"] == pytest.approx(0.0)
        assert grades["performanceIndex"]["medium"] == pytest.approx(0.6)
        assert grades["performanceIndex"]["high"] == pytest.approx(0.3)

    def test_unknown_measurement_rejected(self, engine, rule_base):
        with pytest.raises(KeyError, match="unknown input variable"):
            engine.infer(rule_base, {"cpuLoad": 0.9, "diskLoad": 0.5})


class TestValidate:
    def test_paper_rules_validate(self, engine, rule_base):
        engine.validate(rule_base)

    def test_unknown_input_variable_rejected(self, engine):
        bad = RuleBase(
            "bad", list(parse_rules("IF diskLoad IS high THEN scaleUp IS applicable"))
        )
        with pytest.raises(ValueError, match="unknown input variable"):
            engine.validate(bad)

    def test_unknown_output_variable_rejected(self, engine):
        bad = RuleBase(
            "bad", list(parse_rules("IF cpuLoad IS high THEN explode IS applicable"))
        )
        with pytest.raises(ValueError, match="unknown output variable"):
            engine.validate(bad)

    def test_unknown_output_term_rejected(self, engine):
        bad = RuleBase(
            "bad", list(parse_rules("IF cpuLoad IS high THEN scaleUp IS perfect"))
        )
        with pytest.raises(KeyError):
            engine.validate(bad)


class TestInfer:
    def test_paper_firing_strengths(self, engine, rule_base):
        """Rule 1 fires at min(0.8, max(0, 0.6)) = 0.6; rule 2 at min(0.8, 0.3) = 0.3."""
        outputs, __, fired = engine.infer(
            rule_base, {"cpuLoad": 0.9, "performanceIndex": PI_MEASUREMENT}
        )
        assert fired[0].strength == pytest.approx(0.6)
        assert fired[1].strength == pytest.approx(0.3)
        assert outputs == {"scaleUp": fired[0].strength, "scaleOut": fired[1].strength}

    def test_output_sets_are_clipped(self, engine, rule_base):
        measurements = {"cpuLoad": 0.9, "performanceIndex": PI_MEASUREMENT}
        outputs, __, __, output_sets = oracle.infer(engine, rule_base, measurements)
        assert engine.infer(rule_base, measurements)[0] == outputs
        scale_up = output_sets["scaleUp"]
        assert isinstance(scale_up, ClippedSet)
        assert scale_up.height == pytest.approx(0.6)
        # figure 5: the clipped set plateaus at the firing strength
        assert scale_up(0.9) == pytest.approx(0.6)
        assert scale_up(0.3) == pytest.approx(0.3)

    def test_same_output_rules_aggregate_with_union(self, engine):
        rules = parse_rules(
            """
            IF cpuLoad IS high THEN scaleUp IS applicable
            IF performanceIndex IS medium THEN scaleUp IS applicable
            """
        )
        rule_base = RuleBase("two", list(rules))
        measurements = {"cpuLoad": 0.9, "performanceIndex": PI_MEASUREMENT}
        outputs, __, __, output_sets = oracle.infer(engine, rule_base, measurements)
        union = output_sets["scaleUp"]
        assert isinstance(union, UnionSet)
        # strengths 0.8 and 0.6 -> union plateaus at 0.8
        assert union(1.0) == pytest.approx(0.8)
        assert engine.infer(rule_base, measurements)[0] == outputs

    def test_strength_of_reports_max(self, engine):
        """On the unit ramp the crisp value is the strongest rule's strength."""
        rules = parse_rules(
            """
            IF cpuLoad IS high THEN scaleUp IS applicable
            IF performanceIndex IS medium THEN scaleUp IS applicable
            """
        )
        outputs, __, fired = engine.infer(
            RuleBase("two", list(rules)),
            {"cpuLoad": 0.9, "performanceIndex": PI_MEASUREMENT},
        )
        assert outputs["scaleUp"] == pytest.approx(0.8)
        assert outputs["scaleUp"] == max(f.strength for f in fired)
        assert "unknown" not in outputs

    def test_zero_strength_rules_still_produce_output_set(self, engine, rule_base):
        measurements = {"cpuLoad": 0.0, "performanceIndex": PI_MEASUREMENT}
        assert oracle.infer(engine, rule_base, measurements)[3]["scaleUp"](1.0) == 0.0
        # the clipped-at-zero set's leftmost maximum is the domain's origin
        assert engine.infer(rule_base, measurements)[0] == {
            "scaleUp": 0.0, "scaleOut": 0.0
        }

    def test_rule_weight_scales_strength(self, engine):
        weighted = RuleBase(
            "w",
            [
                Rule(
                    parse_rules("IF cpuLoad IS high THEN scaleUp IS applicable")[
                        0
                    ].antecedent,
                    "scaleUp",
                    "applicable",
                    weight=0.5,
                )
            ],
        )
        __, __, fired = engine.infer(weighted, {"cpuLoad": 0.9})
        assert fired[0].strength == pytest.approx(0.4)

    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    def test_firing_strengths_bounded(self, load, pi):
        engine = InferenceEngine(
            [cpu_load(), performance_index()],
            [applicability_variable("scaleUp"), applicability_variable("scaleOut")],
        )
        base = RuleBase("paper", list(parse_rules(PAPER_RULES)))
        __, __, fired = engine.infer(base, {"cpuLoad": load, "performanceIndex": pi})
        for record in fired:
            assert 0.0 <= record.strength <= 1.0
