"""Tests for the antecedent expression algebra (min/max/complement semantics),
read through the scalar oracle's walk (``tests/fuzzy/oracle.py``)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fuzzy.expressions import And, Is, Not, Or
from tests.fuzzy.oracle import truth

UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def grades(cpu_high=0.8, pi_low=0.0, pi_medium=0.6, pi_high=0.3):
    """Fuzzified measurements from the paper's Section 3 worked example."""
    return {
        "cpuLoad": {"low": 0.0, "medium": 0.0, "high": cpu_high},
        "performanceIndex": {"low": pi_low, "medium": pi_medium, "high": pi_high},
    }


class TestIs:
    def test_atomic_lookup(self):
        assert truth(Is("cpuLoad", "high"), grades()) == pytest.approx(0.8)

    def test_unknown_variable_raises(self):
        with pytest.raises(KeyError, match="no fuzzified value"):
            truth(Is("memLoad", "high"), grades())

    def test_unknown_term_raises(self):
        with pytest.raises(KeyError, match="no term"):
            truth(Is("cpuLoad", "enormous"), grades())

    def test_variables(self):
        assert Is("cpuLoad", "high").variables() == frozenset({"cpuLoad"})

    def test_str(self):
        assert str(Is("cpuLoad", "high")) == "cpuLoad IS high"


class TestConnectives:
    def test_paper_rule_one_truth(self):
        """min(0.8, max(0, 0.6)) = 0.6 for the scale-up rule."""
        rule_one = And(
            (
                Is("cpuLoad", "high"),
                Or((Is("performanceIndex", "low"), Is("performanceIndex", "medium"))),
            )
        )
        assert truth(rule_one, grades()) == pytest.approx(0.6)

    def test_paper_rule_two_truth(self):
        """min(0.8, 0.3) = 0.3 for the scale-out rule."""
        rule_two = And((Is("cpuLoad", "high"), Is("performanceIndex", "high")))
        assert truth(rule_two, grades()) == pytest.approx(0.3)

    def test_and_is_min(self):
        expr = Is("cpuLoad", "high") & Is("performanceIndex", "medium")
        assert truth(expr, grades(cpu_high=0.2, pi_medium=0.9)) == pytest.approx(0.2)

    def test_or_is_max(self):
        expr = Is("cpuLoad", "high") | Is("performanceIndex", "medium")
        assert truth(expr, grades(cpu_high=0.2, pi_medium=0.9)) == pytest.approx(0.9)

    def test_not_is_complement(self):
        expr = ~Is("cpuLoad", "high")
        assert truth(expr, grades(cpu_high=0.8)) == pytest.approx(0.2)

    def test_nary_flattening(self):
        a, b, c = Is("x", "a"), Is("x", "b"), Is("x", "c")
        expr = (a & b) & c
        assert len(expr.operands) == 3

    def test_flattening_preserves_semantics(self):
        g = {"x": {"a": 0.4, "b": 0.7, "c": 0.2}}
        a, b, c = Is("x", "a"), Is("x", "b"), Is("x", "c")
        assert truth((a & b) & c, g) == truth(a & (b & c), g) == pytest.approx(0.2)

    def test_single_operand_rejected(self):
        with pytest.raises(ValueError):
            And((Is("x", "a"),))
        with pytest.raises(ValueError):
            Or((Is("x", "a"),))

    def test_variables_aggregated(self):
        expr = Is("cpuLoad", "high") & ~Is("memLoad", "low")
        assert expr.variables() == frozenset({"cpuLoad", "memLoad"})

    def test_str_round_trippable_shape(self):
        expr = Is("cpuLoad", "high") & (
            Is("performanceIndex", "low") | Is("performanceIndex", "medium")
        )
        text = str(expr)
        assert "AND" in text and "OR" in text and "(" in text

    @given(UNIT, UNIT)
    def test_de_morgan(self, ga, gb):
        g = {"x": {"a": ga, "b": gb}}
        a, b = Is("x", "a"), Is("x", "b")
        assert truth(~(a & b), g) == pytest.approx(truth((~a) | (~b), g))
        assert truth(~(a | b), g) == pytest.approx(truth((~a) & (~b), g))

    @given(UNIT, UNIT, UNIT)
    def test_truth_always_in_unit_interval(self, ga, gb, gc):
        g = {"x": {"a": ga, "b": gb, "c": gc}}
        expr = (Is("x", "a") & ~Is("x", "b")) | Is("x", "c")
        assert 0.0 <= truth(expr, g) <= 1.0

    @given(UNIT, UNIT)
    def test_and_commutes(self, ga, gb):
        g = {"x": {"a": ga, "b": gb}}
        a, b = Is("x", "a"), Is("x", "b")
        assert truth(a & b, g) == pytest.approx(truth(b & a, g))

    @given(UNIT)
    def test_double_negation(self, ga):
        g = {"x": {"a": ga}}
        assert truth(~~Is("x", "a"), g) == pytest.approx(ga)
