"""Tests for the linguistic hedges VERY (concentration) and SOMEWHAT (dilation)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fuzzy.expressions import Is, Somewhat, Very
from repro.fuzzy.parser import parse_expression, parse_rule
from tests.fuzzy.oracle import truth

UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def grades(value):
    return {"cpuLoad": {"high": value}}


class TestSemantics:
    def test_very_squares(self):
        assert truth(Very(Is("cpuLoad", "high")), grades(0.8)) == pytest.approx(0.64)

    def test_somewhat_takes_square_root(self):
        assert truth(Somewhat(Is("cpuLoad", "high")), grades(0.64)) == pytest.approx(0.8)

    def test_hedges_fix_the_extremes(self):
        for hedge in (Very, Somewhat):
            assert truth(hedge(Is("cpuLoad", "high")), grades(0.0)) == 0.0
            assert truth(hedge(Is("cpuLoad", "high")), grades(1.0)) == 1.0

    def test_very_is_conservative_somewhat_liberal(self):
        base = Is("cpuLoad", "high")
        for value in (0.1, 0.4, 0.7, 0.9):
            assert truth(Very(base), grades(value)) <= truth(base, grades(value))
            assert truth(Somewhat(base), grades(value)) >= truth(base, grades(value))

    def test_hedges_compose(self):
        # VERY VERY high = mu^4
        doubled = Very(Very(Is("cpuLoad", "high")))
        assert truth(doubled, grades(0.8)) == pytest.approx(0.8 ** 4)

    def test_very_somewhat_cancel(self):
        expr = Very(Somewhat(Is("cpuLoad", "high")))
        assert truth(expr, grades(0.6)) == pytest.approx(0.6)

    def test_variables_propagate(self):
        assert Very(Is("cpuLoad", "high")).variables() == frozenset({"cpuLoad"})

    @given(UNIT)
    def test_hedged_truth_in_unit_interval(self, value):
        for hedge in (Very, Somewhat):
            assert 0.0 <= truth(hedge(Is("cpuLoad", "high")), grades(value)) <= 1.0

    @given(UNIT, UNIT)
    def test_hedges_preserve_order(self, a, b):
        low, high = min(a, b), max(a, b)
        base = Is("cpuLoad", "high")
        for hedge in (Very, Somewhat):
            assert truth(hedge(base), grades(low)) <= truth(hedge(base), grades(high)) + 1e-12


class TestParsing:
    def test_very_parses(self):
        assert parse_expression("VERY cpuLoad IS high") == Very(Is("cpuLoad", "high"))

    def test_somewhat_parses(self):
        assert parse_expression("SOMEWHAT cpuLoad IS high") == Somewhat(
            Is("cpuLoad", "high")
        )

    def test_hedge_binds_tighter_than_and(self):
        expr = parse_expression("VERY a IS x AND b IS y")
        from repro.fuzzy.expressions import And

        assert expr == And((Very(Is("a", "x")), Is("b", "y")))

    def test_hedge_of_parenthesized_expression(self):
        expr = parse_expression("VERY (a IS x OR b IS y)")
        from repro.fuzzy.expressions import Or

        assert isinstance(expr, Very)
        assert isinstance(expr.operand, Or)

    def test_not_very_composition(self):
        expr = parse_expression("NOT VERY a IS x")
        from repro.fuzzy.expressions import Not

        assert expr == Not(Very(Is("a", "x")))

    def test_case_insensitive(self):
        assert parse_expression("very a IS x") == Very(Is("a", "x"))

    def test_round_trip(self):
        rule = parse_rule(
            "IF VERY cpuLoad IS high AND SOMEWHAT memLoad IS low "
            "THEN scaleUp IS applicable"
        )
        assert parse_rule(str(rule)) == rule


class TestEndToEnd:
    def test_hedged_rule_in_controller(self):
        """A mission-critical override using VERY reacts only to strong
        overloads."""
        from repro.core.action_selection import ActionSelector
        from tests.core.test_action_selection import context
        from repro.monitoring.lms import SituationKind
        from repro.config.model import Action

        selector = ActionSelector()
        selector.register_service_rules(
            "CRITICAL",
            SituationKind.SERVICE_OVERLOADED,
            "IF VERY cpuLoad IS high THEN increasePriority IS applicable",
        )
        weak = selector.rank(
            SituationKind.SERVICE_OVERLOADED,
            context(service="CRITICAL", cpuLoad=0.75),
        )
        strong = selector.rank(
            SituationKind.SERVICE_OVERLOADED,
            context(service="CRITICAL", cpuLoad=0.98),
        )
        weak_boost = {r.action: r.applicability for r in weak}[
            Action.INCREASE_PRIORITY
        ]
        strong_boost = {r.action: r.applicability for r in strong}[
            Action.INCREASE_PRIORITY
        ]
        assert strong_boost > 0.9
        assert weak_boost < 0.3
