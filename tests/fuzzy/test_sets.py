"""Unit and property tests for membership functions and fuzzy-set algebra.

Clipping and union are the scalar oracle's (``tests/fuzzy/oracle.py``);
intersection and complement are the antecedent operators ``AND`` and
``NOT`` on grades, read through the oracle's walk.  The trapezoid and
the ramp are the only shapes: a triangle, a falling ramp, a crisp
interval and a singleton are trapezoids with collapsed corners.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fuzzy.expressions import And, Is, Not, Or
from repro.fuzzy.sets import RampUp, Trapezoid
from repro.fuzzy.variables import LinguisticTerm
from tests.fuzzy.oracle import ClippedSet, UnionSet, truth

UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
REALS = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


class TestTrapezoid:
    def test_plateau_is_one(self):
        mf = Trapezoid(0.0, 0.2, 0.6, 0.8)
        assert mf(0.2) == 1.0
        assert mf(0.4) == 1.0
        assert mf(0.6) == 1.0

    def test_outside_support_is_zero(self):
        mf = Trapezoid(0.1, 0.2, 0.6, 0.8)
        assert mf(0.0) == 0.0
        assert mf(0.09) == 0.0
        assert mf(0.81) == 0.0
        assert mf(1.0) == 0.0

    def test_linear_slopes(self):
        mf = Trapezoid(0.0, 0.4, 0.6, 1.0)
        assert mf(0.2) == pytest.approx(0.5)
        assert mf(0.8) == pytest.approx(0.5)

    def test_paper_figure3_medium_and_high(self):
        """Figure 3: a measured CPU load of 0.6 has 0.5 medium and 0.2 high."""
        medium = Trapezoid(0.2, 0.35, 0.5, 0.7)
        high = Trapezoid(0.5, 1.0, 1.0, 1.0)
        assert medium(0.6) == pytest.approx(0.5)
        assert high(0.6) == pytest.approx(0.2)

    def test_paper_inference_example_high_at_090(self):
        """Section 3: CPU load 0.9 fuzzifies to mu_high = 0.8."""
        high = Trapezoid(0.5, 1.0, 1.0, 1.0)
        assert high(0.9) == pytest.approx(0.8)

    def test_degenerate_left_edge(self):
        mf = Trapezoid(0.0, 0.0, 0.5, 1.0)
        assert mf(0.0) == 1.0

    def test_degenerate_right_edge(self):
        mf = Trapezoid(0.0, 0.5, 1.0, 1.0)
        assert mf(1.0) == 1.0

    def test_unsorted_corners_rejected(self):
        with pytest.raises(ValueError):
            Trapezoid(0.5, 0.2, 0.6, 0.8)

    def test_support(self):
        assert Trapezoid(0.1, 0.2, 0.3, 0.4).support == (0.1, 0.4)

    @given(REALS)
    def test_grades_in_unit_interval(self, x):
        mf = Trapezoid(-1.0, 0.0, 1.0, 2.0)
        assert 0.0 <= mf(x) <= 1.0

    @given(st.lists(REALS, min_size=4, max_size=4).map(sorted))
    def test_arbitrary_trapezoid_grades_in_unit_interval(self, corners):
        a, b, c, d = corners
        mf = Trapezoid(a, b, c, d)
        for x in np.linspace(a - 1.0, d + 1.0, 23):
            assert 0.0 <= mf(float(x)) <= 1.0


class TestTriangle:
    """A triangle is a trapezoid whose plateau collapsed to ``b == c``."""

    def test_apex_is_one(self):
        mf = Trapezoid(0.0, 0.5, 0.5, 1.0)
        assert mf(0.5) == 1.0

    def test_slopes(self):
        mf = Trapezoid(0.0, 0.5, 0.5, 1.0)
        assert mf(0.25) == pytest.approx(0.5)
        assert mf(0.75) == pytest.approx(0.5)


class TestRamps:
    def test_ramp_up_endpoints(self):
        mf = RampUp(0.0, 1.0)
        assert mf(0.0) == 0.0
        assert mf(1.0) == 1.0
        assert mf(0.6) == pytest.approx(0.6)

    def test_ramp_up_saturates(self):
        mf = RampUp(0.2, 0.4)
        assert mf(0.1) == 0.0
        assert mf(0.9) == 1.0

    def test_ramp_down_mirrors_ramp_up(self):
        up, down = RampUp(0.0, 1.0), Trapezoid(0.0, 0.0, 0.0, 1.0)
        for x in np.linspace(0.0, 1.0, 11):
            assert down(float(x)) == pytest.approx(1.0 - up(float(x)))

    def test_invalid_ramp_rejected(self):
        with pytest.raises(ValueError):
            RampUp(1.0, 1.0)
        with pytest.raises(ValueError):
            RampUp(2.0, 1.0)


class TestRectangleSingletonConstant:
    def test_rectangle_is_crisp(self):
        mf = Trapezoid(0.2, 0.2, 0.4, 0.4)
        assert mf(0.2) == 1.0
        assert mf(0.3) == 1.0
        assert mf(0.4) == 1.0
        assert mf(0.19) == 0.0

    def test_singleton(self):
        mf = Trapezoid(0.5, 0.5, 0.5, 0.5)
        assert mf(0.5) == 1.0
        assert mf(0.5000001) == 0.0


def grade(expression, **grades):
    """An antecedent's truth where variable ``v`` has term grades ``grades``."""
    return truth(expression, {"v": grades})


class TestAlgebra:
    def test_clip_truncates(self):
        clipped = ClippedSet(RampUp(0.0, 1.0), 0.6)
        assert clipped(0.3) == pytest.approx(0.3)
        assert clipped(0.9) == pytest.approx(0.6)

    def test_clip_height_validated(self):
        with pytest.raises(ValueError):
            ClippedSet(RampUp(0.0, 1.0), 1.2)

    def test_union_is_pointwise_max(self):
        a, b = Trapezoid(0.0, 0.0, 0.2, 0.4), Trapezoid(0.3, 0.5, 1.0, 1.0)
        union = UnionSet((a, b))
        for x in np.linspace(0.0, 1.0, 21):
            assert union(float(x)) == pytest.approx(max(a(float(x)), b(float(x))))

    def test_intersection_is_pointwise_min(self):
        a, b = RampUp(0.0, 1.0), Trapezoid(0.0, 0.0, 0.0, 1.0)
        inter = And((Is("v", "a"), Is("v", "b")))
        for x in np.linspace(0.0, 1.0, 21):
            ga, gb = a(float(x)), b(float(x))
            assert grade(inter, a=ga, b=gb) == min(ga, gb)

    def test_complement(self):
        assert grade(Not(Is("v", "c")), c=0.3) == pytest.approx(0.7)

    def test_empty_combination_rejected(self):
        with pytest.raises(ValueError):
            UnionSet(())

    @given(UNIT, UNIT)
    def test_de_morgan_on_constants(self, ga, gb):
        a, b = Is("v", "a"), Is("v", "b")
        lhs = Not(Or((a, b)))
        rhs = And((Not(a), Not(b)))
        assert grade(lhs, a=ga, b=gb) == pytest.approx(grade(rhs, a=ga, b=gb))

    @given(UNIT)
    def test_union_idempotent(self, g):
        a = ClippedSet(Trapezoid(0.0, 0.0, 1.0, 1.0), g)
        assert UnionSet((a, a))(0.5) == pytest.approx(a(0.5))

    @given(st.floats(min_value=0.0, max_value=1.0), UNIT)
    def test_clip_below_height_is_identity(self, x, height):
        base = RampUp(0.0, 1.0)
        clipped = ClippedSet(base, height)
        assert clipped(x) == pytest.approx(min(base(x), height))

    def test_evaluate_vectorizes(self):
        mf = RampUp(0.0, 1.0)
        xs = np.linspace(0.0, 1.0, 5)
        np.testing.assert_allclose(mf.evaluate(xs), xs)


class TestFuzzySet:
    def test_named_set_delegates(self):
        """A linguistic term is the paper's named set ``A = {(x, mu_A(x))}``."""
        fs = LinguisticTerm("high", Trapezoid(0.5, 1.0, 1.0, 1.0))
        assert fs.name == "high"
        assert fs.grade(0.9) == pytest.approx(0.8)
        assert fs.membership.support == (0.5, 1.0)

    def test_complement_involution_on_plateau(self):
        mf = Trapezoid(0.0, 0.2, 0.8, 1.0)
        double = Not(Not(Is("v", "t")))
        for x in np.linspace(0.0, 1.0, 11):
            assert grade(double, t=mf(float(x))) == pytest.approx(mf(float(x)))
