"""Tests for the paper's defuzzification: the leftmost maximum.

The grid scan is the scalar oracle's (``tests/fuzzy/oracle.py``); the
compiled program's closed form must read the same value off the
``applicable`` ramp clipped at any height.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fuzzy.inference import InferenceEngine
from repro.fuzzy.parser import parse_rules
from repro.fuzzy.rules import RuleBase
from repro.fuzzy.sets import RampUp, Trapezoid
from repro.fuzzy.variables import LinguisticTerm, LinguisticVariable
from tests.fuzzy.oracle import ClippedSet, UnionSet, leftmost_max

UNIT_DOMAIN = (0.0, 1.0)


def closed_form(height):
    """The compiled program's leftmost maximum of the unit ramp clipped at
    ``height``: one rule, its strength handed straight to ``defuzzify``."""
    engine = InferenceEngine(
        [LinguisticVariable("a", [LinguisticTerm("high", Trapezoid(0.0, 1.0, 1.0, 1.0))],
                            UNIT_DOMAIN)],
        [LinguisticVariable("x", [LinguisticTerm("applicable", RampUp(0.0, 1.0))],
                            UNIT_DOMAIN)],
    )
    rules = RuleBase("one", list(parse_rules("IF a IS high THEN x IS applicable")))
    return float(engine.program(rules).defuzzify(np.array([[height]]))[0, 0])


class TestLeftmostMax:
    def test_paper_figure5_example(self):
        """Clipping the ramp 'applicable' set at 0.6 defuzzifies to 0.6."""
        clipped = ClippedSet(RampUp(0.0, 1.0), 0.6)
        assert leftmost_max(clipped, UNIT_DOMAIN) == pytest.approx(0.6, abs=1e-3)
        assert closed_form(0.6) == leftmost_max(clipped, UNIT_DOMAIN)

    def test_scale_out_example(self):
        """The second rule's applicability 0.3 (Section 3)."""
        clipped = ClippedSet(RampUp(0.0, 1.0), 0.3)
        assert leftmost_max(clipped, UNIT_DOMAIN) == pytest.approx(0.3, abs=1e-3)
        assert closed_form(0.3) == leftmost_max(clipped, UNIT_DOMAIN)

    def test_zero_clip_gives_domain_origin(self):
        clipped = ClippedSet(RampUp(0.0, 1.0), 0.0)
        assert leftmost_max(clipped, UNIT_DOMAIN) == 0.0

    def test_plateau_returns_leftmost(self):
        mf = Trapezoid(0.2, 0.4, 0.8, 1.0)
        assert leftmost_max(mf, UNIT_DOMAIN) == pytest.approx(0.4, abs=1e-3)

    def test_union_of_clipped_sets(self):
        union = UnionSet(
            (ClippedSet(RampUp(0.0, 1.0), 0.6), ClippedSet(RampUp(0.0, 1.0), 0.3))
        )
        assert leftmost_max(union, UNIT_DOMAIN) == pytest.approx(0.6, abs=1e-3)

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            leftmost_max(RampUp(0.0, 1.0), (1.0, 1.0))

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_unit_ramp_clip_recovers_height(self, height):
        """Invariant used throughout AutoGlobe: defuzz(clip(ramp, h)) == h."""
        clipped = ClippedSet(RampUp(0.0, 1.0), height)
        assert leftmost_max(clipped, UNIT_DOMAIN) == pytest.approx(height, abs=1e-3)
        assert closed_form(height).hex() == leftmost_max(clipped, UNIT_DOMAIN).hex()

    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_result_always_in_domain(self, a, b):
        lo, hi = min(a, b), max(a, b) + 0.1
        value = leftmost_max(RampUp(0.0, 1.0), (lo, hi))
        assert lo <= value <= hi


class TestResolution:
    def test_higher_resolution_tightens_result(self):
        clipped = ClippedSet(RampUp(0.0, 1.0), 0.333)
        coarse = leftmost_max(clipped, UNIT_DOMAIN, 11)
        fine = leftmost_max(clipped, UNIT_DOMAIN, 10001)
        assert abs(fine - 0.333) <= abs(coarse - 0.333) + 1e-9
