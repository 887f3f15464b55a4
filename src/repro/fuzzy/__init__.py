"""Generic fuzzy-logic engine underlying the AutoGlobe controllers.

This package implements the fuzzy-controller foundations described in
Section 3 of the paper:

* membership functions and fuzzy sets (:mod:`repro.fuzzy.sets`),
* linguistic terms and variables (:mod:`repro.fuzzy.variables`),
* the antecedent expression algebra with ``min`` conjunction and ``max``
  disjunction (:mod:`repro.fuzzy.expressions`),
* rules and rule bases (:mod:`repro.fuzzy.rules`) with a textual DSL
  (:mod:`repro.fuzzy.parser`),
* max-min inference with fuzzy-union aggregation and the paper's
  leftmost-maximum defuzzification (:mod:`repro.fuzzy.inference`), run
  as one flat numeric program compiled per rule base
  (:mod:`repro.fuzzy.compiled`), and
* a generic controller that chains fuzzification, inference and
  defuzzification (:mod:`repro.fuzzy.controller`).
"""

from repro.fuzzy.controller import ControllerResult, FuzzyController
from repro.fuzzy.expressions import And, Expression, Is, Not, Or, Somewhat, Very
from repro.fuzzy.inference import InferenceEngine
from repro.fuzzy.parser import ParseError, parse_expression, parse_rule, parse_rules
from repro.fuzzy.rules import Rule, RuleBase
from repro.fuzzy.sets import (
    Constant,
    MembershipFunction,
    PiecewiseLinear,
    RampDown,
    RampUp,
    Rectangle,
    Singleton,
    Trapezoid,
    Triangle,
)
from repro.fuzzy.variables import LinguisticTerm, LinguisticVariable

__all__ = [
    "And",
    "Constant",
    "ControllerResult",
    "Expression",
    "FuzzyController",
    "InferenceEngine",
    "Is",
    "LinguisticTerm",
    "LinguisticVariable",
    "MembershipFunction",
    "Not",
    "Or",
    "ParseError",
    "PiecewiseLinear",
    "RampDown",
    "RampUp",
    "Rectangle",
    "Rule",
    "RuleBase",
    "Singleton",
    "Somewhat",
    "Trapezoid",
    "Triangle",
    "Very",
    "parse_expression",
    "parse_rule",
    "parse_rules",
]
