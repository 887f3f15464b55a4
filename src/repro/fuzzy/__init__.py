"""Generic fuzzy-logic engine underlying the AutoGlobe controllers.

This package implements the fuzzy-controller foundations described in
Section 3 of the paper:

* membership functions and fuzzy sets (:mod:`repro.fuzzy.sets`),
* linguistic terms and variables (:mod:`repro.fuzzy.variables`),
* the antecedent expression algebra with ``min`` conjunction and ``max``
  disjunction (:mod:`repro.fuzzy.expressions`),
* rules and rule bases (:mod:`repro.fuzzy.rules`) with a textual DSL
  (:mod:`repro.fuzzy.parser`),
* max-min inference with fuzzy-union aggregation
  (:mod:`repro.fuzzy.inference`) and, for batches, one flat numeric
  program compiled per rule base (:mod:`repro.fuzzy.compiled`),
* defuzzification, primarily the paper's leftmost-maximum method
  (:mod:`repro.fuzzy.defuzzify`), and
* a generic controller that chains fuzzification, inference and
  defuzzification (:mod:`repro.fuzzy.controller`).
"""

from repro.fuzzy.controller import ControllerResult, FuzzyController
from repro.fuzzy.defuzzify import (
    Centroid,
    Defuzzifier,
    LeftmostMax,
    MeanOfMax,
    RightmostMax,
)
from repro.fuzzy.expressions import And, Expression, Is, Not, Or, Somewhat, Very
from repro.fuzzy.inference import InferenceEngine, InferenceResult
from repro.fuzzy.parser import ParseError, parse_expression, parse_rule, parse_rules
from repro.fuzzy.rules import Rule, RuleBase
from repro.fuzzy.sets import (
    ClippedSet,
    Constant,
    FuzzySet,
    MembershipFunction,
    PiecewiseLinear,
    RampDown,
    RampUp,
    Rectangle,
    Singleton,
    Trapezoid,
    Triangle,
    UnionSet,
)
from repro.fuzzy.variables import LinguisticTerm, LinguisticVariable

__all__ = [
    "And",
    "Centroid",
    "ClippedSet",
    "Constant",
    "ControllerResult",
    "Defuzzifier",
    "Expression",
    "FuzzyController",
    "FuzzySet",
    "InferenceEngine",
    "InferenceResult",
    "Is",
    "LeftmostMax",
    "LinguisticTerm",
    "LinguisticVariable",
    "MeanOfMax",
    "MembershipFunction",
    "Not",
    "Or",
    "ParseError",
    "PiecewiseLinear",
    "RampDown",
    "RampUp",
    "Rectangle",
    "RightmostMax",
    "Rule",
    "RuleBase",
    "Singleton",
    "Somewhat",
    "Trapezoid",
    "Triangle",
    "UnionSet",
    "Very",
    "parse_expression",
    "parse_rule",
    "parse_rules",
]
