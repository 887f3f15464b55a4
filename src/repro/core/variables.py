"""Linguistic variables of the AutoGlobe controllers.

The load variables follow Figure 3: trapezoid ``low`` / ``medium`` /
``high`` terms over [0, 1], calibrated so that the paper's worked
examples hold exactly (a CPU load of 0.6 has 0.5 ``medium`` and 0.2
``high`` membership; a load of 0.9 has 0.8 ``high``).

Count-like variables (``instancesOnServer``, ``instancesOfService``,
``numberOfCpus``) use ``few`` / ``some`` / ``many`` terms, and hardware
metadata variables (``cpuClock``, ``cpuCache``, ``memory``,
``swapSpace``, ``tempSpace``) use magnitude terms over their natural
units.

Output variables carry a single ``applicable`` term whose membership is
the unit ramp, so that leftmost-maximum defuzzification of the clipped
set recovers the rule base's strongest firing strength — exactly the
mechanics of Figure 5.
"""

from __future__ import annotations

from typing import List

from repro.fuzzy.sets import RampUp, Trapezoid
from repro.fuzzy.variables import LinguisticTerm, LinguisticVariable

__all__ = [
    "load_variable",
    "count_variable",
    "magnitude_variable",
    "applicability_variable",
    "action_selection_inputs",
    "server_selection_inputs",
    "PERFORMANCE_INDEX_DOMAIN",
]

PERFORMANCE_INDEX_DOMAIN = (0.0, 10.0)


def load_variable(name: str) -> LinguisticVariable:
    """A [0, 1] load variable with the paper's Figure 3 terms."""
    return LinguisticVariable(
        name,
        [
            LinguisticTerm("low", Trapezoid(0.0, 0.0, 0.2, 0.4)),
            LinguisticTerm("medium", Trapezoid(0.2, 0.35, 0.5, 0.7)),
            LinguisticTerm("high", Trapezoid(0.5, 1.0, 1.0, 1.0)),
        ],
        domain=(0.0, 1.0),
    )


def performance_index_variable() -> LinguisticVariable:
    """Relative server performance on a 0-10 scale.

    With the paper's hardware, a BX300 blade (index 1) is fully ``low``,
    a BX600 blade (index 2) is half ``low`` / half ``medium``, and a
    BL40p server (index 9) is fully ``high``.  The databases' minimum
    index of 5 sits at the medium/high boundary.
    """
    return LinguisticVariable(
        "performanceIndex",
        [
            LinguisticTerm("low", Trapezoid(0.0, 0.0, 1.0, 3.0)),
            LinguisticTerm("medium", Trapezoid(1.0, 3.0, 5.0, 7.0)),
            LinguisticTerm("high", Trapezoid(5.0, 7.0, 10.0, 10.0)),
        ],
        domain=PERFORMANCE_INDEX_DOMAIN,
    )


def count_variable(name: str, maximum: float = 10.0) -> LinguisticVariable:
    """A small-count variable with ``few`` / ``some`` / ``many`` terms.

    Calibrated for the instance counts of the paper's landscape: one
    instance is fully ``few``, two to four instances are ``some``, and
    six or more are fully ``many`` (with ``maximum`` = 10).
    """
    unit = maximum / 10.0
    return LinguisticVariable(
        name,
        [
            LinguisticTerm("few", Trapezoid(0.0, 0.0, unit * 1.0, unit * 2.0)),
            LinguisticTerm(
                "some", Trapezoid(unit * 1.0, unit * 2.0, unit * 4.0, unit * 6.0)
            ),
            LinguisticTerm(
                "many", Trapezoid(unit * 4.0, unit * 6.0, maximum, maximum)
            ),
        ],
        domain=(0.0, maximum),
    )


def magnitude_variable(name: str, maximum: float) -> LinguisticVariable:
    """A hardware magnitude variable with ``small`` / ``medium`` / ``large``."""
    return LinguisticVariable(
        name,
        [
            LinguisticTerm("small", Trapezoid(0.0, 0.0, maximum * 0.1, maximum * 0.3)),
            LinguisticTerm(
                "medium",
                Trapezoid(maximum * 0.1, maximum * 0.3, maximum * 0.5, maximum * 0.7),
            ),
            LinguisticTerm(
                "large", Trapezoid(maximum * 0.5, maximum * 0.7, maximum, maximum)
            ),
        ],
        domain=(0.0, maximum),
    )


def applicability_variable(name: str) -> LinguisticVariable:
    """An output variable with a single ramp-shaped ``applicable`` term."""
    return LinguisticVariable(
        name,
        [LinguisticTerm("applicable", RampUp(0.0, 1.0))],
        domain=(0.0, 1.0),
    )


def action_selection_inputs() -> List[LinguisticVariable]:
    """The input variables of Table 1."""
    return [
        load_variable("cpuLoad"),
        load_variable("memLoad"),
        performance_index_variable(),
        load_variable("instanceLoad"),
        load_variable("serviceLoad"),
        count_variable("instancesOnServer"),
        count_variable("instancesOfService"),
    ]


def server_selection_inputs() -> List[LinguisticVariable]:
    """The input variables of Table 3."""
    return [
        load_variable("cpuLoad"),
        load_variable("memLoad"),
        count_variable("instancesOnServer"),
        performance_index_variable(),
        count_variable("numberOfCpus", maximum=8.0),
        magnitude_variable("cpuClock", maximum=4000.0),       # MHz
        magnitude_variable("cpuCache", maximum=4096.0),       # KB
        magnitude_variable("memory", maximum=16384.0),        # MB
        magnitude_variable("swapSpace", maximum=32768.0),     # MB
        magnitude_variable("tempSpace", maximum=131072.0),    # MB
    ]
