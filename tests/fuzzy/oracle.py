"""The scalar fuzzy walk, kept as the oracle of the compiled program.

Fuzzify every measurement against its variable, take each rule's firing
strength with ``Rule.firing_strength``, clip each rule's consequent at
that strength, unite the clipped sets of one output variable and read
the leftmost maximum off a grid of :data:`RESOLUTION` points (Figure 5).
It walks objects and Python floats where
:class:`repro.fuzzy.compiled.Program` walks matrices, and shares with it
only the membership functions, expressions and rules — so a stage of
the program that drifts from the paper's cycle shows as a difference of
``float.hex()``.

:func:`host_measurements` and :func:`server_ranking` are the paper's
server-selection loop on top of it: gather the Table 3 inputs of one
host, run the controller once per host, sort.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.core.server_selection import RESERVATION_HORIZON_MINUTES
from repro.fuzzy.sets import MembershipFunction, _validate_grade

#: points of the output grid the leftmost maximum is read off
RESOLUTION = 1001

#: grades closer than this are equal when locating the maximum
GRADE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ClippedSet:
    """A membership function clipped at ``height`` (max-min inference)."""

    base: MembershipFunction
    height: float

    def __post_init__(self) -> None:
        _validate_grade(self.height, "height")

    def __call__(self, x: float) -> float:
        return min(self.base(x), self.height)

    def evaluate(self, xs):
        return np.minimum(self.base.evaluate(xs), self.height)


@dataclass(frozen=True)
class UnionSet:
    """Fuzzy union: ``mu(x) = max_i mu_i(x)``."""

    members: Tuple

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("union of zero fuzzy sets is undefined")

    def __call__(self, x: float) -> float:
        return max(member(x) for member in self.members)

    def evaluate(self, xs):
        return np.maximum.reduce([member.evaluate(xs) for member in self.members])


@lru_cache(maxsize=4096)  # contexts repeat the same few clip heights
def leftmost_max(fuzzy_set, domain: Tuple[float, float], resolution: int = RESOLUTION) -> float:
    """The leftmost grid point at which ``fuzzy_set`` takes its maximum."""
    lo, hi = domain
    if lo >= hi:
        raise ValueError(f"empty defuzzification domain {domain!r}")
    xs = np.linspace(lo, hi, resolution)
    grades = fuzzy_set.evaluate(xs)
    return float(xs[grades >= float(grades.max()) - GRADE_TOLERANCE][0])


def infer(engine, rule_base, measurements: Mapping[str, float]):
    """``(outputs, grades, strengths, output_sets)`` of one context:
    crisp value and united clipped set per output variable, grades per
    measured variable and term, firing strengths in rule-base order."""
    grades: Dict[str, Dict[str, float]] = {}
    for name, value in measurements.items():
        if name not in engine.input_variables:
            raise KeyError(f"measurement for unknown input variable {name!r}")
        grades[name] = dict(engine.input_variables[name].fuzzify(value))
    strengths: List[float] = []
    clipped: Dict[str, List[ClippedSet]] = {}
    for rule in rule_base:
        strength = rule.firing_strength(grades)
        strengths.append(strength)
        output = engine.output_variables[rule.output_variable]
        clipped.setdefault(rule.output_variable, []).append(
            ClippedSet(output.term(rule.output_term).membership, strength)
        )
    output_sets = {
        name: sets[0] if len(sets) == 1 else UnionSet(tuple(sets))
        for name, sets in clipped.items()
    }
    outputs = {
        name: leftmost_max(fuzzy_set, engine.output_variables[name].domain)
        for name, fuzzy_set in output_sets.items()
    }
    return outputs, grades, strengths, output_sets


def host_measurements(platform, host, reservations=None) -> Dict[str, float]:
    """The Table 3 input variables of one candidate host, read one by one;
    with a reservation book, its booked capacity counts in the CPU load."""
    spec = host.spec
    cpu_load = platform.host_cpu_load(host.name)
    if reservations is not None:
        cpu_load = reservations.effective_cpu_load(
            host.name,
            cpu_load,
            host.cpu_capacity,
            platform.current_time,
            horizon=RESERVATION_HORIZON_MINUTES,
        )
    return {
        "cpuLoad": cpu_load,
        "memLoad": platform.host_mem_load(host.name),
        "instancesOnServer": float(len(host.running_instances)),
        "performanceIndex": float(spec.performance_index),
        "numberOfCpus": float(spec.num_cpus),
        "cpuClock": float(spec.cpu_clock_mhz),
        "cpuCache": float(spec.cpu_cache_kb),
        "memory": float(host.memory_free_mb(platform.memory_of)),
        "swapSpace": float(spec.swap_space_mb),
        "tempSpace": float(spec.temp_space_mb),
    }


def server_score(selector, action, measurements: Mapping[str, float]) -> float:
    """One host's suitability for ``action`` under ``selector``'s rule base."""
    engine = selector._controller.engine
    return infer(engine, selector._rulebases[action], measurements)[0]["suitability"]


def server_ranking(selector, platform, action, hosts) -> List[Tuple[str, str]]:
    """The paper's loop: run the controller once per server, then sort by
    suitability, then CPU load, then name; ``(name, score.hex())`` pairs."""
    scored = []
    for host in hosts:
        measurements = host_measurements(platform, host, selector.reservations)
        score = server_score(selector, action, measurements)
        scored.append((-score, measurements["cpuLoad"], host.name))
    scored.sort()
    return [(name, (-negated).hex()) for negated, __, name in scored]
