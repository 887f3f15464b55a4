"""The rule-base analyzers against their scalar oracle.

AG107 and AG110 (:mod:`repro.analysis.rulebase`) and AG306 and AG307
(:mod:`repro.analysis.verify.oscillation`) read firing strengths off the
compiled program; ``tests/analysis/rulebase_oracle.py`` walks the same
points one at a time.  On the built-in landscape, on ``sap-medium.xml``
and on drawn override landscapes both must report the same diagnostics,
text and details alike.  The draws carry OR/NOT/VERY/SOMEWHAT, rules
asserting an undeclared output (AG103) or reading an undeclared input
(AG101/AG102, which the oscillation pass skips a service for only where
the scalar walk would have read them), start/stop couples (AG107),
``minApplicability`` up to 1.0 (AG110), thresholds that let a scale-out
land idle (AG306/AG307), and merged bases whose critical-point grid is
past ``_MAX_GRID``, so the pseudo-random fallback runs too.
"""

import dataclasses
import math
import random
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import rulebase, sampling
from repro.analysis.rulebase import action_universe, analyze_rule_bases, trigger_region
from repro.analysis.sampling import critical_points
from repro.analysis.verify import analyze_oscillation
from repro.config.builtin import paper_landscape
from repro.config.model import Action
from repro.config.xml_loader import load_landscape
from repro.core.rulebases import default_action_rulebases
from repro.fuzzy.expressions import And, Is, Not, Or, Somewhat, Very
from repro.fuzzy.parser import parse_rules
from repro.monitoring.lms import SituationKind
from tests.analysis.rulebase_oracle import joint_sample_dicts, scalar_searches

SAP_MEDIUM = (
    Path(__file__).resolve().parents[2] / "src/repro/config/data/sap-medium.xml"
)

#: drawn landscapes; each is one test case
DRAWS = 60

INPUTS, __ = action_universe()
OUTPUTS = [action.value for action in Action]
TRIGGERS = [kind.value for kind in SituationKind]


def _expression(rng, depth=0):
    roll = rng.random()
    if depth >= 2 or roll < 0.35:
        if rng.random() < 0.03:  # AG101/AG102: a rule no check can evaluate
            return rng.choice([Is("warpFactor", "high"), Is("cpuLoad", "enormous")])
        variable = rng.choice(list(INPUTS.values()))
        return Is(variable.name, rng.choice(variable.term_names))
    operands = tuple(_expression(rng, depth + 1) for __ in range(rng.randint(2, 3)))
    if roll < 0.55:
        return And(operands)
    if roll < 0.7:
        return Or(operands)
    operand = _expression(rng, depth + 1)
    if roll < 0.8:
        return Not(operand)
    return Very(operand) if roll < 0.9 else Somewhat(operand)


def _rule(rng, output, antecedent=None):
    weight = rng.choice([1.0, 1.0, 1.0, 0.8, 0.5])
    text = f"IF {antecedent or _expression(rng)} THEN {output} IS applicable"
    return text + (f" WITH {weight}" if weight < 1.0 else "")


def _override(rng):
    rules = []
    for __ in range(rng.randint(1, 4)):
        roll = rng.random()
        output = "boom" if roll < 0.15 else rng.choice(OUTPUTS)
        rules.append(_rule(rng, output))
    if rng.random() < 0.4:  # a couple from overlapping antecedents
        shared = _expression(rng, depth=1)
        rules.append(_rule(rng, "start", shared))
        rules.append(_rule(rng, "stop", And((shared, _expression(rng, depth=2)))))
    rng.shuffle(rules)
    return "\n".join(rules)


def drawn_landscape(seed):
    rng = random.Random(seed)
    landscape = paper_landscape()
    landscape.controller = dataclasses.replace(
        landscape.controller,
        min_applicability=rng.choice([0.05, 0.1, 0.3, 0.6, 0.9, 1.0]),
        overload_threshold=rng.choice([0.45, 0.5, 0.6, 0.7]),
        idle_threshold_base=rng.choice([0.125, 0.25, 0.35, 0.4]),
    )
    for position in rng.sample(range(len(landscape.services)), rng.randint(1, 2)):
        triggers = rng.sample(TRIGGERS, rng.randint(1, 2))
        landscape.services[position] = dataclasses.replace(
            landscape.services[position],
            rule_overrides={trigger: _override(rng) for trigger in triggers},
        )
    return landscape


def unevaluable_idle_rule():
    """AG307 fires for one coupled pair while another idle rule reads an
    undeclared term: the scalar walk never reads that rule (its output is
    not coupled and scale-out never wins), so the service is not skipped."""
    landscape = paper_landscape()
    landscape.controller = dataclasses.replace(
        landscape.controller,
        min_applicability=0.9,
        overload_threshold=0.5,
        idle_threshold_base=0.4,
    )
    landscape.services[0] = dataclasses.replace(
        landscape.services[0],
        rule_overrides={
            "serviceOverloaded": "IF serviceLoad IS medium THEN scaleOut IS applicable WITH 0.6",
            "serviceIdle": (
                "IF serviceLoad IS low THEN scaleIn IS applicable WITH 0.6\n"
                "IF cpuLoad IS enormous THEN move IS applicable"
            ),
        },
    )
    return landscape


def _report(diagnostics):
    return [(str(d), d.details) for d in diagnostics]


def _both(landscape, monkeypatch):
    found = _report(analyze_rule_bases(landscape) + analyze_oscillation(landscape))
    with scalar_searches(monkeypatch):
        expected = _report(
            analyze_rule_bases(landscape) + analyze_oscillation(landscape)
        )
    return found, expected


@pytest.mark.parametrize(
    "landscape",
    [paper_landscape, lambda: load_landscape(SAP_MEDIUM), unevaluable_idle_rule],
    ids=["builtin", "sap-medium", "unevaluable-idle-rule"],
)
def test_bundled_landscapes_equal_the_oracle(landscape, monkeypatch):
    found, expected = _both(landscape(), monkeypatch)
    assert found == expected
    if landscape is unevaluable_idle_rule:
        assert any("[AG307]" in text for text, __ in found)


@pytest.mark.parametrize("seed", range(DRAWS))
def test_drawn_override_landscapes_equal_the_oracle(seed, monkeypatch):
    found, expected = _both(drawn_landscape(seed), monkeypatch)
    assert found == expected


def _merged_grid(landscape, service, trigger):
    kind = SituationKind(trigger)
    rules = list(parse_rules(service.rule_overrides[trigger]))
    default = default_action_rulebases().get(kind)
    names = set().union(*(rule.variables() for rule in rules))
    if default is not None:
        names |= default.input_variables()
    region = trigger_region(kind, landscape)
    size = 1
    for name in names & set(INPUTS):
        size *= len(critical_points(INPUTS[name], region.get(name)))
    return size


def test_the_draws_cover_what_the_oracle_must_agree_on():
    """Each feature the module docstring names occurs in some draw."""
    codes = set()
    texts = []
    past_the_grid = 0
    settings = []
    for seed in range(DRAWS):
        landscape = drawn_landscape(seed)
        settings.append(landscape.controller.min_applicability)
        diagnostics = analyze_rule_bases(landscape) + analyze_oscillation(landscape)
        codes |= {d.code for d in diagnostics}
        for service in landscape.services:
            for trigger, text in service.rule_overrides.items():
                texts.append(text)
                if _merged_grid(landscape, service, trigger) > sampling._MAX_GRID:
                    past_the_grid += 1
    assert {"AG101", "AG102", "AG103", "AG107", "AG110", "AG306", "AG307"} <= codes
    joined = "\n".join(texts)
    assert all(keyword in joined for keyword in (" OR ", "NOT ", "VERY ", "SOMEWHAT "))
    assert 1.0 in settings
    assert past_the_grid >= DRAWS // 4


def _past_the_grid():
    """The first drawn landscape with a merged base past ``_MAX_GRID``."""
    for seed in range(DRAWS):
        landscape = drawn_landscape(seed)
        for service in landscape.services:
            for trigger in service.rule_overrides:
                if _merged_grid(landscape, service, trigger) > sampling._MAX_GRID:
                    return landscape
    raise AssertionError("no draw is past the grid")


@pytest.mark.parametrize(
    "landscape",
    [paper_landscape, lambda: load_landscape(SAP_MEDIUM), _past_the_grid],
    ids=["builtin", "sap-medium", "past-the-grid"],
)
def test_sample_columns_are_the_points_one_by_one(landscape, monkeypatch):
    """Every ``joint_samples`` array the linter reads holds the points
    the point-by-point sampler yields, in its order."""
    calls = []

    def recorded(variables, region=None):
        calls.append((variables, region))
        return sampling.joint_samples(variables, region)

    monkeypatch.setattr(rulebase, "joint_samples", recorded)
    analyze_rule_bases(landscape())
    assert calls
    sizes = []
    for variables, region in calls:
        columns = sampling.joint_samples(variables, region)
        points = list(joint_sample_dicts(variables, region))
        expected = np.array(
            [[point[v.name] for point in points] for v in variables], dtype=np.float64
        ).reshape(len(variables), len(points))
        assert columns.shape == expected.shape
        assert np.array_equal(columns, expected)
        sizes.append(
            math.prod(len(critical_points(v, (region or {}).get(v.name))) for v in variables)
        )
    if landscape is _past_the_grid:
        assert max(sizes) > sampling._MAX_GRID
