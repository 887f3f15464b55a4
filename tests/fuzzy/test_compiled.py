"""The compiled program against the scalar oracle.

Every entry point — ``FuzzyController.evaluate`` / ``evaluate_many`` and
``InferenceEngine.infer`` / ``infer_outputs_many`` — runs one
:class:`repro.fuzzy.compiled.Program`.  ``tests/fuzzy/oracle.py`` is the
deliberately naive evaluator (the idiom of
``tests/serviceglobe/test_landscape_state.py``): hypothesis draws
variables, rule trees and batches, and every output, grade and firing
strength must equal the oracle's bit for bit (``float.hex()``).  The
remaining tests pin when a program is rebuilt, what it refuses, raises
and counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzzy import compiled
from repro.fuzzy.controller import FuzzyController
from repro.fuzzy.expressions import And, Is, Not, Or, Somewhat, Very
from repro.fuzzy.parser import parse_rules
from repro.fuzzy.rules import Rule, RuleBase
from repro.fuzzy.sets import (
    PiecewiseLinear,
    RampDown,
    RampUp,
    Rectangle,
    Singleton,
    Trapezoid,
)
from repro.fuzzy.variables import LinguisticTerm, LinguisticVariable
from tests.fuzzy import oracle

# -- strategies --------------------------------------------------------------------

#: corners live on a coarse lattice so that ``a == b``, ``b == c`` and
#: ``c == d`` are drawn often
LATTICE = st.integers(0, 8).map(lambda k: k / 8.0)


def _pair(draw):
    low, high = sorted(draw(st.lists(LATTICE, min_size=2, max_size=2, unique=True)))
    return low, high


@st.composite
def memberships(draw):
    kind = draw(
        st.sampled_from(
            ["trapezoid"] * 4 + ["ramp-up", "ramp-down", "rectangle", "piecewise", "singleton"]
        )
    )
    if kind == "trapezoid":
        return Trapezoid(*sorted(draw(st.lists(LATTICE, min_size=4, max_size=4))))
    if kind == "ramp-up":
        return RampUp(*_pair(draw))
    if kind == "ramp-down":
        return RampDown(*_pair(draw))
    if kind == "rectangle":
        return Rectangle(*sorted(draw(st.lists(LATTICE, min_size=2, max_size=2))))
    if kind == "singleton":
        return Singleton(draw(LATTICE))
    xs = sorted(draw(st.lists(LATTICE, min_size=2, max_size=4)))
    return PiecewiseLinear([(x, draw(LATTICE)) for x in xs])


@st.composite
def variables(draw, name):
    terms = [
        LinguisticTerm(f"t{i}", draw(memberships()))
        for i in range(draw(st.integers(1, 3)))
    ]
    return LinguisticVariable(name, terms, domain=_pair(draw))


def corner_values(variable):
    """Crisp values on, just beside, below and above every corner and bound."""
    points = set(variable.domain)
    for term in variable.terms:
        membership = term.membership
        points.update(membership.support)
        for attribute in "abcd":
            if hasattr(membership, attribute):
                points.add(getattr(membership, attribute))
    offsets = (0.0, 1e-9, -1e-9, 0.05, -0.05, 0.31, -2.0, 2.0)
    # ``+ 0.0`` keeps -0.0 out: its sign survives ``min``/``max`` differently
    return sorted({point + offset + 0.0 for point in points for offset in offsets})


def antecedents(atoms):
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            st.lists(children, min_size=2, max_size=3).map(lambda ops: And(tuple(ops))),
            st.lists(children, min_size=2, max_size=3).map(lambda ops: Or(tuple(ops))),
            children.map(Not),
            children.map(Very),
            children.map(Somewhat),
        ),
        max_leaves=6,
    )


#: consequents non-decreasing on [0, 1]: the ones with a closed form
CONSEQUENTS = [
    RampUp(0.0, 1.0),
    RampUp(0.25, 0.75),
    Trapezoid(0.2, 0.6, 1.0, 1.0),
    Rectangle(0.5, 1.0),
]


@st.composite
def cases(draw):
    inputs = [draw(variables(f"v{i}")) for i in range(draw(st.integers(1, 3)))]
    outputs = [
        LinguisticVariable(
            f"o{i}",
            [LinguisticTerm("applicable", draw(st.sampled_from(CONSEQUENTS)))],
            domain=(0.0, 1.0),
        )
        for i in range(draw(st.integers(1, 3)))
    ]
    atoms = st.sampled_from(
        [Is(v.name, term.name) for v in inputs for term in v.terms]
    )
    rules = []
    for __ in range(draw(st.integers(1, 7))):
        output = draw(st.sampled_from(outputs))
        rules.append(
            Rule(
                draw(antecedents(atoms)),
                output.name,
                draw(st.sampled_from(output.term_names)),
                weight=draw(st.sampled_from([1.0, 1.0, 0.97, 0.5, 0.3])),
            )
        )
    batch = [
        {v.name: draw(st.sampled_from(corner_values(v))) for v in inputs}
        for __ in range(draw(st.integers(0, 40)))
    ]
    return inputs, outputs, RuleBase("drawn", rules), batch


def columns_of(batch):
    return {name: np.array([m[name] for m in batch]) for name in batch[0]}


def evaluate_columns(controller, columns, rule_base=None):
    """The program on per-variable arrays, as a list of output dicts."""
    rule_base = rule_base or controller.rule_base
    count = len(next(iter(columns.values())))
    crisp = controller.engine.infer_outputs_many(rule_base, columns, count)
    names = [output.name for output in controller.engine.program(rule_base).outputs]
    return [dict(zip(names, row)) for row in crisp.T.tolist()]


def hexed(outputs):
    return [(name, value.hex()) for name, value in outputs.items()]


def hexed_grades(grades):
    return [(name, hexed(terms)) for name, terms in grades.items()]


# -- the oracle ---------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(case=cases())
def test_batched_outputs_equal_the_scalar_controller(case):
    inputs, outputs, rule_base, batch = case
    controller = FuzzyController(inputs, outputs, RuleBase("empty"))
    expected = [oracle.infer(controller.engine, rule_base, m) for m in batch]
    for measurements, (crisp, grades, strengths, __) in zip(batch, expected):
        result = controller.evaluate(measurements, rule_base)
        assert hexed(result.outputs) == hexed(crisp)
        assert hexed_grades(result.grades) == hexed_grades(grades)
        assert [f.rule for f in result.fired] == list(rule_base)
        assert [f.strength.hex() for f in result.fired] == [s.hex() for s in strengths]
    expected_outputs = [hexed(crisp) for crisp, *__ in expected]
    assert [hexed(o) for o in controller.evaluate_many(batch, rule_base)] == expected_outputs
    if batch:  # the column form ``ServerSelector`` hands over
        assert [
            hexed(o) for o in evaluate_columns(controller, columns_of(batch), rule_base)
        ] == expected_outputs


@settings(max_examples=120, deadline=None)
@given(case=cases())
def test_batched_output_sets_equal_scalar_inference(case):
    """Per output, the program's strength rows are the heights of the
    oracle's clipped sets, and its crisp row their leftmost maximum."""
    inputs, outputs, rule_base, batch = case
    engine = FuzzyController(inputs, outputs, RuleBase("empty")).engine
    if not batch:
        return
    program = engine.program(rule_base)
    strengths = program.strengths(program.inputs(columns_of(batch), len(batch)))
    crisp = engine.infer_outputs_many(rule_base, columns_of(batch), len(batch))
    for i, measurements in enumerate(batch):
        output_sets = oracle.infer(engine, rule_base, measurements)[3]
        assert [output.name for output in program.outputs] == list(output_sets)
        for position, output in enumerate(program.outputs):
            scalar = output_sets[output.name]
            members = getattr(scalar, "members", (scalar,))
            heights = strengths[output.start:output.stop, i].tolist()
            assert [m.height.hex() for m in members] == [h.hex() for h in heights]
            assert crisp[position, i].hex() == oracle.leftmost_max(
                scalar, engine.output_variables[output.name].domain
            ).hex()


# -- by-hand fixtures ---------------------------------------------------------------


def load_controller(rules_text, outputs=("x", "y"), inputs=("a", "b")):
    inputs = [
        LinguisticVariable(
            name,
            [
                LinguisticTerm("low", Trapezoid(0.0, 0.0, 0.2, 0.4)),
                LinguisticTerm("medium", Trapezoid(0.2, 0.35, 0.5, 0.7)),
                LinguisticTerm("high", Trapezoid(0.5, 1.0, 1.0, 1.0)),
            ],
            domain=(0.0, 1.0),
        )
        for name in inputs
    ]
    return FuzzyController(
        inputs,
        [
            LinguisticVariable(
                name, [LinguisticTerm("applicable", RampUp(0.0, 1.0))], domain=(0.0, 1.0)
            )
            for name in outputs
        ],
        RuleBase("hand", list(parse_rules(rules_text))),
    )


RULES = """
IF a IS high THEN x IS applicable
IF a IS high AND b IS high THEN y IS applicable
IF b IS medium THEN y IS applicable WITH 0.5
"""


def test_literals_a_reviewer_can_check():
    """``high`` of 0.9 is (0.9 - 0.5) / 0.5 = 0.8; ``medium`` of 0.6 is
    (0.7 - 0.6) / 0.2 = 0.5, halved by the rule weight."""
    controller = load_controller(RULES)
    first, second = controller.evaluate_many(
        [{"a": 0.9, "b": 1.0}, {"a": 0.2, "b": 0.6}]
    )
    assert first == {"x": 0.8, "y": 0.8}
    assert second["x"] == 0.0
    assert second["y"] == pytest.approx(0.25, abs=1e-12)


def test_exactly_on_every_corner():
    """``low`` and ``high`` have the degenerate edges ``a == b`` / ``c == d``
    whose unused branch divides by zero."""
    controller = load_controller(
        """
        IF a IS low THEN x IS applicable
        IF a IS medium THEN y IS applicable
        IF a IS high THEN z IS applicable
        """,
        outputs=("x", "y", "z"),
    )
    corners = [0.0, 0.2, 0.35, 0.4, 0.5, 0.7, 1.0]
    batch = [{"a": value} for value in corners]
    batched = controller.evaluate_many(batch)
    assert [hexed(o) for o in batched] == [
        hexed(oracle.infer(controller.engine, controller.rule_base, m)[0])
        for m in batch
    ]
    assert [o["x"] for o in batched] == pytest.approx([1, 1, 0.25, 0, 0, 0, 0])
    assert [o["y"] for o in batched] == [0, 0, 1, 1, 1, 0, 0]
    assert [o["z"] for o in batched] == pytest.approx([0, 0, 0, 0, 0, 0.4, 1])


def test_a_strength_a_hair_above_a_grid_point_takes_that_point():
    """(0.65 - 0.5) / 0.5 is 0.30000000000000004, the grid holds 0.3: the
    defuzzifier's tolerance takes 0.3, a bare ``searchsorted`` 0.301."""
    controller = load_controller(RULES)
    assert controller.evaluate({"a": 0.65, "b": 0.0}).outputs["x"] == 0.3
    assert controller.evaluate_many([{"a": 0.65, "b": 0.0}])[0]["x"] == 0.3


def test_blocks_tile_a_batch_larger_than_one_block():
    controller = load_controller(RULES)
    count = 2 * compiled._BLOCK + 1
    a = np.linspace(0.0, 1.0, count)
    b = np.linspace(1.0, 0.0, count)
    batched = evaluate_columns(controller, {"a": a, "b": b})
    assert controller.stats["batches"] == 1  # blocks are not batches
    assert controller.stats["contexts"] == count
    for i in (0, 1, compiled._BLOCK - 1, compiled._BLOCK, compiled._BLOCK + 1,
              2 * compiled._BLOCK - 1, 2 * compiled._BLOCK, count - 1):
        scalar = oracle.infer(controller.engine, controller.rule_base,
                              {"a": a[i], "b": b[i]})[0]
        assert hexed(batched[i]) == hexed(scalar)
    assert controller.evaluate_many([{"a": x, "b": y} for x, y in zip(a, b)]) == batched


def test_empty_rule_base_and_empty_batch():
    controller = load_controller("")
    assert controller.evaluate_many([{"a": 0.5, "b": 0.5}] * 2) == [{}, {}]
    assert controller.evaluate_many([]) == []
    assert controller.engine.infer_outputs_many(controller.rule_base, {}, 0).shape == (0, 0)
    assert load_controller(RULES).engine.infer_outputs_many(
        RuleBase("x", list(parse_rules(RULES))), {}, 0
    ).shape == (2, 0)
    # an empty per-call rule base is a rule base, not "use the default"
    assert load_controller(RULES).evaluate_many([{"a": 0.5, "b": 0.5}], RuleBase("e")) == [{}]


# -- invalidation -------------------------------------------------------------------


def test_a_rule_added_after_the_first_evaluation_changes_the_next():
    controller = load_controller("IF a IS high THEN x IS applicable")
    batch = [{"a": 0.9, "b": 0.6}]
    assert controller.evaluate_many(batch) == [{"x": 0.8}]
    controller.rule_base.add(
        next(iter(parse_rules("IF b IS medium THEN y IS applicable")))
    )
    assert controller.evaluate_many(batch) == [
        controller.evaluate(batch[0]).outputs
    ]
    assert set(controller.evaluate_many(batch)[0]) == {"x", "y"}
    controller.rule_base.extend(parse_rules("IF a IS low THEN x IS applicable"))
    controller.rule_base.rules[0] = next(
        iter(parse_rules("IF a IS medium THEN x IS applicable"))
    )
    low = [{"a": 0.1, "b": 0.6}]
    assert controller.evaluate_many(low)[0]["x"] == 1.0
    assert controller.evaluate_many(batch)[0]["x"] == 0.0
    assert controller.stats["programs_compiled"] == 3


def test_an_unchanged_rule_base_is_compiled_once():
    controller = load_controller(RULES)
    other = RuleBase("other", list(parse_rules("IF a IS low THEN x IS applicable")))
    for __ in range(5):
        controller.evaluate_many([{"a": 0.9, "b": 0.6}])
        controller.evaluate_many([{"a": 0.9, "b": 0.6}], other)
        evaluate_columns(controller, {"a": np.array([0.1]), "b": np.array([0.2])})
    assert controller.stats["programs_compiled"] == 2
    assert controller.stats["batches"] == 15


def test_one_rule_base_under_two_engines_compiles_twice():
    rule_base = RuleBase("shared", list(parse_rules("IF a IS low THEN x IS applicable")))
    narrow = load_controller("")
    wide = FuzzyController(
        [
            LinguisticVariable(
                "a", [LinguisticTerm("low", Trapezoid(0.0, 0.0, 0.5, 1.0))], (0.0, 1.0)
            )
        ],
        [LinguisticVariable("x", [LinguisticTerm("applicable", RampUp(0.0, 1.0))],
                            (0.0, 1.0))],
        RuleBase("empty"),
    )
    assert narrow.evaluate_many([{"a": 0.3}], rule_base) == [{"x": 0.5}]
    assert wide.evaluate_many([{"a": 0.3}], rule_base) == [{"x": 1.0}]
    assert narrow.stats["programs_compiled"] == wide.stats["programs_compiled"] == 1
    assert narrow.engine.program(rule_base) is not wide.engine.program(rule_base)


# -- errors -------------------------------------------------------------------------


@pytest.mark.parametrize(
    "terms, rules",
    [
        (
            [("applicable", RampUp(0.0, 1.0)), ("inapplicable", RampDown(0.0, 1.0))],
            "IF a IS high THEN x IS applicable\nIF a IS low THEN x IS inapplicable",
        ),
        ([("middling", Trapezoid(0.2, 0.4, 0.6, 0.8))], "IF a IS high THEN x IS middling"),
    ],
    ids=["two-consequents", "falling-consequent"],
)
def test_an_output_without_a_closed_form_is_refused_when_compiled(terms, rules):
    controller = FuzzyController(
        load_controller("").engine.input_variables.values(),
        [LinguisticVariable("x", [LinguisticTerm(n, m) for n, m in terms], (0.0, 1.0))],
        RuleBase("empty"),
    )
    rule_base = RuleBase("refused", list(parse_rules(rules)))
    for call in (
        lambda: controller.evaluate({"a": 0.5, "b": 0.5}, rule_base),
        lambda: controller.evaluate_many([{"a": 0.5, "b": 0.5}], rule_base),
    ):
        with pytest.raises(ValueError, match="output variable 'x'"):
            call()
    assert controller.stats["programs_compiled"] == 0


def test_an_invalid_rule_base_raises_on_every_call():
    controller = load_controller(RULES)
    unknown_input = RuleBase("bad", list(parse_rules("IF c IS high THEN x IS applicable")))
    unknown_output = RuleBase("bad", list(parse_rules("IF a IS high THEN z IS applicable")))
    for __ in range(2):
        with pytest.raises(ValueError, match="unknown input variable 'c'"):
            controller.evaluate_many([{"a": 0.5, "b": 0.5}], unknown_input)
        with pytest.raises(ValueError, match="unknown output variable 'z'"):
            controller.evaluate_many([], unknown_output)  # before returning []
        with pytest.raises(ValueError, match="unknown input variable 'c'"):
            controller.evaluate({"a": 0.5, "b": 0.5}, unknown_input)
    assert controller.stats["programs_compiled"] == 0


def test_unknown_terms_raise_what_the_scalar_walk_raises():
    controller = load_controller("")
    bad_term = RuleBase("bad", list(parse_rules("IF a IS enormous THEN x IS applicable")))
    for call in (
        lambda: controller.evaluate({"a": 0.5, "b": 0.5}, bad_term),
        lambda: controller.evaluate_many([{"a": 0.5, "b": 0.5}], bad_term),
    ):
        with pytest.raises(KeyError, match="variable 'a' has no term 'enormous'"):
            call()


def test_missing_and_unknown_measurements():
    controller = load_controller(RULES)
    for call in (
        lambda m: controller.evaluate(m),
        lambda m: controller.evaluate_many([m, m]),
        lambda m: controller.engine.infer_outputs_many(
            controller.rule_base, {k: [v] for k, v in m.items()}, 1
        ),
        lambda m: evaluate_columns(controller, {k: np.array([v]) for k, v in m.items()}),
    ):
        with pytest.raises(KeyError, match="no fuzzified value for variable 'b'"):
            call({"a": 0.9})
        with pytest.raises(
            KeyError, match="measurement for unknown input variable 'disk'"
        ):
            call({"a": 0.9, "b": 0.1, "disk": 0.5})
    # two variables missing under interleaved outputs: the one named is the
    # one the rule-base-order walk misses first, not the first of output x
    interleaved = load_controller(
        """
        IF a IS high THEN x IS applicable
        IF b IS high THEN y IS applicable
        IF c IS high THEN x IS applicable
        """,
        inputs=("a", "b", "c"),
    )
    for call in (
        lambda m: interleaved.evaluate(m),
        lambda m: interleaved.evaluate_many([m]),
        lambda m: interleaved.engine.infer_outputs_many(
            interleaved.rule_base, {k: [v] for k, v in m.items()}, 1
        ),
    ):
        with pytest.raises(KeyError, match="no fuzzified value for variable 'b'"):
            call({"a": 0.9})
    # a variable no rule reads may be absent, as in the scalar walk
    only_a = RuleBase("a", list(parse_rules("IF a IS high THEN x IS applicable")))
    assert controller.evaluate_many([{"a": 0.9}], only_a) == [
        controller.evaluate({"a": 0.9}, only_a).outputs
    ]


# -- counters -----------------------------------------------------------------------


def test_generic_terms_are_counted():
    controller = FuzzyController(
        [
            LinguisticVariable(
                "a",
                [
                    LinguisticTerm("ramp", RampUp(0.0, 1.0)),
                    LinguisticTerm("flat", Trapezoid(0.0, 0.0, 1.0, 1.0)),
                ],
                (0.0, 1.0),
            )
        ],
        [LinguisticVariable("x", [LinguisticTerm("applicable", RampUp(0.0, 1.0))],
                            (0.0, 1.0))],
        RuleBase("r", list(parse_rules("IF a IS ramp THEN x IS applicable"))),
    )
    assert controller.evaluate_many([{"a": 0.25}, {"a": 0.5}]) == [
        {"x": 0.25}, {"x": 0.5}
    ]
    assert controller.stats == {
        "programs_compiled": 1,
        "batches": 1,
        "contexts": 2,
        "generic_terms": 1,
    }
