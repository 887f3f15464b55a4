"""Ablation: leftmost-maximum vs. centroid defuzzification.

The paper uses a maximum method ("the leftmost of all values at which
the maximum truth value occurs").  This ablation evaluates the
action-selection controller over a grid of load situations under both
defuzzifiers and reports how the crisp applicabilities differ.  The
controller only defuzzifies by the leftmost maximum; the centroid below
is computed from its compiled program's firing strengths.

With the unit-ramp ``applicable`` output sets, leftmost-max returns the
strongest firing strength exactly, giving sharp 0-applicability for
non-firing actions; the centroid blends in the set's shape, floors every
value and compresses the ranking range — which is why the paper's
maximum method suits an action *ranking* better.
"""

import numpy as np
import pytest

from repro.core.action_selection import ActionContext, ActionSelector
from repro.core.rulebases import default_action_rulebases
from repro.core.variables import action_selection_inputs, applicability_variable
from repro.config.model import Action
from repro.fuzzy.controller import FuzzyController
from repro.fuzzy.rules import RuleBase
from repro.monitoring.lms import SituationKind


def build():
    return FuzzyController(
        action_selection_inputs(),
        [applicability_variable(a.value) for a in Action],
        RuleBase("empty"),
    )


def centroid(controller, rulebase, measurements):
    """Centroid defuzzification: per output, its consequent clipped at its
    rules' firing strengths and united (clipped at the largest), then its
    centre of gravity; the domain's midpoint when the set is empty."""
    program = controller.engine.program(rulebase)
    values = program.inputs({name: [v] for name, v in measurements.items()}, 1)
    strengths = program.strengths(values)[:, 0]
    outputs = {}
    for output in program.outputs:
        xs = output.xs
        grades = np.minimum(output.grid, strengths[output.start:output.stop].max())
        area = float(np.trapezoid(grades, xs))
        outputs[output.name] = (
            float(np.trapezoid(grades * xs, xs) / area) if area > 0.0
            else float((xs[0] + xs[-1]) / 2.0)
        )
    return outputs


def measurement_grid():
    contexts = []
    for cpu in (0.2, 0.5, 0.75, 0.95):
        for pi in (1.0, 2.0, 9.0):
            for instances in (1.0, 3.0, 6.0):
                contexts.append(
                    {
                        "cpuLoad": cpu,
                        "memLoad": 0.3,
                        "performanceIndex": pi,
                        "instanceLoad": cpu * 0.9,
                        "serviceLoad": cpu * 0.8,
                        "instancesOnServer": 1.0,
                        "instancesOfService": instances,
                    }
                )
    return contexts


@pytest.mark.benchmark(group="ablation")
def test_ablation_defuzzification(benchmark):
    rulebase = default_action_rulebases()[SituationKind.SERVICE_OVERLOADED]
    controller = build()
    grid = measurement_grid()

    def experiment():
        rows = []
        for measurements in grid:
            left = controller.evaluate(measurements, rulebase).outputs
            center = centroid(controller, rulebase, measurements)
            rows.append((measurements, left, center))
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)

    zero_floor_left = []
    zero_floor_center = []
    spreads_left, spreads_center = [], []
    flips = 0
    for measurements, left, center in rows:
        zero_floor_left.extend(v for v in left.values() if v < 1e-3)
        zero_floor_center.extend(v for v in center.values() if v < 1e-3)
        spreads_left.append(max(left.values()) - min(left.values()))
        spreads_center.append(max(center.values()) - min(center.values()))
        best_left = max(left, key=left.get)
        best_center = max(center, key=center.get)
        if best_left != best_center:
            flips += 1

    print("\nAblation — defuzzification method (serviceOverloaded rule base)")
    print(f"  grid situations: {len(rows)}")
    print(f"  leftmost-max: mean ranking spread "
          f"{np.mean(spreads_left):.2f}, exact zeros for non-firing actions: "
          f"{len(zero_floor_left)}")
    print(f"  centroid:     mean ranking spread "
          f"{np.mean(spreads_center):.2f}, exact zeros: {len(zero_floor_center)}")
    print(f"  situations where the two methods favor different actions: {flips}")

    # leftmost-max separates actions more sharply than the centroid
    assert np.mean(spreads_left) > np.mean(spreads_center)
    # the centroid never returns a crisp zero (the ramp's shape bleeds in)
    assert len(zero_floor_center) == 0
    assert len(zero_floor_left) > 0
