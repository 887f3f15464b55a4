"""The scalar rule-base searches, kept as the oracle of the analyzers.

:mod:`repro.analysis.rulebase` (AG107, AG110) and
:mod:`repro.analysis.verify.oscillation` (AG306, AG307) read firing
strengths off the compiled program a block at a time and take the first
extreme with an ``argmax``/``argmin``.  This module is the code they
replaced: fuzzify each sampled point, walk each rule's antecedent with
the scalar walk of ``tests/fuzzy/oracle.py``, and keep the point a
strict ``>``/``<`` prefers, state by state.  It shares with the analyzers
the critical points, the rule filter and the diagnostic text, so a block
boundary, a tie-break or a rule left out of the strength stage shows as
a different diagnostic.  :func:`joint_sample_dicts` is the point-by-point
sampler :func:`repro.analysis.sampling.joint_samples` replaced with one
``(variables, n)`` array; the scalar searches walk its points.

:func:`scalar_searches` swaps these searches in for the analyzers' own.
"""

import itertools
import random
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

from repro.analysis import rulebase
from repro.analysis.rulebase import CONTRADICTION_THRESHOLD, RuleBaseLinter
from repro.analysis import sampling
from repro.analysis.sampling import critical_points
from repro.analysis.verify import oscillation
from repro.config.model import Action
from repro.core import variables
from tests.fuzzy import oracle


def joint_sample_dicts(variables, restrictions=None) -> Iterator[Dict[str, float]]:
    """Yield joint assignments (variable name -> crisp value), one dict
    per point, in the order the columns of ``joint_samples`` hold them."""
    restrictions = restrictions or {}
    per_variable: List[Tuple[str, List[float], Tuple[float, float]]] = []
    for variable in variables:
        restriction = restrictions.get(variable.name)
        points = critical_points(variable, restriction)
        if not points:
            return  # empty restricted region: nothing to sample
        lo, hi = variable.domain
        if restriction is not None:
            lo, hi = max(lo, restriction[0]), min(hi, restriction[1])
        per_variable.append((variable.name, points, (lo, hi)))

    grid_size = 1
    for _, points, _ in per_variable:
        grid_size *= len(points)
        if grid_size > sampling._MAX_GRID:
            break
    if grid_size <= sampling._MAX_GRID:
        names = [name for name, _, _ in per_variable]
        for combo in itertools.product(*(points for _, points, _ in per_variable)):
            yield dict(zip(names, combo))
        return

    rng = random.Random(sampling._SEED)
    for _ in range(sampling._RANDOM_SAMPLES):
        sample: Dict[str, float] = {}
        for name, points, (lo, hi) in per_variable:
            if rng.random() < 0.5:
                sample[name] = rng.choice(points)
            else:
                sample[name] = rng.uniform(lo, hi)
        yield sample


class GradeCache:
    """Memoized fuzzification of sampled points."""

    def __init__(self, linguistic_variables: Iterable) -> None:
        self._variables = {v.name: v for v in linguistic_variables}
        self._cache: Dict[Tuple[str, float], Mapping[str, float]] = {}

    def grades(self, sample: Mapping[str, float]) -> Dict[str, Mapping[str, float]]:
        result = {}
        for name, value in sample.items():
            key = (name, value)
            grades = self._cache.get(key)
            if grades is None:
                grades = self._cache[key] = self._variables[name].fuzzify(value)
            result[name] = grades
        return result


class ScalarLinter(RuleBaseLinter):
    """The linter with its AG107/AG110 searches walked point by point."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._grades = GradeCache(self.inputs.values())

    def _joint_overlap(self, first, second, region, threshold):
        referenced = self._referenced([first, second])
        best_point = None
        best_strength = 0.0
        for sample in joint_sample_dicts(referenced, region):
            grades = self._grades.grades(sample)
            strength = min(
                oracle.firing_strength(first, grades),
                oracle.firing_strength(second, grades),
            )
            if strength > best_strength:
                best_strength, best_point = strength, sample
        if best_point is not None and best_strength >= threshold:
            return best_point, best_strength
        return None

    def _weakest(self, rules, region):
        worst_point = None
        worst_strength = float("inf")
        for sample in joint_sample_dicts(self._referenced(rules), region):
            grades = self._grades.grades(sample)
            strength = max(oracle.firing_strength(rule, grades) for rule in rules)
            if strength < worst_strength:
                worst_strength, worst_point = strength, sample
        return None if worst_point is None else (worst_point, worst_strength)


def thrash_witnesses(controller, overload_base, idle_base, settings, min_index, idle_hi):
    """AG306: the scalar controller's winners, one state at a time."""
    engine = controller.engine
    witnesses = []
    for instances, load, transformed, mem, on_server in oscillation._abstract_states(
        settings, idle_hi
    ):
        overload = oracle.infer(
            engine,
            overload_base,
            oscillation._measurements(load, mem, min_index, instances, on_server),
        )[0]
        if oscillation._winner(overload, settings.min_applicability) != (
            Action.SCALE_OUT.value
        ):
            continue
        idle = oracle.infer(
            engine,
            idle_base,
            oscillation._measurements(transformed, mem, min_index, instances + 1, on_server),
        )[0]
        if oscillation._winner(idle, settings.min_applicability) == Action.SCALE_IN.value:
            witnesses.append((instances, load, transformed, mem, on_server))
    return witnesses


def limit_cycle_pairs(engine, overload_base, idle_base, settings, min_index, idle_hi):
    """AG307: per coupled rule pair, the first state where both fire."""
    grades = GradeCache(variables.action_selection_inputs())
    partners = oscillation._couple_partners()
    pairs = []
    for overload_rule in overload_base:
        coupled = partners.get(overload_rule.output_variable)
        if not coupled:
            continue
        for idle_rule in idle_base:
            if idle_rule.output_variable not in coupled:
                continue
            for state in oscillation._abstract_states(settings, idle_hi):
                instances, load, transformed, mem, on_server = state
                strength_out = oracle.firing_strength(
                    overload_rule,
                    grades.grades(
                        oscillation._measurements(load, mem, min_index, instances, on_server)
                    ),
                )
                if strength_out < CONTRADICTION_THRESHOLD:
                    continue
                strength_in = oracle.firing_strength(
                    idle_rule,
                    grades.grades(
                        oscillation._measurements(
                            transformed, mem, min_index, instances + 1, on_server
                        )
                    ),
                )
                if strength_in >= CONTRADICTION_THRESHOLD:
                    pairs.append((overload_rule, idle_rule, state))
                    break
    return pairs


@contextmanager
def scalar_searches(monkeypatch):
    """Within the block, the analyzers run this module's searches."""
    with monkeypatch.context() as patch:
        patch.setattr(rulebase, "RuleBaseLinter", ScalarLinter)
        patch.setattr(oscillation, "_find_thrash_witnesses", thrash_witnesses)
        patch.setattr(oscillation, "_find_limit_cycle_pairs", limit_cycle_pairs)
        yield
