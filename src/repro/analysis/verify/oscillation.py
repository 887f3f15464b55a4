"""AG306/AG307: static controller-oscillation analysis.

An abstract-interpretation pass over the action-selection rule bases on
the discretized load space, run before any simulation.  The abstract
state is ``(L, n)`` — a service's load level and instance count.  The
controller's own scale-out transform conserves work: after adding an
instance the per-capacity load becomes ``L' = L * n / (n + 1)``.

* **AG306 (error)** — a *closed thrash cycle*: at some overload state
  ``(L, n)`` the ``serviceOverloaded`` base's winning action is
  ``scaleOut``, the transformed load ``L'`` lands strictly inside the
  idle trigger region, and at ``(L', n + 1)`` the ``serviceIdle`` base's
  winning action is ``scaleIn`` — which restores ``(L, n)`` exactly.
  The controller would oscillate forever on a constant workload.
* **AG307 (warning)** — a *limit-cycle-prone rule pair*: one rule of an
  oscillation couple (start/stop, scaleUp/scaleDown, scaleIn/scaleOut)
  fires strongly (>= the linter's contradiction threshold) at an
  overload state while its counterpart fires strongly at the transformed
  idle state.  Weaker than AG306 — the pair need not win the
  defuzzification — but it is the structural precondition for a limit
  cycle under drifting load.

The watch times and protection time damp real oscillation in *time*;
this pass flags rule bases for which damping is the only thing standing
between the controller and a thrash loop.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np
import numpy.typing as npt

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.rulebase import ACTION_COUPLES, CONTRADICTION_THRESHOLD
from repro.config.model import Action, ControllerSettings, LandscapeSpec
from repro.core import variables
from repro.core.rulebases import default_action_rulebases
from repro.fuzzy.compiled import FloatArray, Program
from repro.fuzzy.controller import FuzzyController
from repro.fuzzy.inference import InferenceEngine
from repro.fuzzy.parser import parse_rules
from repro.fuzzy.rules import Rule, RuleBase
from repro.monitoring.lms import SituationKind

__all__ = ["analyze_oscillation"]

#: Instance counts the abstract state space covers (the paper's
#: landscape never exceeds a handful of instances per service).
_INSTANCE_COUNTS: Tuple[int, ...] = (1, 2, 3, 4, 5, 6)

#: Load samples across the overload trigger region.
_LOAD_SAMPLES = 16

#: Memory-load levels sampled alongside (kept off the extremes so the
#: memory terms neither dominate nor vanish).
_MEM_SAMPLES: Tuple[float, ...] = (0.2, 0.5, 0.8)

#: instancesOnServer levels sampled alongside.
_SERVER_COUNTS: Tuple[float, ...] = (1.0, 3.0)


#: ``(n, L, L', mem, on_server)``: instances, load, load after one
#: scale-out, memory load and instances on the server
_State = Tuple[int, float, float, float, float]


def _controller() -> FuzzyController:
    output_names = [action.value for action in Action]
    return FuzzyController(
        variables.action_selection_inputs(),
        [variables.applicability_variable(name) for name in output_names],
        RuleBase("empty"),
    )


def _measurements(
    load: float, mem: float, index: float, instances: int, on_server: float
) -> Dict[str, float]:
    return {
        "cpuLoad": load,
        "memLoad": mem,
        "performanceIndex": index,
        "instanceLoad": load,
        "serviceLoad": load,
        "instancesOnServer": on_server,
        "instancesOfService": float(instances),
    }


def _winner(outputs: Mapping[str, float], min_applicability: float) -> Optional[str]:
    """The defuzzified winning action, or None below the applicability bar.

    Ties break toward the lexicographically smallest action name, the
    same order :class:`~repro.core.action_selection.ActionSelector` uses.
    """
    best_name: Optional[str] = None
    best_value = 0.0
    for name in sorted(outputs):
        value = outputs[name]
        if value > best_value:
            best_name, best_value = name, value
    if best_name is None or best_value < min_applicability:
        return None
    return best_name


def _abstract_states(
    settings: ControllerSettings, idle_hi: float
) -> Iterator[_State]:
    """(n, L, L', mem, on_server) states whose scale-out lands idle.

    Only states where the transformed load falls strictly inside the
    idle trigger region are yielded — elsewhere scale-out cannot close a
    cycle, whatever the rules say.
    """
    lo = settings.overload_threshold
    for instances in _INSTANCE_COUNTS:
        for step in range(_LOAD_SAMPLES):
            load = lo + (1.0 - lo) * (step + 0.5) / _LOAD_SAMPLES
            transformed = load * instances / (instances + 1)
            if transformed >= idle_hi:
                continue
            for mem in _MEM_SAMPLES:
                for on_server in _SERVER_COUNTS:
                    yield instances, load, transformed, mem, on_server


def _contexts(
    settings: ControllerSettings, min_index: float, idle_hi: float
) -> Tuple[List[_State], List[Dict[str, float]], List[Dict[str, float]]]:
    """The abstract states, and per state the measurements before and
    after its scale-out."""
    states = list(_abstract_states(settings, idle_hi))
    before = [
        _measurements(load, mem, min_index, instances, on_server)
        for instances, load, __, mem, on_server in states
    ]
    after = [
        _measurements(transformed, mem, min_index, instances + 1, on_server)
        for instances, __, transformed, mem, on_server in states
    ]
    return states, before, after


def _find_thrash_witnesses(
    controller: FuzzyController,
    overload_base: RuleBase,
    idle_base: RuleBase,
    settings: ControllerSettings,
    min_index: float,
    idle_hi: float,
) -> List[_State]:
    """States whose overload winner is scale-out and whose scaled-out
    successor's idle winner is scale-in; the idle base is evaluated only
    where scale-out wins."""
    states, before, after = _contexts(settings, min_index, idle_hi)
    if not states:
        return []
    scale_outs = [
        position
        for position, outputs in enumerate(controller.evaluate_many(before, overload_base))
        if _winner(outputs, settings.min_applicability) == Action.SCALE_OUT.value
    ]
    if not scale_outs:
        return []
    idle = controller.evaluate_many([after[position] for position in scale_outs], idle_base)
    return [
        states[position]
        for position, outputs in zip(scale_outs, idle)
        if _winner(outputs, settings.min_applicability) == Action.SCALE_IN.value
    ]


def _couple_partners() -> Dict[str, Set[str]]:
    partners: Dict[str, Set[str]] = {}
    for first, second in ACTION_COUPLES:
        partners.setdefault(first.value, set()).add(second.value)
        partners.setdefault(second.value, set()).add(first.value)
    return partners


def _strengths(
    engine: InferenceEngine,
    rules: Sequence[Rule],
    contexts: Sequence[Mapping[str, float]],
) -> FloatArray:
    """``(rules, contexts)`` firing strengths, rules in the given order,
    read off the compiled program's strength stage."""
    program = Program(engine, RuleBase("oscillation", list(rules)))
    columns = {name: [context[name] for context in contexts] for name in contexts[0]}
    values = program.inputs(columns, len(contexts))
    strengths = np.empty((len(rules), len(contexts)))
    for block, rows in program.blocks(values):
        strengths[:, block] = rows[program.order]
    return strengths


def _find_limit_cycle_pairs(
    engine: InferenceEngine,
    overload_base: RuleBase,
    idle_base: RuleBase,
    settings: ControllerSettings,
    min_index: float,
    idle_hi: float,
) -> List[Tuple[Rule, Rule, _State]]:
    """Per coupled (overload rule, idle rule) pair, the first state where
    both fire at the threshold.  An idle rule is compiled only once some
    state needs its strength, so a rule that does not compile raises
    exactly where reading its strength state by state would."""
    states, before, after = _contexts(settings, min_index, idle_hi)
    if not states:
        return []
    partners = _couple_partners()
    hot = _strengths(engine, overload_base.rules, before) >= CONTRADICTION_THRESHOLD
    idle_hot: Dict[int, npt.NDArray[np.bool_]] = {}
    pairs: List[Tuple[Rule, Rule, _State]] = []
    for overload_rule, overload_hot in zip(overload_base, hot):
        coupled = partners.get(overload_rule.output_variable)
        if not coupled or not overload_hot.any():
            continue
        for position, idle_rule in enumerate(idle_base):
            if idle_rule.output_variable not in coupled:
                continue
            if position not in idle_hot:
                idle_hot[position] = (
                    _strengths(engine, [idle_rule], after)[0] >= CONTRADICTION_THRESHOLD
                )
            both = overload_hot & idle_hot[position]
            if both.any():
                pairs.append((overload_rule, idle_rule, states[int(both.argmax())]))
    return pairs


def _analyze_pair(
    controller: FuzzyController,
    overload_base: RuleBase,
    idle_base: RuleBase,
    settings: ControllerSettings,
    min_index: float,
    idle_hi: float,
    subject: str,
    service: Optional[str],
) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    witnesses = _find_thrash_witnesses(
        controller, overload_base, idle_base, settings, min_index, idle_hi
    )
    if witnesses:
        instances, load, transformed, mem, on_server = witnesses[0]
        diagnostics.append(
            Diagnostic(
                code="AG306",
                severity=Severity.ERROR,
                message=(
                    f"scale-out at load {load:.3f} with {instances} instance(s) "
                    f"drops the load to {transformed:.3f} — inside the idle "
                    f"region (< {idle_hi:.3f}) where scale-in wins: the "
                    f"controller thrashes on a constant workload "
                    f"({len(witnesses)} witness state(s))"
                ),
                subject=subject,
                service=service,
                trigger=SituationKind.SERVICE_OVERLOADED.value,
                details={
                    "witness": {
                        "load": round(load, 4),
                        "instances": instances,
                        "transformed_load": round(transformed, 4),
                        "memLoad": mem,
                        "instancesOnServer": on_server,
                    },
                    "idle_threshold": round(idle_hi, 4),
                    "overload_threshold": settings.overload_threshold,
                    "witness_count": len(witnesses),
                },
            )
        )
    for overload_rule, idle_rule, state in _find_limit_cycle_pairs(
        controller.engine, overload_base, idle_base, settings, min_index, idle_hi
    ):
        instances, load, transformed, mem, on_server = state
        diagnostics.append(
            Diagnostic(
                code="AG307",
                severity=Severity.WARNING,
                message=(
                    f"rules {overload_rule.label or str(overload_rule)!r} "
                    f"({overload_rule.output_variable}) and "
                    f"{idle_rule.label or str(idle_rule)!r} "
                    f"({idle_rule.output_variable}) both fire >= "
                    f"{CONTRADICTION_THRESHOLD} across one scale-out step "
                    f"(load {load:.3f} -> {transformed:.3f}): "
                    f"limit-cycle-prone couple"
                ),
                subject=subject,
                service=service,
                trigger=SituationKind.SERVICE_OVERLOADED.value,
                rule_label=overload_rule.label,
                details={
                    "overload_rule": overload_rule.label,
                    "idle_rule": idle_rule.label,
                    "witness": {
                        "load": round(load, 4),
                        "instances": instances,
                        "transformed_load": round(transformed, 4),
                    },
                    "threshold": CONTRADICTION_THRESHOLD,
                },
            )
        )
    return diagnostics


def analyze_oscillation(landscape: LandscapeSpec) -> List[Diagnostic]:
    """Run the AG306/AG307 pass over a landscape's effective rule bases.

    Analyzes the built-in ``serviceOverloaded``/``serviceIdle`` pair
    once, then each service whose overrides touch either trigger (using
    the merged base the controller would actually evaluate).  Override
    texts that do not parse are skipped here — the rule-base linter
    already reports them as AG108.
    """
    settings = landscape.controller
    min_index = min(
        (server.performance_index for server in landscape.servers), default=1.0
    )
    idle_hi = (
        min(settings.idle_threshold(min_index), 1.0) if min_index > 0 else 1.0
    )
    controller = _controller()
    defaults = default_action_rulebases()
    overload_default = defaults[SituationKind.SERVICE_OVERLOADED]
    idle_default = defaults[SituationKind.SERVICE_IDLE]
    diagnostics = _analyze_pair(
        controller,
        overload_default,
        idle_default,
        settings,
        min_index,
        idle_hi,
        subject="rulebases serviceOverloaded/serviceIdle (defaults)",
        service=None,
    )
    relevant = (
        SituationKind.SERVICE_OVERLOADED.value,
        SituationKind.SERVICE_IDLE.value,
    )
    for service in landscape.services:
        merged: Dict[str, RuleBase] = {}
        for trigger_name, text in sorted(service.rule_overrides.items()):
            if trigger_name not in relevant:
                continue
            try:
                rules = list(
                    parse_rules(
                        text, label_prefix=f"{service.name}-{trigger_name}"
                    )
                )
            except Exception:
                continue  # the linter reports the parse failure (AG108)
            override = RuleBase(f"{service.name}-{trigger_name}", rules)
            default = defaults[SituationKind(trigger_name)]
            merged[trigger_name] = default.merged_with(override)
        if not merged:
            continue
        try:
            found = _analyze_pair(
                controller,
                merged.get(relevant[0], overload_default),
                merged.get(relevant[1], idle_default),
                settings,
                min_index,
                idle_hi,
                subject=(
                    f"service {service.name!r} effective rulebases "
                    "serviceOverloaded/serviceIdle"
                ),
                service=service.name,
            )
        except (KeyError, ValueError):
            # the override parses but is not evaluable (unknown input
            # variable or term) — the linter reports that (AG101-AG104)
            continue
        diagnostics.extend(found)
    return diagnostics
