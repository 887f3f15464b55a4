"""The action-selection fuzzy controller (Section 4.1, Figure 7).

Given a confirmed exceptional situation, the controller fuzzifies the
Table 1 measurements, evaluates the trigger's rule base and defuzzifies
one applicability value per action.  For server-triggered situations the
controller runs once per service on the affected host and the resulting
actions are collected, verified against the constraints and sorted by
applicability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config.model import Action
from repro.core import variables
from repro.core.rulebases import default_action_rulebases
from repro.fuzzy.controller import FuzzyController
from repro.fuzzy.parser import parse_rules
from repro.fuzzy.rules import RuleBase
from repro.monitoring.lms import SituationKind

__all__ = ["ActionContext", "RankedAction", "ActionSelector"]


@dataclass(frozen=True)
class ActionContext:
    """Crisp inputs for one action-selection run.

    CPU and memory loads are watch-time means (initialized from the load
    archive); the remaining variables are current measurements or static
    metadata (Section 4.1).
    """

    service_name: str
    instance_id: Optional[str]
    measurements: Mapping[str, float]

    def measurement(self, name: str) -> float:
        return self.measurements[name]


@dataclass(frozen=True)
class RankedAction:
    """One action with its defuzzified applicability (0..1)."""

    action: Action
    applicability: float
    service_name: str
    instance_id: Optional[str] = None

    def __str__(self) -> str:
        subject = self.instance_id or self.service_name
        return f"{self.action.value}({subject})={self.applicability:.0%}"


class ActionSelector:
    """Ranks the Table 2 actions for a confirmed situation."""

    def __init__(
        self,
        rulebases: Optional[Dict[SituationKind, RuleBase]] = None,
    ) -> None:
        self._rulebases = rulebases if rulebases is not None else default_action_rulebases()
        output_names = [action.value for action in Action]
        self._controller = FuzzyController(
            variables.action_selection_inputs(),
            [variables.applicability_variable(name) for name in output_names],
            RuleBase("empty"),
        )
        for rulebase in self._rulebases.values():
            self._controller.engine.validate(rulebase)
        #: the fuzzy controller's batched-path counters (ops ``/stats``)
        self.fuzzy_stats = self._controller.stats
        #: service name -> trigger -> override rule base
        self._service_rulebases: Dict[str, Dict[SituationKind, RuleBase]] = {}
        #: memoized merged rule bases: (kind, service) -> merged base, so
        #: the hot path reuses one object per combination (also the key
        #: the batched evaluation groups contexts by)
        self._merged_rulebases: Dict[Tuple[SituationKind, str], RuleBase] = {}

    # -- service-specific rule bases ------------------------------------------------

    def register_service_rules(
        self, service_name: str, kind: SituationKind, rules_text: str
    ) -> None:
        """Layer administrator-provided rules over the defaults.

        "An administrator can add service-specific rule bases for mission
        critical services, e.g., to favor powerful servers for these
        services."  (Section 4.1)
        """
        override = RuleBase(
            f"{service_name}-{kind.value}",
            list(parse_rules(rules_text, label_prefix=f"{service_name}-{kind.value}")),
        )
        self._controller.engine.validate(override)
        self._service_rulebases.setdefault(service_name, {})[kind] = override
        self._merged_rulebases.pop((kind, service_name), None)

    def rulebase_for(self, kind: SituationKind, service_name: str) -> RuleBase:
        key = (kind, service_name)
        merged = self._merged_rulebases.get(key)
        if merged is None:
            base = self._rulebases[kind]
            override = self._service_rulebases.get(service_name, {}).get(kind)
            merged = base if override is None else base.merged_with(override)
            self._merged_rulebases[key] = merged
        return merged

    # -- evaluation --------------------------------------------------------------------

    def _ranked_from_outputs(
        self, context: ActionContext, outputs: Mapping[str, float]
    ) -> List[RankedAction]:
        ranked = [
            RankedAction(
                action=Action.from_name(name),
                applicability=value,
                service_name=context.service_name,
                instance_id=context.instance_id,
            )
            for name, value in outputs.items()
        ]
        ranked.sort(key=lambda r: (-r.applicability, r.action.value))
        return ranked

    def rank(
        self, kind: SituationKind, context: ActionContext
    ) -> List[RankedAction]:
        """Applicability of every action for one service context, sorted
        descending (ties broken by action name for determinism)."""
        return self._ranked_from_outputs(
            context, self._outputs_for([(kind, context)])[0]
        )

    def _outputs_for(
        self, pairs: Sequence[Tuple[SituationKind, ActionContext]]
    ) -> List[Dict[str, float]]:
        """Crisp outputs aligned with ``pairs``, whatever their number.

        Contexts are grouped by their (memoized) merged rule base and each
        group is one batch of the controller's compiled program; results
        come back in the original order.
        """
        groups: Dict[int, Tuple[RuleBase, List[int]]] = {}
        for idx, (kind, context) in enumerate(pairs):
            rulebase = self.rulebase_for(kind, context.service_name)
            groups.setdefault(id(rulebase), (rulebase, []))[1].append(idx)
        outputs_list: List[Dict[str, float]] = [{} for _ in pairs]
        for rulebase, indices in groups.values():
            batch = [pairs[i][1].measurements for i in indices]
            for i, outputs in zip(
                indices, self._controller.evaluate_many(batch, rulebase)
            ):
                outputs_list[i] = outputs
        return outputs_list

    def _collected(
        self, contexts: Sequence[ActionContext], outputs: Sequence[Dict[str, float]]
    ) -> List[RankedAction]:
        """One merged ranking across a host's service contexts (Figure 7)."""
        collected: List[RankedAction] = []
        for context, context_outputs in zip(contexts, outputs):
            collected.extend(self._ranked_from_outputs(context, context_outputs))
        collected.sort(
            key=lambda r: (-r.applicability, r.action.value, r.service_name)
        )
        return collected

    def rank_many(
        self, kind: SituationKind, contexts: List[ActionContext]
    ) -> List[RankedAction]:
        """Server-triggered evaluation: run the controller for each service
        on the host and collect all actions into one ranking (Figure 7)."""
        return self._collected(
            contexts, self._outputs_for([(kind, context) for context in contexts])
        )

    def rank_situations(
        self,
        entries: Sequence[Tuple[SituationKind, Sequence[ActionContext], bool]],
    ) -> List[List[RankedAction]]:
        """Rank many situations' contexts in one batched evaluation.

        Each entry is ``(kind, contexts, server_style)``; ``server_style``
        selects :meth:`rank_many` assembly (one merged ranking across the
        entry's contexts) versus :meth:`rank` assembly (single context).
        Contexts from *all* entries are pooled and grouped by merged rule
        base, so one tick's open situations cost one program batch per
        distinct rule base.  Entry ``i`` of the result is bit-identical to
        calling ``rank_many(kind, contexts)`` / ``rank(kind, contexts[0])``.
        """
        outputs = self._outputs_for(
            [(kind, context) for kind, contexts, __ in entries for context in contexts]
        )
        results: List[List[RankedAction]] = []
        start = 0
        for __, contexts, server_style in entries:
            mine = outputs[start:start + len(contexts)]
            start += len(contexts)
            if server_style:
                results.append(self._collected(contexts, mine))
            elif contexts:
                results.append(self._ranked_from_outputs(contexts[0], mine[0]))
            else:
                results.append([])
        return results
