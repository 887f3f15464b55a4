"""Static analysis of fuzzy rule bases.

Checks every built-in rule base (action selection per trigger, server
selection per action) and every per-service override from the landscape
XML:

* **reference checks** (AG101-AG104): every ``variable IS term`` atom and
  every consequent must name declared linguistic variables and terms;
* **duplicate / shadowed rules** (AG105, AG106): identical antecedents
  asserting the same consequent are redundant, and identical antecedents
  asserting the same output with different weights (or different terms)
  shadow each other under max aggregation;
* **contradiction couples** (AG107): the paper's oscillation-prone
  action pairs — start/stop, scale-up/scale-down, scale-in/scale-out —
  must not both be strongly applicable from an overlapping antecedent
  region, or the controller ping-pongs between them;
* **coverage gaps** (AG110): within the trigger's firing region (e.g.
  CPU load above the overload threshold) some rule must clear the
  controller's ``minApplicability``, otherwise a confirmed situation is
  silently ignored;
* **dead rules** (AG111) whose weight can never clear ``minApplicability``;
* **cross checks** against the declarative constraints (AG206): an
  override that asserts an action outside the service's
  ``allowedActions`` can never be executed.

The dynamic checks (AG107, AG110) are sampled heuristics — see
:mod:`repro.analysis.sampling` — deterministic but not exhaustive; they
catch the gross misconfigurations the paper warns about, not arbitrarily
thin slivers of the input space.  They read firing strengths off the
controller's compiled program (:class:`repro.fuzzy.compiled.Program`),
block by block, and take the first sampled point where the extreme
occurs.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.sampling import joint_samples
from repro.config.model import Action, LandscapeSpec, ServiceSpec
from repro.core import variables as core_variables
from repro.core.rulebases import default_action_rulebases, default_server_rulebases
from repro.fuzzy.compiled import FloatArray, Program
from repro.fuzzy.expressions import And, Expression, Is, Not, Or, Somewhat, Very
from repro.fuzzy.inference import InferenceEngine
from repro.fuzzy.parser import ParseError, parse_rules
from repro.fuzzy.rules import Rule, RuleBase
from repro.fuzzy.variables import LinguisticVariable
from repro.monitoring.lms import SituationKind

__all__ = [
    "ACTION_COUPLES",
    "CONTRADICTION_THRESHOLD",
    "RuleBaseLinter",
    "action_universe",
    "server_universe",
    "trigger_region",
    "analyze_rule_bases",
    "lint_override_text",
]

#: The oscillation-prone action couples called out in the paper: firing
#: both sides from the same situation undoes the controller's own work.
ACTION_COUPLES: Tuple[Tuple[Action, Action], ...] = (
    (Action.START, Action.STOP),
    (Action.SCALE_UP, Action.SCALE_DOWN),
    (Action.SCALE_IN, Action.SCALE_OUT),
)

#: Both couple actions reaching this firing strength at one sampled point
#: counts as a contradiction.  0.5 keeps weakly-overlapping built-in rules
#: (which the ranking disambiguates) out while catching rule pairs that
#: genuinely compete for the decision.
CONTRADICTION_THRESHOLD = 0.5


def action_universe() -> Tuple[Dict[str, LinguisticVariable], Dict[str, LinguisticVariable]]:
    """Declared inputs/outputs of the action-selection controller."""
    inputs = {v.name: v for v in core_variables.action_selection_inputs()}
    outputs = {
        action.value: core_variables.applicability_variable(action.value)
        for action in Action
    }
    return inputs, outputs


def server_universe() -> Tuple[Dict[str, LinguisticVariable], Dict[str, LinguisticVariable]]:
    """Declared inputs/outputs of the server-selection controller."""
    inputs = {v.name: v for v in core_variables.server_selection_inputs()}
    outputs = {"suitability": core_variables.applicability_variable("suitability")}
    return inputs, outputs


def _atoms(expression: Expression) -> List[Is]:
    """All ``variable IS term`` atoms of an antecedent, in evaluation order."""
    if isinstance(expression, Is):
        return [expression]
    if isinstance(expression, (And, Or)):
        atoms: List[Is] = []
        for operand in expression.operands:
            atoms.extend(_atoms(operand))
        return atoms
    if isinstance(expression, (Not, Very, Somewhat)):
        return _atoms(expression.operand)
    raise TypeError(f"unknown expression node {type(expression).__name__}")


def trigger_region(
    kind: SituationKind, landscape: LandscapeSpec
) -> Dict[str, Tuple[float, float]]:
    """The crisp input region in which a trigger's rule base runs.

    A ``serviceOverloaded`` base, for example, is only consulted once the
    watch-time mean CPU load exceeds the overload threshold — coverage
    below the threshold is irrelevant.  Idle triggers are confined to
    loads below the (performance-index-scaled) idle threshold of the
    weakest server.
    """
    settings = landscape.controller
    if kind in (SituationKind.SERVICE_OVERLOADED, SituationKind.SERVER_OVERLOADED):
        return {"cpuLoad": (settings.overload_threshold, 1.0)}
    min_index = min(
        (server.performance_index for server in landscape.servers), default=1.0
    )
    idle_hi = min(settings.idle_threshold(min_index), 1.0) if min_index > 0 else 1.0
    if kind is SituationKind.SERVICE_IDLE:
        return {"serviceLoad": (0.0, idle_hi)}
    if kind is SituationKind.SERVER_IDLE:
        return {"cpuLoad": (0.0, idle_hi)}
    return {}


class RuleBaseLinter:
    """Lints one family of rule bases against a declared universe."""

    def __init__(
        self,
        inputs: Mapping[str, LinguisticVariable],
        outputs: Mapping[str, LinguisticVariable],
        min_applicability: float = 0.10,
    ) -> None:
        self.inputs = dict(inputs)
        self.outputs = dict(outputs)
        self.min_applicability = min_applicability
        self._engine = InferenceEngine(self.inputs.values(), self.outputs.values())

    # -- static checks -----------------------------------------------------

    def lint_static(
        self,
        rulebase: RuleBase,
        subject: str,
        service: Optional[str] = None,
        trigger: Optional[str] = None,
    ) -> List[Diagnostic]:
        """Reference, duplicate, shadowing and dead-rule checks."""
        diagnostics: List[Diagnostic] = []

        def emit(code: str, severity: Severity, message: str, rule: Optional[Rule]) -> None:
            diagnostics.append(
                Diagnostic(
                    code=code,
                    severity=severity,
                    message=message,
                    subject=subject,
                    service=service,
                    trigger=trigger,
                    rule_label=rule.label if rule is not None else None,
                )
            )

        for rule in rulebase:
            for atom in _atoms(rule.antecedent):
                variable = self.inputs.get(atom.variable)
                if variable is None:
                    emit(
                        "AG101",
                        Severity.ERROR,
                        f"undeclared input variable {atom.variable!r} "
                        f"(declared: {', '.join(sorted(self.inputs))})",
                        rule,
                    )
                elif atom.term not in variable:
                    emit(
                        "AG102",
                        Severity.ERROR,
                        f"variable {atom.variable!r} has no term {atom.term!r} "
                        f"(declared: {', '.join(variable.term_names)})",
                        rule,
                    )
            output = self.outputs.get(rule.output_variable)
            if output is None:
                emit(
                    "AG103",
                    Severity.ERROR,
                    f"undeclared output variable {rule.output_variable!r} "
                    f"(declared: {', '.join(sorted(self.outputs))})",
                    rule,
                )
            elif rule.output_term not in output:
                emit(
                    "AG104",
                    Severity.ERROR,
                    f"output variable {rule.output_variable!r} has no term "
                    f"{rule.output_term!r} (declared: {', '.join(output.term_names)})",
                    rule,
                )
            if rule.weight < self.min_applicability:
                emit(
                    "AG111",
                    Severity.WARNING,
                    f"weight {rule.weight:g} is below minApplicability "
                    f"{self.min_applicability:g}; the rule can never win a decision",
                    rule,
                )

        seen: Dict[Tuple[Expression, str, str, float], Rule] = {}
        by_antecedent_output: Dict[Tuple[Expression, str], Rule] = {}
        for rule in rulebase:
            exact_key = (rule.antecedent, rule.output_variable, rule.output_term, rule.weight)
            if exact_key in seen:
                emit(
                    "AG105",
                    Severity.WARNING,
                    f"duplicate of rule {seen[exact_key].label or str(seen[exact_key])!r}: "
                    f"identical antecedent and consequent",
                    rule,
                )
                continue
            seen[exact_key] = rule
            shadow_key = (rule.antecedent, rule.output_variable)
            earlier = by_antecedent_output.get(shadow_key)
            if earlier is not None:
                if earlier.output_term != rule.output_term:
                    detail = (
                        f"asserts term {rule.output_term!r} while "
                        f"{earlier.label or str(earlier)!r} asserts {earlier.output_term!r}"
                    )
                else:
                    detail = (
                        f"differs from {earlier.label or str(earlier)!r} only in weight "
                        f"({rule.weight:g} vs {earlier.weight:g}); "
                        f"max aggregation keeps only the stronger one"
                    )
                emit(
                    "AG106",
                    Severity.WARNING,
                    f"shadowed rule: identical antecedent for output "
                    f"{rule.output_variable!r}; {detail}",
                    rule,
                )
            else:
                by_antecedent_output[shadow_key] = rule
        return diagnostics

    # -- dynamic (sampled) checks ------------------------------------------

    def _resolvable(self, rule: Rule) -> bool:
        """Whether every atom of the rule references declared inputs."""
        try:
            atoms = _atoms(rule.antecedent)
        except TypeError:
            return False
        for atom in atoms:
            variable = self.inputs.get(atom.variable)
            if variable is None or atom.term not in variable:
                return False
        return True

    def _referenced(self, rules: Sequence[Rule]) -> List[LinguisticVariable]:
        names = sorted(set().union(*(r.variables() for r in rules)) if rules else set())
        return [self.inputs[name] for name in names]

    def _sampled(
        self,
        rules: Sequence[Rule],
        region: Optional[Mapping[str, Tuple[float, float]]],
    ) -> Iterator[Tuple[Dict[str, FloatArray], FloatArray]]:
        """The points :func:`joint_samples` draws for ``rules``, as
        per-variable columns, with the rules' ``(rules, n)`` firing
        strengths, a block of the compiled program at a time.

        Only the strength stage is compiled: a rule whose consequent does
        not resolve (AG103, AG104) fires all the same."""
        referenced = self._referenced(rules)
        names = [variable.name for variable in referenced]
        points = joint_samples(referenced, region)
        program = Program(self._engine, RuleBase("sampled", list(rules)))
        values = program.inputs(dict(zip(names, points)), points.shape[1])
        for columns, strengths in program.blocks(values):
            yield dict(zip(names, points[:, columns])), strengths

    def find_contradictions(
        self,
        rulebase: RuleBase,
        subject: str,
        region: Optional[Mapping[str, Tuple[float, float]]] = None,
        service: Optional[str] = None,
        trigger: Optional[str] = None,
        threshold: float = CONTRADICTION_THRESHOLD,
    ) -> List[Diagnostic]:
        """AG107: oscillation couples reachable from one antecedent region."""
        diagnostics: List[Diagnostic] = []
        rules = [r for r in rulebase if self._resolvable(r)]
        by_action: Dict[str, List[Rule]] = {}
        for rule in rules:
            by_action.setdefault(rule.output_variable, []).append(rule)
        for first_action, second_action in ACTION_COUPLES:
            for first in by_action.get(first_action.value, ()):
                for second in by_action.get(second_action.value, ()):
                    witness = self._joint_overlap(first, second, region, threshold)
                    if witness is None:
                        continue
                    point, strength = witness
                    diagnostics.append(
                        Diagnostic(
                            code="AG107",
                            severity=Severity.ERROR,
                            message=(
                                f"rules {first.label or str(first)!r} and "
                                f"{second.label or str(second)!r} fire the "
                                f"oscillation couple {first_action.value}/"
                                f"{second_action.value} together with strength "
                                f"{strength:.2f} (threshold {threshold:g})"
                            ),
                            subject=subject,
                            service=service,
                            trigger=trigger,
                            rule_label=first.label,
                            details={
                                "couple": [first_action.value, second_action.value],
                                "strength": round(strength, 4),
                                "witness": {k: round(v, 4) for k, v in point.items()},
                            },
                        )
                    )
        return diagnostics

    def _joint_overlap(
        self,
        first: Rule,
        second: Rule,
        region: Optional[Mapping[str, Tuple[float, float]]],
        threshold: float,
    ) -> Optional[Tuple[Dict[str, float], float]]:
        """First sampled point where both rules fire most, if it clears the bar."""
        best_point: Optional[Dict[str, float]] = None
        best_strength = 0.0
        for points, strengths in self._sampled([first, second], region):
            joint = strengths.min(axis=0)
            column = int(joint.argmax())  # the first maximum
            if joint[column] > best_strength:
                best_strength = float(joint[column])
                best_point = {name: float(xs[column]) for name, xs in points.items()}
        if best_point is not None and best_strength >= threshold:
            return best_point, best_strength
        return None

    def _weakest(
        self,
        rules: Sequence[Rule],
        region: Optional[Mapping[str, Tuple[float, float]]],
    ) -> Optional[Tuple[Dict[str, float], float]]:
        """First sampled point where the strongest rule fires least."""
        worst_point: Optional[Dict[str, float]] = None
        worst_strength = float("inf")
        for points, strengths in self._sampled(rules, region):
            best = strengths.max(axis=0)
            column = int(best.argmin())  # the first minimum
            if best[column] < worst_strength:
                worst_strength = float(best[column])
                worst_point = {name: float(xs[column]) for name, xs in points.items()}
        return None if worst_point is None else (worst_point, worst_strength)

    def find_coverage_gaps(
        self,
        rulebase: RuleBase,
        subject: str,
        region: Optional[Mapping[str, Tuple[float, float]]] = None,
        service: Optional[str] = None,
        trigger: Optional[str] = None,
    ) -> List[Diagnostic]:
        """AG110: sampled points in the trigger region where nothing fires."""
        rules = [r for r in rulebase if self._resolvable(r)]
        if not rules:
            return [
                Diagnostic(
                    code="AG110",
                    severity=Severity.WARNING,
                    message="rule base has no evaluable rules; the trigger is a no-op",
                    subject=subject,
                    service=service,
                    trigger=trigger,
                )
            ]
        weakest = self._weakest(rules, region)
        if weakest is None or weakest[1] >= self.min_applicability:
            return []
        worst_point, worst_strength = weakest
        return [
            Diagnostic(
                code="AG110",
                severity=Severity.WARNING,
                message=(
                    f"no rule reaches minApplicability "
                    f"{self.min_applicability:g} at sampled point "
                    f"{_format_point(worst_point)} (best strength "
                    f"{worst_strength:.3f}); the controller would silently "
                    f"ignore a confirmed situation there"
                ),
                subject=subject,
                service=service,
                trigger=trigger,
                details={
                    "witness": {k: round(v, 4) for k, v in worst_point.items()},
                    "best_strength": round(worst_strength, 4),
                    "min_applicability": self.min_applicability,
                },
            )
        ]


def _format_point(point: Mapping[str, float]) -> str:
    return "{" + ", ".join(f"{k}={v:g}" for k, v in sorted(point.items())) + "}"


def lint_override_text(
    service: ServiceSpec,
    trigger_name: str,
    text: str,
    linter: Optional[RuleBaseLinter] = None,
) -> Tuple[List[Diagnostic], Optional[RuleBase]]:
    """Parse + statically lint one per-service rule override.

    Returns the diagnostics plus the parsed rule base (``None`` when the
    trigger is unknown or the text does not parse).  Shared by the full
    analyzer and :func:`repro.config.validation.validate_landscape`.
    """
    diagnostics: List[Diagnostic] = []
    subject = f"service {service.name!r} rules for trigger {trigger_name!r}"
    try:
        SituationKind(trigger_name)
    except ValueError:
        diagnostics.append(
            Diagnostic(
                code="AG109",
                severity=Severity.ERROR,
                message=(
                    f"unknown trigger {trigger_name!r}; known triggers: "
                    f"{', '.join(k.value for k in SituationKind)}"
                ),
                subject=subject,
                service=service.name,
                trigger=trigger_name,
            )
        )
        return diagnostics, None
    try:
        rules = parse_rules(text, label_prefix=f"{service.name}-{trigger_name}")
    except ParseError as exc:
        diagnostics.append(
            Diagnostic(
                code="AG108",
                severity=Severity.ERROR,
                message=str(exc),
                subject=subject,
                service=service.name,
                trigger=trigger_name,
                line=getattr(exc, "line", None),
            )
        )
        return diagnostics, None
    override = RuleBase(f"{service.name}-{trigger_name}", list(rules))
    if linter is None:
        inputs, outputs = action_universe()
        linter = RuleBaseLinter(inputs, outputs)
    diagnostics.extend(
        linter.lint_static(
            override, subject, service=service.name, trigger=trigger_name
        )
    )
    allowed = service.constraints.allowed_actions
    if allowed:
        allowed_names = {action.value for action in allowed}
        for rule in override:
            if (
                rule.output_variable in {a.value for a in Action}
                and rule.output_variable not in allowed_names
            ):
                diagnostics.append(
                    Diagnostic(
                        code="AG206",
                        severity=Severity.WARNING,
                        message=(
                            f"rule asserts {rule.output_variable!r} but the "
                            f"service only allows "
                            f"{', '.join(sorted(allowed_names))}; the rule can "
                            f"never be executed"
                        ),
                        subject=subject,
                        service=service.name,
                        trigger=trigger_name,
                        rule_label=rule.label,
                    )
                )
    return diagnostics, override


def analyze_rule_bases(landscape: LandscapeSpec) -> List[Diagnostic]:
    """Lint every rule base relevant to a landscape.

    Covers the built-in action-selection bases (per trigger), the
    built-in server-selection bases (per action), and each service's
    overrides — the latter both standalone (reference checks) and merged
    with the defaults (contradictions, coverage), because that merged
    base is what the controller actually evaluates.
    """
    diagnostics: List[Diagnostic] = []
    inputs, outputs = action_universe()
    linter = RuleBaseLinter(
        inputs, outputs, min_applicability=landscape.controller.min_applicability
    )

    action_bases = default_action_rulebases()
    for kind, base in action_bases.items():
        subject = f"rulebase {kind.value} (defaults)"
        region = trigger_region(kind, landscape)
        diagnostics.extend(linter.lint_static(base, subject, trigger=kind.value))
        diagnostics.extend(
            linter.find_contradictions(base, subject, region, trigger=kind.value)
        )
        diagnostics.extend(
            linter.find_coverage_gaps(base, subject, region, trigger=kind.value)
        )

    server_inputs, server_outputs = server_universe()
    server_linter = RuleBaseLinter(
        server_inputs,
        server_outputs,
        min_applicability=landscape.controller.min_applicability,
    )
    for action, base in default_server_rulebases().items():
        subject = f"rulebase select-host-{action.value} (defaults)"
        diagnostics.extend(server_linter.lint_static(base, subject))

    for service in landscape.services:
        for trigger_name, text in sorted(service.rule_overrides.items()):
            override_diagnostics, override = lint_override_text(
                service, trigger_name, text, linter
            )
            diagnostics.extend(override_diagnostics)
            if override is None:
                continue
            kind = SituationKind(trigger_name)
            default = action_bases.get(kind)
            merged = (
                default.merged_with(override) if default is not None else override
            )
            subject = f"service {service.name!r} effective rulebase {trigger_name}"
            region = trigger_region(kind, landscape)
            diagnostics.extend(
                linter.find_contradictions(
                    merged, subject, region, service=service.name, trigger=trigger_name
                )
            )
            diagnostics.extend(
                linter.find_coverage_gaps(
                    merged, subject, region, service=service.name, trigger=trigger_name
                )
            )
    return diagnostics
