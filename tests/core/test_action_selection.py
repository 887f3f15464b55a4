"""Tests for the action-selection fuzzy controller."""

import pytest

from repro.config.model import Action
from repro.core.action_selection import ActionContext, ActionSelector
from repro.monitoring.lms import SituationKind


def context(service="APP", instance="APP#1", **measurements):
    defaults = {
        "cpuLoad": 0.5,
        "memLoad": 0.3,
        "performanceIndex": 1.0,
        "instanceLoad": 0.5,
        "serviceLoad": 0.5,
        "instancesOnServer": 1.0,
        "instancesOfService": 2.0,
    }
    defaults.update(measurements)
    return ActionContext(service, instance, defaults)


@pytest.fixture(scope="module")
def selector():
    return ActionSelector()


class TestServiceOverloaded:
    def test_weak_overloaded_host_prefers_scale_up(self, selector):
        """The paper's first sample rule: high load on a weak host."""
        ranked = selector.rank(
            SituationKind.SERVICE_OVERLOADED,
            context(cpuLoad=0.95, performanceIndex=1.0, serviceLoad=0.4,
                    instanceLoad=0.9),
        )
        best = ranked[0]
        assert best.action is Action.SCALE_UP
        assert best.applicability > 0.8

    def test_strong_overloaded_host_prefers_scale_out(self, selector):
        """The paper's second sample rule: high load despite a powerful host."""
        ranked = selector.rank(
            SituationKind.SERVICE_OVERLOADED,
            context(cpuLoad=0.95, performanceIndex=9.0, serviceLoad=0.9,
                    instanceLoad=0.9, instancesOfService=2.0),
        )
        assert ranked[0].action is Action.SCALE_OUT

    def test_no_overload_no_applicable_action(self, selector):
        ranked = selector.rank(
            SituationKind.SERVICE_OVERLOADED, context(cpuLoad=0.1)
        )
        assert all(r.applicability < 0.05 for r in ranked)

    def test_ranking_is_sorted_descending(self, selector):
        ranked = selector.rank(
            SituationKind.SERVICE_OVERLOADED, context(cpuLoad=0.9)
        )
        values = [r.applicability for r in ranked]
        assert values == sorted(values, reverse=True)

    def test_ranking_covers_the_triggers_actions(self, selector):
        """Overload triggers rank exactly the relief actions their rule
        base can assert; consolidation actions never appear."""
        ranked = selector.rank(
            SituationKind.SERVICE_OVERLOADED, context(cpuLoad=0.9)
        )
        actions = {r.action for r in ranked}
        assert {Action.SCALE_UP, Action.SCALE_OUT, Action.MOVE} <= actions
        assert Action.SCALE_IN not in actions
        assert Action.STOP not in actions

    def test_context_carried_through(self, selector):
        ranked = selector.rank(
            SituationKind.SERVICE_OVERLOADED, context(service="FI", instance="FI#7")
        )
        assert ranked[0].service_name == "FI"
        assert ranked[0].instance_id == "FI#7"


class TestServiceIdle:
    def test_idle_wide_service_prefers_scale_in(self, selector):
        ranked = selector.rank(
            SituationKind.SERVICE_IDLE,
            context(cpuLoad=0.05, serviceLoad=0.05, instanceLoad=0.02,
                    instancesOfService=6.0),
        )
        assert ranked[0].action is Action.SCALE_IN
        assert ranked[0].applicability > 0.8

    def test_idle_on_powerful_host_prefers_scale_down(self, selector):
        ranked = selector.rank(
            SituationKind.SERVICE_IDLE,
            context(cpuLoad=0.05, serviceLoad=0.3, instanceLoad=0.02,
                    performanceIndex=9.0, instancesOfService=1.0),
        )
        assert ranked[0].action is Action.SCALE_DOWN


class TestServerTriggers:
    def test_light_instance_on_overloaded_server_moves(self, selector):
        ranked = selector.rank(
            SituationKind.SERVER_OVERLOADED,
            context(cpuLoad=0.95, instanceLoad=0.05, serviceLoad=0.4,
                    instancesOfService=1.0),
        )
        assert ranked[0].action is Action.MOVE

    def test_rank_many_collects_per_service_actions(self, selector):
        """Figure 7: server triggers evaluate every service on the host."""
        contexts = [
            context(service="A", instance="A#1", cpuLoad=0.95, instanceLoad=0.9,
                    performanceIndex=1.0, serviceLoad=0.9),
            context(service="B", instance="B#1", cpuLoad=0.95, instanceLoad=0.05,
                    serviceLoad=0.3),
        ]
        ranked = selector.rank_many(SituationKind.SERVER_OVERLOADED, contexts)
        services = {r.service_name for r in ranked}
        assert services == {"A", "B"}
        values = [r.applicability for r in ranked]
        assert values == sorted(values, reverse=True)


class TestServiceSpecificRules:
    def test_override_layered_on_defaults(self, selector):
        selector = ActionSelector()
        selector.register_service_rules(
            "CRITICAL",
            SituationKind.SERVICE_OVERLOADED,
            "IF cpuLoad IS high THEN increasePriority IS applicable",
        )
        ranked = selector.rank(
            SituationKind.SERVICE_OVERLOADED,
            context(service="CRITICAL", cpuLoad=0.95, performanceIndex=1.0,
                    instanceLoad=0.9, serviceLoad=0.4),
        )
        by_action = {r.action: r.applicability for r in ranked}
        # the override makes increase-priority as applicable as the default
        # scale-up rule; other services keep the low default weighting
        assert by_action[Action.INCREASE_PRIORITY] > 0.8

    def test_other_services_unaffected_by_override(self):
        selector = ActionSelector()
        selector.register_service_rules(
            "CRITICAL",
            SituationKind.SERVICE_OVERLOADED,
            "IF cpuLoad IS high THEN increasePriority IS applicable",
        )
        ranked = selector.rank(
            SituationKind.SERVICE_OVERLOADED,
            context(service="OTHER", cpuLoad=0.95, instancesOfService=2.0),
        )
        by_action = {r.action: r.applicability for r in ranked}
        assert by_action[Action.INCREASE_PRIORITY] < 0.5

    def test_invalid_override_rejected(self):
        selector = ActionSelector()
        with pytest.raises(ValueError):
            selector.register_service_rules(
                "X",
                SituationKind.SERVICE_OVERLOADED,
                "IF diskLoad IS high THEN scaleOut IS applicable",
            )


# -- the one ranking path against the scalar controller ----------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

OVERRIDE = """
    IF cpuLoad IS high AND NOT (memLoad IS high) THEN increasePriority IS applicable
    IF VERY cpuLoad IS low THEN scaleIn IS applicable WITH 0.6
"""


def overridden_selector():
    selector = ActionSelector()
    for kind in (SituationKind.SERVICE_OVERLOADED, SituationKind.SERVER_OVERLOADED):
        selector.register_service_rules("CRITICAL", kind, OVERRIDE)
    return selector


def scalar_ranking(selector, kind, contexts, server_style):
    """The paper's loop: one scalar controller run per context, then sort."""
    collected = []
    for ctx in contexts:
        rulebase = selector.rulebase_for(kind, ctx.service_name)
        outputs = selector._controller.evaluate(dict(ctx.measurements), rulebase).outputs
        ranked = sorted(
            (-value, Action.from_name(name).value, ctx.service_name, ctx.instance_id)
            for name, value in outputs.items()
        )
        if not server_style:
            return [(a, (-v).hex(), s, i) for v, a, s, i in ranked]
        collected.extend(ranked)
    return [(a, (-v).hex(), s, i) for v, a, s, i in sorted(collected)]


def as_tuples(ranking):
    return [
        (r.action.value, r.applicability.hex(), r.service_name, r.instance_id)
        for r in ranking
    ]


LOADS = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.35, 0.4, 0.5, 0.65, 0.7, 0.9, 1.0, 1.2])
COUNTS = st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 9.0, 12.0])
contexts_st = st.builds(
    lambda service, cpu, mem, pi, inst, svc, on_server, of_service: context(
        service=service, instance=f"{service}#1", cpuLoad=cpu, memLoad=mem,
        performanceIndex=pi, instanceLoad=inst, serviceLoad=svc,
        instancesOnServer=on_server, instancesOfService=of_service,
    ),
    st.sampled_from(["FI", "LES", "CRITICAL"]),
    LOADS, LOADS, st.sampled_from([1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 9.0]),
    LOADS, LOADS, COUNTS, COUNTS,
)
entries_st = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from([SituationKind.SERVER_OVERLOADED, SituationKind.SERVER_IDLE]),
            st.lists(contexts_st, min_size=0, max_size=4),
            st.just(True),
        ),
        st.tuples(
            st.sampled_from([SituationKind.SERVICE_OVERLOADED, SituationKind.SERVICE_IDLE]),
            st.lists(contexts_st, min_size=1, max_size=1),
            st.just(False),
        ),
    ),
    min_size=0,
    max_size=6,
)


class TestOneRankingPath:
    @settings(max_examples=60, deadline=None)
    @given(entries=entries_st)
    def test_every_entry_point_equals_the_scalar_controller(self, entries):
        selector = overridden_selector()
        expected = [
            scalar_ranking(selector, kind, contexts, server_style)
            for kind, contexts, server_style in entries
        ]
        pooled = selector.rank_situations(entries)
        assert [as_tuples(ranking) for ranking in pooled] == expected
        for (kind, contexts, server_style), ranking in zip(entries, expected):
            if server_style:
                assert as_tuples(selector.rank_many(kind, contexts)) == ranking
            else:
                assert as_tuples(selector.rank(kind, contexts[0])) == ranking

    def test_by_hand_overloaded_service_on_a_medium_host(self):
        """cpuLoad 0.9 is ``high`` to 0.8; a performanceIndex-4 host is
        ``medium`` to 1 and neither ``low`` nor ``high``: the paper's first
        rule fires at 0.8, no scale-out rule fires at all."""
        ranked = ActionSelector().rank(
            SituationKind.SERVICE_OVERLOADED,
            context(cpuLoad=0.9, performanceIndex=4.0, memLoad=0.1, serviceLoad=0.1,
                    instanceLoad=0.5, instancesOnServer=1.0, instancesOfService=2.0),
        )
        by_action = {r.action: r.applicability for r in ranked}
        assert by_action[Action.SCALE_UP] == 0.8
        assert by_action[Action.SCALE_OUT] == 0.0
        assert ranked[0].action is Action.SCALE_UP

    def test_rules_registered_for_a_ranked_service_change_its_next_ranking(self):
        selector = ActionSelector()
        overloaded = context(service="FI", cpuLoad=0.95, instancesOfService=2.0)
        kind = SituationKind.SERVICE_OVERLOADED

        def priority():
            ranked = selector.rank(kind, overloaded)
            return {r.action: r.applicability for r in ranked}[Action.INCREASE_PRIORITY]

        assert priority() == 0.0
        selector.register_service_rules(
            "FI", kind, "IF cpuLoad IS high THEN increasePriority IS applicable"
        )
        assert priority() == 0.9
        selector.register_service_rules(
            "FI", kind, "IF cpuLoad IS high THEN increasePriority IS applicable WITH 0.5"
        )
        assert priority() == 0.45
        # the default rule base itself is a public, mutable list
        base = selector.rulebase_for(kind, "LES")
        busy = context(service="LES", cpuLoad=0.95, instancesOfService=2.0)

        def les_priority():
            ranked = selector.rank(kind, busy)
            return {r.action: r.applicability for r in ranked}[Action.INCREASE_PRIORITY]

        assert les_priority() == 0.0
        base.extend(selector._service_rulebases["FI"][kind].rules)
        assert les_priority() == 0.45
        assert priority() == 0.45  # FI's merged base is another object, unchanged

    def test_counters_say_which_path_ran(self):
        selector = ActionSelector()
        selector.rank(SituationKind.SERVICE_OVERLOADED, context(cpuLoad=0.9))
        selector.rank_many(
            SituationKind.SERVER_IDLE, [context(service=s) for s in ("A", "B", "C")]
        )
        assert selector.fuzzy_stats == {
            "programs_compiled": 2,
            "batches": 2,
            "contexts": 4,
            "generic_terms": 0,
        }
