"""Tests for server selection and constraint verification."""

import pytest

from repro.config.model import Action
from repro.core.constraints import candidate_hosts, verify_action
from repro.core.server_selection import ServerSelector
from tests.core.conftest import build_landscape, set_demand
from repro.serviceglobe.platform import Platform


@pytest.fixture
def selector():
    return ServerSelector()


class TestServerSelection:
    def test_idle_host_beats_busy_host(self, platform, selector):
        set_demand(platform, "Weak1", 0.9)
        candidates = [platform.host("Weak1"), platform.host("Weak2")]
        ranked = selector.rank(platform, Action.MOVE, candidates)
        assert ranked[0].host_name == "Weak2"
        assert ranked[0].score > ranked[1].score

    def test_scale_out_prefers_powerful_idle_host(self, platform, selector):
        """Like Figure 16's 'Out DBServer3': a big, lightly used server
        wins the scale-out placement."""
        candidates = [
            platform.host("Weak2"),
            platform.host("Strong2"),
            platform.host("Big1"),
        ]
        ranked = selector.rank(platform, Action.SCALE_OUT, candidates)
        assert ranked[0].host_name == "Big1"

    def test_scale_down_prefers_weak_host(self, platform, selector):
        candidates = [platform.host("Weak2"), platform.host("Strong2")]
        ranked = selector.rank(platform, Action.SCALE_DOWN, candidates)
        assert ranked[0].host_name == "Weak2"

    def test_deterministic_tiebreak_by_name(self, platform, selector):
        candidates = [platform.host("Weak2"), platform.host("Weak1")]
        # both idle: Weak1 runs APP (which has zero demand), so loads tie at 0
        set_demand(platform, "Weak1", 0.0)
        ranked = selector.rank(platform, Action.MOVE, candidates)
        assert [r.host_name for r in ranked] == ["Weak1", "Weak2"]

    def test_scores_in_unit_interval(self, platform, selector):
        for action in (Action.SCALE_OUT, Action.SCALE_UP, Action.MOVE):
            for ranked in selector.rank(
                platform, action, list(platform.hosts.values())
            ):
                assert 0.0 <= ranked.score <= 1.0

    def test_unknown_action_rejected(self, platform, selector):
        with pytest.raises(ValueError, match="rule base"):
            selector.rank(platform, Action.STOP, [platform.host("Big1")])

    def test_host_measurements_cover_table3(self, platform, selector):
        big1 = platform.host("Big1")
        selector.rank(platform, Action.SCALE_OUT, [big1])
        columns = selector._table.inputs(platform.landscape_state.host_ids([big1]))
        measurements = {name: float(column[0]) for name, column in columns.items()}
        assert set(measurements) == {
            "cpuLoad",
            "memLoad",
            "instancesOnServer",
            "performanceIndex",
            "numberOfCpus",
            "cpuClock",
            "cpuCache",
            "memory",
            "swapSpace",
            "tempSpace",
        }
        assert measurements["performanceIndex"] == 9.0
        # free memory: 12288 minus the 4096 MB DB instance
        assert measurements["memory"] == 8192.0


class TestCandidateHosts:
    def test_scale_out_candidates_exclude_infeasible(self, platform):
        names = {h.name for h in candidate_hosts(platform, Action.SCALE_OUT, "APP")}
        # all hosts have room for the 512 MB instance
        assert names == {"Weak1", "Weak2", "Strong1", "Strong2", "Big1"}

    def test_move_candidates_equal_index_only(self, platform):
        instance = platform.service("APP").running_instances[0]  # on Weak1 (PI 1)
        names = {
            h.name
            for h in candidate_hosts(
                platform, Action.MOVE, "APP", instance.instance_id
            )
        }
        assert names == {"Weak2"}

    def test_scale_up_candidates_stronger_only(self, platform):
        instance = platform.service("APP").running_instances[0]
        names = {
            h.name
            for h in candidate_hosts(
                platform, Action.SCALE_UP, "APP", instance.instance_id
            )
        }
        assert names == {"Strong1", "Strong2", "Big1"}

    def test_scale_down_candidates_weaker_only(self, platform):
        platform.execute(Action.SCALE_UP, "APP", target_host="Big1")
        instance = platform.service("APP").running_instances[0]
        names = {
            h.name
            for h in candidate_hosts(
                platform, Action.SCALE_DOWN, "APP", instance.instance_id
            )
        }
        assert names == {"Weak1", "Weak2", "Strong1", "Strong2"}

    def test_untargeted_actions_have_no_candidates(self, platform):
        assert candidate_hosts(platform, Action.SCALE_IN, "APP") == []

    def test_db_candidates_respect_min_performance_index(self, platform):
        # DB requires index >= 5; only Big1 qualifies, but it already runs DB
        names = {h.name for h in candidate_hosts(platform, Action.SCALE_OUT, "DB")}
        assert names == {"Big1"}


class TestVerifyAction:
    def test_feasible_scale_out(self, platform):
        assert verify_action(platform, Action.SCALE_OUT, "APP") is None

    def test_disallowed_action(self, platform):
        assert "does not support" in verify_action(platform, Action.SCALE_OUT, "DB")

    def test_max_instances_blocks_scale_out(self):
        platform = Platform(build_landscape(max_instances=1))
        assert "maximum" in verify_action(platform, Action.SCALE_OUT, "APP")

    def test_min_instances_blocks_scale_in(self):
        platform = Platform(build_landscape(min_instances=1))
        assert "at least" in verify_action(platform, Action.SCALE_IN, "APP")

    def test_scale_in_feasible_with_two_instances(self, platform):
        platform.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        assert verify_action(platform, Action.SCALE_IN, "APP") is None

    def test_move_without_target_candidates(self, platform):
        # occupy Weak2 so the lone equal-index host is full
        platform.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        platform.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        platform.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        platform.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        instance = platform.service("APP").running_instances[0]
        problem = verify_action(platform, Action.MOVE, "APP", instance.instance_id)
        assert problem is not None and "no suitable target" in problem

    def test_priority_actions_always_feasible_on_running_service(self, platform):
        assert verify_action(platform, Action.INCREASE_PRIORITY, "APP") is None
        assert verify_action(platform, Action.REDUCE_PRIORITY, "APP") is None

    def test_start_on_running_service_rejected(self, platform):
        landscape = build_landscape(
            app_actions=frozenset({Action.START, Action.STOP}), min_instances=0
        )
        platform = Platform(landscape)
        assert "already running" in verify_action(platform, Action.START, "APP")

    def test_stop_requires_zero_min_instances(self, platform):
        landscape = build_landscape(
            app_actions=frozenset({Action.START, Action.STOP}), min_instances=0
        )
        platform = Platform(landscape)
        assert verify_action(platform, Action.STOP, "APP") is None
