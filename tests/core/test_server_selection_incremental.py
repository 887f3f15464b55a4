"""The incremental host-suitability table against the scalar oracle.

``ServerSelector.rank`` gathers from a score table that is refreshed
only for hosts whose columns changed, however few the candidates.  Three
layers of evidence that this is the paper's "for each server the fuzzy
controller is executed" and nothing else:

* Hypothesis drives random mutation sequences — demand writes, executed
  actions, host crashes and recoveries, ``restore_state`` — and after
  every step the ranking of 1, 5, 31, 32 and all 40 hosts must equal
  the oracle's per-host ranking (``tests/fuzzy/oracle.py``: measurements
  read one by one, the scalar controller walk, a sort) element for
  element (names and ``float.hex()`` scores), for every rule base, with
  and without a reservation book.
* Counter assertions: one executed action re-scores at most the hosts it
  touched.  Removing the table, or a silent full rescan, fails here.
* The lazy ranking behaves like the list it replaced.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.model import (
    Action,
    ControllerSettings,
    LandscapeSpec,
    ServerSpec,
    ServiceConstraints,
    ServiceSpec,
    WorkloadSpec,
)
from repro.core.constraints import candidate_hosts
from repro.core.rulebases import default_server_rulebases
from repro.allocation.reservations import Reservation, ReservationBook
from repro.core.server_selection import RankedHost, ServerSelector
from repro.fuzzy.parser import parse_rules
from repro.fuzzy.rules import RuleBase
from repro.serviceglobe.actions import ActionError
from repro.serviceglobe.landscape_state import HostIds
from repro.serviceglobe.platform import Platform
from tests.core.conftest import MOBILE_ACTIONS
from tests.fuzzy.oracle import server_ranking

HOSTS = 40
SERVICES = ("S1", "S2", "S3")
ALL_ACTIONS = MOBILE_ACTIONS | {Action.START, Action.STOP}


def build_landscape() -> LandscapeSpec:
    """Forty hosts that differ in every Table 3 static input.

    Names are ``H1..H40``: their lexicographic order differs from their
    id order, so the integer name-rank column is really exercised.
    """
    servers = [
        ServerSpec(
            f"H{i + 1}",
            performance_index=(1.0, 2.0, 4.0, 9.0)[i % 4],
            num_cpus=(1, 2, 4, 8)[(i // 2) % 4],
            cpu_clock_mhz=(800.0, 1600.0, 2800.0)[i % 3],
            cpu_cache_kb=(256.0, 1024.0, 4096.0)[(i // 3) % 3],
            memory_mb=(2048, 4096, 12288)[i % 3],
            swap_space_mb=(2048, 8192)[i % 2],
            temp_space_mb=(5120, 40960)[(i // 5) % 2],
        )
        for i in range(HOSTS)
    ]
    services = [
        ServiceSpec(
            name,
            constraints=ServiceConstraints(
                min_instances=0, allowed_actions=ALL_ACTIONS
            ),
            workload=WorkloadSpec(users=100, memory_per_instance_mb=memory),
        )
        for name, memory in zip(SERVICES, (256, 512, 1024))
    ]
    return LandscapeSpec(
        name="incremental",
        servers=servers,
        services=services,
        initial_allocation=[("S1", "H1"), ("S2", "H2"), ("S2", "H6"), ("S3", "H3")],
        controller=ControllerSettings(),
    )


def hedged_rulebases():
    """The default rule bases plus hedges and a weightless negation."""
    extra = """
        IF VERY cpuLoad IS low AND SOMEWHAT memory IS large
        THEN suitability IS applicable WITH 0.97
        IF NOT (memLoad IS high) AND numberOfCpus IS many
        THEN suitability IS applicable WITH 0.5
    """
    return {
        action: RuleBase(
            f"hedged-{action.value}",
            list(rulebase) + list(parse_rules(extra, label_prefix="x")),
        )
        for action, rulebase in default_server_rulebases().items()
    }


def booked() -> ReservationBook:
    """Reservations now, within the look-ahead, beyond it and on a host
    the burst of scale-outs below may also pick."""
    book = ReservationBook()
    for host, demand, start, end in (
        ("H3", 0.5, 0, 100), ("H7", 2.0, 10, 50), ("H20", 0.2, 200, 300),
        ("H12", 9.0, 0, 600),
    ):
        book.register(Reservation(host, demand=demand, start=start, end=end))
    return book


def make_selector(variant: str) -> ServerSelector:
    if variant == "hedged":
        return ServerSelector(rulebases=hedged_rulebases())
    if variant == "reserved":
        return ServerSelector(reservations=booked())
    return ServerSelector()


#: candidate counts on both sides of the 32 a per-host path once began at
CANDIDATE_COUNTS = (1, 5, 31, 32, HOSTS)


def assert_table_equals_scalar(selector, platform):
    hosts = list(platform.hosts.values())
    for action in selector._rulebases:
        # the oracle's sort key is per host: a subset's ranking is the
        # whole ranking filtered
        reference = server_ranking(selector, platform, action, hosts)
        for count in CANDIDATE_COUNTS:
            candidates = hosts[-count:] if count % 2 else hosts[:count]
            names = {host.name for host in candidates}
            ranked = selector.rank(platform, action, candidates)
            assert [(r.host_name, r.score.hex()) for r in ranked] == [
                pair for pair in reference if pair[0] in names
            ]


# -- mutation sequences ------------------------------------------------------------

_index = st.integers(0, 10_000)
operations = st.one_of(
    st.tuples(st.just("demand"), _index, st.floats(0.0, 12.0)),
    st.tuples(
        st.sampled_from(["scale-out", "start", "move", "scale-up", "scale-down"]),
        _index,
        _index,
    ),
    st.tuples(st.sampled_from(["scale-in", "stop"]), _index, _index),
    st.tuples(st.sampled_from(["crash", "recover", "read"]), _index, _index),
    st.tuples(st.sampled_from(["snapshot", "restore"]), _index, _index),
)


RELOCATIONS = {
    "move": Action.MOVE,
    "scale-up": Action.SCALE_UP,
    "scale-down": Action.SCALE_DOWN,
    "scale-in": Action.SCALE_IN,
}


def apply(platform, snapshots, operation):
    kind, a, b = operation
    instances = sorted(platform.all_instances(), key=lambda i: i.instance_id)
    instance = instances[a % len(instances)] if instances else None
    service_name = SERVICES[a % len(SERVICES)]
    try:
        if kind == "demand":
            if instance is not None:
                instance.demand = b
            return
        host_name = f"H{b % HOSTS + 1}"
        if kind in ("scale-out", "start"):
            action = Action.SCALE_OUT if kind == "scale-out" else Action.START
            platform.execute(action, service_name, target_host=host_name)
        elif kind in RELOCATIONS and instance is not None:
            platform.execute(
                RELOCATIONS[kind],
                instance.service_name,
                instance_id=instance.instance_id,
                target_host=None if kind == "scale-in" else host_name,
            )
        elif kind == "stop":
            platform.execute(Action.STOP, service_name)
        elif kind == "crash":
            platform.crash_host(host_name)
        elif kind == "recover":
            platform.recover_host(host_name)
        elif kind == "read":
            # a scalar read refreshes one dirty host outside ``flush()``
            platform.host_cpu_load(host_name)
            platform.host_mem_load(host_name)
        elif kind == "snapshot":
            snapshots.append(platform.snapshot_state())
        elif kind == "restore" and snapshots:
            platform.restore_state(snapshots[a % len(snapshots)])
    except ActionError:
        pass  # infeasible draws are part of the sequence


@pytest.mark.parametrize("variant", ["default", "hedged", "reserved"])
@settings(max_examples=40, deadline=None)
@given(
    sequence=st.lists(operations, min_size=1, max_size=15),
    minutes=st.lists(st.integers(0, 240), min_size=1, max_size=15),
)
def test_table_ranking_equals_scalar_after_every_mutation(variant, sequence, minutes):
    platform = Platform(build_landscape())
    selector = make_selector(variant)
    snapshots = []
    assert_table_equals_scalar(selector, platform)
    for operation, minute in zip(sequence, minutes * len(sequence)):
        apply(platform, snapshots, operation)
        platform.current_time = minute  # where the reservation look-ahead lands
        assert_table_equals_scalar(selector, platform)


def test_restore_state_rebuilds_the_table():
    platform = Platform(build_landscape())
    selector = ServerSelector()
    snapshot = platform.snapshot_state()
    assert_table_equals_scalar(selector, platform)
    assert selector.stats["table_rebuilds"] == 1
    platform.execute(Action.SCALE_OUT, "S3", target_host="H12")
    platform.restore_state(snapshot)
    assert_table_equals_scalar(selector, platform)
    assert selector.stats["table_rebuilds"] == 2


def test_a_rule_added_after_a_ranking_rescores_the_whole_column():
    platform = Platform(build_landscape())
    rulebases = default_server_rulebases()
    selector = ServerSelector(rulebases=rulebases)
    assert_table_equals_scalar(selector, platform)
    rescored = selector.stats["hosts_rescored"]
    rulebases[Action.MOVE].extend(
        parse_rules("IF numberOfCpus IS many THEN suitability IS applicable WITH 0.99")
    )
    assert_table_equals_scalar(selector, platform)
    assert selector.stats["hosts_rescored"] - rescored == HOSTS  # MOVE's, no other
    assert selector.fuzzy_stats["programs_compiled"] == len(rulebases) + 1


def test_one_idle_bl40p_is_fully_suitable_for_a_scale_out():
    """cpuLoad 0 is ``low`` to 1 and performanceIndex 9 ``high`` to 1, so
    the first scale-out rule (weight 1) fires at 1.0 — for thirty-three
    such hosts and for a short list of one alike, off one table."""
    landscape = LandscapeSpec(
        name="bl40p",
        servers=[
            ServerSpec(
                f"DBServer{i}", performance_index=9.0, num_cpus=4,
                cpu_clock_mhz=2800.0, cpu_cache_kb=2048.0, memory_mb=12288,
                swap_space_mb=24576, temp_space_mb=102400,
            )
            for i in range(33)
        ],
        services=[],
        initial_allocation=[],
        controller=ControllerSettings(),
    )
    platform = Platform(landscape)
    selector = ServerSelector()
    hosts = list(platform.hosts.values())
    for candidates in (hosts, hosts[:1]):
        ranked = selector.rank(platform, Action.SCALE_OUT, candidates)
        assert [r.score for r in ranked] == [1.0] * len(candidates)
    assert selector.stats["table_rebuilds"] == 1
    assert selector.stats["hosts_rescored"] == 33


# -- incremental cost --------------------------------------------------------------


class TestRescoringIsIncremental:
    @pytest.fixture
    def warm(self):
        platform = Platform(build_landscape())
        selector = ServerSelector()
        hosts = platform.eligible_hosts("S1")
        assert isinstance(hosts, HostIds) and len(hosts) >= 32
        selector.rank(platform, Action.SCALE_OUT, hosts)
        assert selector.stats["hosts_rescored"] == HOSTS
        return platform, selector

    def rescored_by(self, platform, selector, mutate):
        before = selector.stats["hosts_rescored"]
        mutate()
        selector.rank(platform, Action.SCALE_OUT, platform.eligible_hosts("S1"))
        return selector.stats["hosts_rescored"] - before

    def test_nothing_changed_nothing_rescored(self, warm):
        platform, selector = warm
        assert self.rescored_by(platform, selector, lambda: None) == 0

    def test_demand_write_rescores_one_host(self, warm):
        platform, selector = warm
        instance = platform.service("S1").running_instances[0]

        def write():
            instance.demand = 0.8

        assert self.rescored_by(platform, selector, write) == 1

    def test_scalar_read_before_the_rank_does_not_hide_the_write(self, warm):
        platform, selector = warm
        instance = platform.service("S1").running_instances[0]

        def write_then_read():
            instance.demand = 0.8
            assert platform.host_cpu_load(instance.host_name) == 0.8

        assert self.rescored_by(platform, selector, write_then_read) == 1

    @pytest.mark.parametrize(
        "action, target, touched",
        [
            (Action.SCALE_OUT, "H9", 1),
            (Action.MOVE, "H5", 2),  # H1 and H5 share performance index 1
            (Action.SCALE_UP, "H4", 2),
        ],
    )
    def test_one_action_rescores_at_most_the_hosts_it_touched(
        self, warm, action, target, touched
    ):
        platform, selector = warm
        rescored = self.rescored_by(
            platform,
            selector,
            lambda: platform.execute(action, "S1", target_host=target),
        )
        assert 1 <= rescored <= touched
        assert selector.stats["table_rebuilds"] == 1

    def test_each_rule_base_catches_up_on_its_own(self, warm):
        platform, selector = warm
        platform.execute(Action.SCALE_OUT, "S1", target_host="H9")
        hosts = platform.eligible_hosts("S1")
        selector.rank(platform, Action.SCALE_OUT, hosts)
        before = selector.stats["hosts_rescored"]
        selector.rank(platform, Action.MOVE, hosts)  # first use: whole column
        assert selector.stats["hosts_rescored"] - before == HOSTS
        selector.rank(platform, Action.MOVE, hosts)
        assert selector.stats["hosts_rescored"] - before == HOSTS

    def test_candidate_hosts_hand_over_ids(self, warm):
        platform, selector = warm
        instance = platform.service("S1").running_instances[0]
        for action in (Action.SCALE_OUT, Action.SCALE_UP):
            candidates = candidate_hosts(
                platform, action, "S1", instance.instance_id
            )
            assert isinstance(candidates, HostIds)
            assert [host.state_id for host in candidates] == candidates.ids.tolist()

    def test_short_lists_reservations_and_strangers_take_one_path(self, warm):
        """A short list reads the table; a reservation book re-scores the
        candidates' rows and leaves the table as it is; hosts of another
        platform are refused."""
        platform, selector = warm
        hosts = list(platform.hosts.values())
        short = selector.rank(platform, Action.SCALE_OUT, hosts[:3])
        assert selector.stats["hosts_rescored"] == HOSTS
        assert [r.host_name for r in short] == [
            r.host_name for r in selector.rank(platform, Action.SCALE_OUT, hosts)
            if r.host_name in {"H1", "H2", "H3"}
        ]
        book = ReservationBook()
        book.register(Reservation(short[0].host_name, demand=50.0, start=0, end=60))
        reserving = ServerSelector(reservations=book)
        booked_ranking = reserving.rank(platform, Action.SCALE_OUT, hosts[:3])
        assert booked_ranking[-1].host_name == short[0].host_name
        assert reserving.stats["hosts_rescored"] == 0
        assert reserving._table.columns == {}
        strangers = list(Platform(build_landscape()).hosts.values())
        with pytest.raises(ValueError, match="not all hosts of this platform"):
            selector.rank(platform, Action.MOVE, strangers)
        assert selector.stats["rank_calls"] == 4


# -- the lazy ranking --------------------------------------------------------------


class TestLazyRanking:
    @pytest.fixture
    def ranked(self):
        platform = Platform(build_landscape())
        selector = ServerSelector()
        ranking = selector.rank(
            platform, Action.SCALE_OUT, platform.eligible_hosts("S1")
        )
        return platform, selector, ranking

    def test_objects_are_built_only_when_consumed(self, ranked):
        __, selector, ranking = ranked
        assert selector.stats["ranked_materialised"] == 0
        best = next(iter(ranking))
        assert isinstance(best, RankedHost)
        assert selector.stats["ranked_materialised"] == 1

    def test_len_indexing_and_slices(self, ranked):
        __, __, ranking = ranked
        everything = list(ranking)
        assert len(ranking) == len(everything) == HOSTS
        assert ranking[0] == everything[0]
        assert ranking[-1] == everything[-1]
        assert ranking[2:5] == everything[2:5]
        assert isinstance(ranking[0].score, float)
        with pytest.raises(IndexError):
            ranking[HOSTS]

    def test_re_iteration_yields_the_same_ranking(self, ranked):
        __, __, ranking = ranked
        assert list(ranking) == list(ranking)
        scores = [r.score for r in ranking]
        assert scores == sorted(scores, reverse=True)

    def test_ranking_is_a_snapshot(self, ranked):
        platform, selector, ranking = ranked
        before = list(ranking)
        winner = before[0].host_name
        platform.execute(Action.SCALE_OUT, "S1", target_host=winner)
        for instance in platform.host(winner).running_instances:
            instance.demand = 50.0
        later = selector.rank(
            platform, Action.SCALE_OUT, platform.eligible_hosts("S1")
        )
        assert later[0].host_name != winner
        assert list(ranking) == before
