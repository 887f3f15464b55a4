"""Control domains: the federated control plane and cross-domain escrow.

Acceptance: each domain's controller only sees (and archives) its own
shard; an overload a domain cannot resolve locally relocates an instance
into a foreign domain through the two-phase escrow; a deposed domain
leader is fenced at the escrow's prepare *and* commit points; a source
host dying mid-escrow orphans the instance into its home domain's
self-healing path; and per-domain instance counts always sum to the
flat-landscape count.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.builtin import paper_landscape, partition_landscape
from repro.config.model import (
    Action,
    ControlDomainSpec,
    ControllerSettings,
    LandscapeSpec,
    ServerSpec,
    ServiceConstraints,
    ServiceSpec,
    WorkloadSpec,
)
from repro.core.federation import FederatedControlPlane
from repro.monitoring.lms import Situation, SituationKind
from repro.serviceglobe.actions import ActionError, NoSuchTarget
from repro.serviceglobe.platform import Platform

MOBILE = frozenset(
    {Action.START, Action.STOP, Action.SCALE_IN, Action.SCALE_OUT, Action.MOVE}
)


def build_federated_landscape(foreign_index=1.0):
    """Domain d1 = one host; domain d2 = two hosts of ``foreign_index``."""
    return LandscapeSpec(
        name="fed-test",
        servers=[
            ServerSpec("A1", performance_index=1.0, num_cpus=1, memory_mb=2048),
            ServerSpec(
                "B1", performance_index=foreign_index, num_cpus=1, memory_mb=2048
            ),
            ServerSpec(
                "B2", performance_index=foreign_index, num_cpus=1, memory_mb=2048
            ),
        ],
        services=[
            ServiceSpec(
                "SVC-A",
                constraints=ServiceConstraints(
                    min_instances=1, allowed_actions=MOBILE
                ),
                workload=WorkloadSpec(users=200, memory_per_instance_mb=512),
            ),
            ServiceSpec(
                "SVC-B",
                constraints=ServiceConstraints(
                    min_instances=1, allowed_actions=MOBILE
                ),
                workload=WorkloadSpec(users=200, memory_per_instance_mb=512),
            ),
        ],
        initial_allocation=[("SVC-A", "A1"), ("SVC-B", "B1")],
        controller=ControllerSettings(),
        domains=[
            ControlDomainSpec("d1", servers=["A1"]),
            ControlDomainSpec("d2", servers=["B1", "B2"]),
        ],
    )


def make_plane(foreign_index=1.0, **kwargs):
    platform = Platform(build_federated_landscape(foreign_index))
    return platform, FederatedControlPlane(platform, **kwargs)


def overload_situation(subject="A1", now=5):
    return Situation(
        kind=SituationKind.SERVER_OVERLOADED,
        subject=subject,
        service_name=None,
        detected_at=now,
        observed_mean=0.95,
    )


class TestConstruction:
    def test_a_flat_landscape_is_one_domain_over_the_platform(self):
        platform = Platform(paper_landscape())
        plane = FederatedControlPlane(platform)
        assert list(plane.shards) == [""]
        [supervisor] = plane.shards.values()
        assert supervisor.platform is platform
        assert supervisor.store is None and len(supervisor.replicas) == 1
        [leader] = plane.leaders()
        assert leader.decision_loop.relocation_handler is None
        assert leader.executor.name == "exec"
        assert plane.server_selector is None

    def test_views_scope_hosts_and_services_to_their_shard(self):
        __, plane = make_plane()
        assert set(plane.shards) == {"d1", "d2"}
        assert set(plane.shards["d1"].platform.hosts) == {"A1"}
        assert set(plane.shards["d2"].platform.hosts) == {"B1", "B2"}
        assert set(plane.shards["d1"].platform.services) == {"SVC-A"}
        assert set(plane.shards["d2"].platform.services) == {"SVC-B"}

    def test_views_crash_and_recover_only_their_own_hosts(self):
        platform, plane = make_plane()
        view = plane.shards["d1"].platform
        victims = view.crash_host("A1")
        assert [v.service_name for v in victims] == ["SVC-A"]
        assert view.hosts_down() == platform.hosts_down() == ["A1"]
        view.recover_host("A1")
        assert platform.hosts_down() == []
        for refused in (view.crash_host, view.recover_host):
            with pytest.raises(NoSuchTarget, match="does not administer"):
                refused("B1")
        assert platform.host("B1").up

    def test_each_shard_gets_its_own_archive(self):
        __, plane = make_plane()
        archives = [shard.archive for shard in plane.shards.values()]
        assert len({id(archive) for archive in archives}) == len(archives)


class TestArchiveIsolation:
    def test_archive_rows_never_cross_shards(self):
        __, plane = make_plane()
        for now in range(0, 40):
            plane.tick(now)
        d1_subjects = set(plane.shards["d1"].archive.subjects())
        d2_subjects = set(plane.shards["d2"].archive.subjects())
        assert d1_subjects, "d1 archived nothing"
        assert d2_subjects, "d2 archived nothing"
        assert not any("B1" in s or "B2" in s or "SVC-B" in s for s in d1_subjects)
        assert not any("A1" in s or "SVC-A" in s for s in d2_subjects)


class TestCrossDomainRelocation:
    def test_moves_the_overloaded_instance_into_a_foreign_domain(self):
        platform, plane = make_plane()
        instance = platform.service("SVC-A").running_instances[0]
        instance.demand = 0.95
        outcome = plane._handle_relocation("d1", overload_situation(), now=5)
        assert outcome is not None
        assert outcome.action is Action.MOVE
        assert instance.host_name in {"B1", "B2"}
        assert "cross-domain relocation d1->d2" in outcome.note
        request = plane.relocation_requests[-1]
        assert request.status == "moved"
        assert request.source_domain == "d1"
        assert request.target_domain == "d2"
        # ownership sticks with the home domain even after the move
        assert instance in plane.shards["d1"].platform.all_instances()

    def test_only_server_overload_publishes_requests(self):
        __, plane = make_plane()
        situation = Situation(
            kind=SituationKind.SERVICE_OVERLOADED,
            subject="SVC-A#001",
            service_name="SVC-A",
            detected_at=5,
            observed_mean=0.95,
        )
        assert plane._handle_relocation("d1", situation, now=5) is None
        assert plane.relocation_requests == []

    def test_requires_an_equal_performance_index(self):
        platform, plane = make_plane(foreign_index=2.0)
        platform.service("SVC-A").running_instances[0].demand = 0.95
        assert plane._handle_relocation("d1", overload_situation(), now=5) is None
        assert plane.relocation_requests[-1].status == "unresolved"


class TestEscrowFailures:
    def test_prepare_fences_a_deposed_domain_leader(self):
        platform, plane = make_plane()
        shard = plane.shards["d1"]
        platform.service("SVC-A").running_instances[0].demand = 0.95
        shard.active.executor.fencing_token = 1
        shard.platform.fence.advance(5)  # a newer leader announced itself
        assert plane._handle_relocation("d1", overload_situation(), now=5) is None
        assert plane.relocation_requests[-1].status == "fenced"
        instance = platform.service("SVC-A").running_instances[0]
        assert instance.host_name == "A1"

    def test_commit_point_fence_aborts_and_compensates(self):
        platform, plane = make_plane()
        shard = plane.shards["d1"]
        instance = platform.service("SVC-A").running_instances[0]
        instance.demand = 0.95
        shard.active.executor.fencing_token = 1
        shard.platform.fence.validate(1)

        # a pre-existing commit hook that deposes the leader exactly
        # between detach and attach — the escrow barrier chains it, then
        # re-validates the now-stale token at the commit point
        def depose_mid_flight(moving, target_host):
            shard.platform.fence.advance(99)

        platform.move_fault_hook = depose_mid_flight
        assert plane._handle_relocation("d1", overload_situation(), now=5) is None
        assert plane.relocation_requests[-1].status == "fenced"
        # the platform compensated: the instance is back on its source
        assert instance.running
        assert instance.host_name == "A1"
        # the escrow restored the original hook on its way out
        assert platform.move_fault_hook is depose_mid_flight

    def test_source_host_crash_mid_escrow_orphans_into_home_domain(self):
        platform, plane = make_plane()
        shard = plane.shards["d1"]
        instance = platform.service("SVC-A").running_instances[0]
        instance.demand = 0.95

        def kill_source_mid_flight(moving, target_host):
            platform.host("A1").up = False
            raise ActionError("source host died while the instance was in flight")

        platform.move_fault_hook = kill_source_mid_flight
        assert plane._handle_relocation("d1", overload_situation(), now=5) is None
        # the instance could not go back (source dead) nor forward
        # (escrow aborted): it is orphaned into its home domain's
        # self-healing path, not lost and not handed to d2
        assert not instance.running
        orphans = shard.platform.drain_orphans()
        assert [o.instance_id for o in orphans] == [instance.instance_id]
        assert plane.shards["d2"].platform.drain_orphans() == []


class TestFederatedTick:
    def test_tick_concatenates_shard_outcomes_deterministically(self):
        __, plane = make_plane()
        outcomes = plane.tick(0)
        assert outcomes == []
        snapshot = plane.snapshot_state()
        assert set(snapshot["domains"]) == {"d1", "d2"}
        plane.restore_state(snapshot)

    def test_enabled_toggle_reaches_every_shard(self):
        __, plane = make_plane()
        plane.enabled = False
        assert not plane.enabled
        assert all(not s.enabled for s in plane.shards.values())


@settings(max_examples=10, deadline=None)
@given(
    count=st.integers(min_value=2, max_value=5),
    minutes=st.integers(min_value=1, max_value=30),
)
def test_per_domain_instance_counts_sum_to_the_flat_count(count, minutes):
    """Sharding changes who administers instances, never how many exist."""
    landscape = partition_landscape(paper_landscape(), count)
    platform = Platform(landscape)
    plane = FederatedControlPlane(platform)
    for instance in platform.all_instances():
        instance.demand = 0.5
    for now in range(minutes):
        plane.tick(now)
    flat = {i.instance_id for i in platform.all_instances()}
    per_domain = [
        {i.instance_id for i in shard.platform.all_instances()}
        for shard in plane.shards.values()
    ]
    assert sum(len(owned) for owned in per_domain) == len(flat)
    combined = set()
    for owned in per_domain:
        assert combined.isdisjoint(owned), "an instance is administered twice"
        combined.update(owned)
    assert combined == flat


#: configuration -> (executor name, seed offset under chaos, fencing
#: token after the first minute) of the executor the plane's domain
#: ``domain-2`` (the flat domain ``""``) leads with
EXECUTOR_TABLE = {
    "flat bare": ("exec", 0, None),
    "flat supervised": ("controller-1", 1001, 1),
    "domain bare": ("domain-2-exec", 1100, None),
    "domain supervised": ("controller-1", 1101, 1),
    "agent": ("controller-1", 1001, None),
}


def _leading_executor(configuration, profile, tmp_path):
    if configuration == "agent":
        from repro.net.agent import DomainAgent

        def unreachable():
            raise OSError("no server")

        agent = DomainAgent(
            "domain-2", 2, unreachable, tmp_path, chaos=profile, horizon=1
        )
        agent.supervisor.store.close()
        return agent.supervisor.active.executor
    from repro.sim.runner import SimulationRunner
    from repro.sim.scenarios import Scenario

    domains = configuration.startswith("domain")
    runner = SimulationRunner(
        Scenario.FULL_MOBILITY, horizon=1, lint="off", collect_host_series=False,
        landscape=partition_landscape(paper_landscape(), 2) if domains else None,
        chaos=profile, standby=configuration.endswith("supervised"),
    )
    # one minute of the plane alone: no fault is injected, nothing acts,
    # so the executors have drawn nothing yet
    runner.controller.tick(runner.start_minute)
    runner.close()
    return runner.controller.shards["domain-2" if domains else ""].active.executor


@pytest.mark.parametrize("chaos", [True, False], ids=["chaos", "calm"])
@pytest.mark.parametrize("configuration", list(EXECUTOR_TABLE))
def test_every_executor_keeps_its_name_and_seed(configuration, chaos, tmp_path):
    """One rule names and seeds every executor of every configuration;
    without chaos every executor is pristine (seed 0, no faults)."""
    import numpy as np

    from repro.serviceglobe.executor import ExecutionFaults
    from repro.sim.runner import execution_faults
    from repro.sim.scenarios import default_chaos

    profile = default_chaos(115) if chaos else None
    name, offset, token = EXECUTOR_TABLE[configuration]
    executor = _leading_executor(configuration, profile, tmp_path)
    seed = profile.seed + offset if chaos else 0
    assert executor.name == name
    assert executor.fencing_token == token
    assert (
        executor._rng.bit_generator.state
        == np.random.default_rng(seed).bit_generator.state
    )
    assert executor.faults == (
        execution_faults(profile) if chaos else ExecutionFaults()
    )
