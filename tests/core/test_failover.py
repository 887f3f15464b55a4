"""Controller crash recovery and hot-standby failover.

Acceptance: a crashed controller's replacement inherits the durably
recorded soft state (protection, approvals, pending restarts), resolves
in-flight action intents exactly once, and a deposed leader that keeps
issuing actions is fenced — audited, never double-applied.
"""

import pytest

from repro.config.model import Action
from repro.core.failover import ControllerSupervisor
from repro.core.state import DurableStateStore
from repro.monitoring.archive import InMemoryLoadArchive
from repro.serviceglobe.actions import FencedActionError
from repro.telemetry.records import TOPIC_SUPERVISION
from tests.conftest import executed, published

START = 720  # noon, like the simulation runner


def make_supervisor(platform, **kwargs):
    kwargs.setdefault("archive", InMemoryLoadArchive())
    kwargs.setdefault("store", DurableStateStore(None))
    return ControllerSupervisor(platform, **kwargs)


def run_until_recovered(supervisor, start, limit=30):
    """Tick from ``start`` until a replacement leader is active."""
    now = start
    while supervisor.active is None and now < start + limit:
        supervisor.tick(now)
        now += 1
    assert supervisor.active is not None, "supervisor never recovered"
    return now


class TestCrashRecovery:
    def test_replacement_inherits_journalled_soft_state(self, platform):
        events = published(platform.bus, TOPIC_SUPERVISION)
        supervisor = make_supervisor(platform)
        supervisor.tick(START)
        supervisor.active.protection.protect(["host:Weak2"], START + 1)
        request = supervisor.active.alerts.approvals.submit(
            START + 1, "scaleOut APP on Weak2?"
        )
        supervisor.active._register_pending_restart("APP", "Weak2")
        old_name = supervisor.active.executor.name
        seq_at_crash = supervisor.store.journal.last_seq

        supervisor.crash_active(START + 1, down_minutes=5)
        assert supervisor.active is None
        assert supervisor.report_failure("APP#1", START + 1) is None

        run_until_recovered(supervisor, START + 1)
        replacement = supervisor.active
        assert replacement.executor.name != old_name
        assert replacement.protection.is_protected("host:Weak2", START + 8)
        pending = {r.request_id for r in replacement.alerts.approvals.requests if r.pending}
        assert request.request_id in pending
        # the replacement inherited the pending restart and, finding APP
        # healthy, resolved it — the restart-done record postdates the crash
        resolved = [
            record
            for record in supervisor.store.journal.since(seq_at_crash)
            if record.kind == "restart-done"
            and record.data["service_name"] == "APP"
        ]
        assert resolved, "pending restart was not inherited by the replacement"
        kinds = [event.kind.value for event in events]
        assert kinds.count("controller-crash") == 1
        assert kinds.count("controller-recovery") == 1

    def test_recovery_waits_for_the_old_lease_to_expire(self, platform):
        supervisor = make_supervisor(platform)
        assert supervisor.lease_ttl == 5
        supervisor.tick(START)  # lease valid through START + 5
        supervisor.crash_active(START + 1, down_minutes=1)
        # the restart timer elapses at START + 2, but the dead leader's
        # lease fences out any successor until it expires
        for now in range(START + 1, START + 5):
            supervisor.tick(now)
            assert supervisor.active is None
        supervisor.tick(START + 5)
        assert supervisor.active is not None
        assert supervisor.downtime_minutes == 5

    def test_new_leadership_epoch_bumps_the_fencing_token(self, platform):
        supervisor = make_supervisor(platform)
        supervisor.tick(START)
        assert supervisor.active.executor.fencing_token == 1
        supervisor.crash_active(START + 1, down_minutes=3)
        run_until_recovered(supervisor, START + 1)
        assert supervisor.active.executor.fencing_token == 2
        assert platform.fence.token == 2

    def test_monitoring_outages_survive_the_failover(self, platform):
        supervisor = make_supervisor(platform)
        supervisor.tick(START)
        supervisor.degrade_monitoring("Weak1", START + 40)
        supervisor.crash_active(START + 1, down_minutes=3)
        run_until_recovered(supervisor, START + 1)
        assert supervisor.active._monitor_outages.get("Weak1") == START + 40


class TestHotStandbyFencing:
    def _promote_over_partition(self, platform, partition_minutes=15):
        supervisor = make_supervisor(platform, standby=True)
        supervisor.tick(START)
        supervisor.partition_active(START + 1, partition_minutes)
        now = START + 1
        while supervisor._stale is None and now <= START + 1 + partition_minutes:
            supervisor.tick(now)
            now += 1
        assert supervisor._stale is not None, "the standby was never promoted"
        return supervisor, now

    def test_partitioned_leader_is_superseded_at_lease_expiry(self, platform):
        events = published(platform.bus, TOPIC_SUPERVISION)
        supervisor, now = self._promote_over_partition(platform)
        # promotion waited exactly for the lease to run out, no longer
        assert now - 1 == START + supervisor.lease_ttl
        stale, _heal_at = supervisor._stale
        assert supervisor.active is not stale
        assert supervisor.active.executor.fencing_token == 2
        assert stale.executor.fencing_token == 1
        assert platform.fence.token == 2
        kinds = [event.kind.value for event in events]
        assert "leader-partition" in kinds
        assert "leader-failover" in kinds

    def test_deposed_leaders_actions_are_fenced_not_applied(self, platform):
        outcomes = executed(platform)
        supervisor, _ = self._promote_over_partition(platform)
        stale, _ = supervisor._stale
        instances_before = {
            service.name: len(service.running_instances)
            for service in platform.services.values()
        }
        with pytest.raises(FencedActionError):
            stale.executor.execute(
                Action.SCALE_OUT, "APP", target_host="Weak2"
            )
        instances_after = {
            service.name: len(service.running_instances)
            for service in platform.services.values()
        }
        assert instances_after == instances_before, "fenced action mutated"
        assert stale.executor.fenced_count == 1
        fenced = [o for o in outcomes if o.status == "fenced"]
        assert len(fenced) == 1
        assert "fencing guard" in fenced[0].note

    def test_partition_heals_and_the_stale_leader_demotes(self, platform):
        events = published(platform.bus, TOPIC_SUPERVISION)
        supervisor, now = self._promote_over_partition(platform, 10)
        heal_at = START + 1 + 10
        for minute in range(now, heal_at + 1):
            supervisor.tick(minute)
        assert supervisor._stale is None
        assert not supervisor.fault_in_progress(heal_at + 1)
        kinds = [event.kind.value for event in events]
        assert "partition-healed" in kinds

    def test_standby_failover_is_faster_than_a_restart(self, platform):
        events = published(platform.bus, TOPIC_SUPERVISION)
        supervisor = make_supervisor(platform, standby=True)
        supervisor.tick(START)
        supervisor.crash_active(START + 1, down_minutes=60)
        run_until_recovered(supervisor, START + 1)
        # the standby takes over at lease expiry, not after the hour
        assert supervisor.downtime_minutes <= supervisor.lease_ttl
        kinds = [event.kind.value for event in events]
        assert "leader-failover" in kinds


class TestInFlightIntentReconciliation:
    def _intent(self, supervisor, instance, target_host, intent_id):
        supervisor.store.journal.append(
            "action-intent",
            intent_id=intent_id,
            time=START + 1,
            action=Action.MOVE.value,
            service_name=instance.service_name,
            instance_id=instance.instance_id,
            target_host=target_host,
            note="in flight at the crash",
        )

    def _commits_for(self, supervisor, intent_id):
        return [
            record.data["status"]
            for record in supervisor.store.journal.since(0)
            if record.kind == "action-commit"
            and record.data["intent_id"] == intent_id
        ]

    def test_completed_move_is_recognized_not_redone(self, platform):
        supervisor = make_supervisor(platform)
        supervisor.tick(START)
        instance = platform.service("APP").running_instances[0]
        # the move completed (instance sits on the target) but the
        # commit record was lost with the crash
        self._intent(
            supervisor, instance, instance.host_name, "controller-1:000099"
        )
        supervisor.crash_active(START + 1, down_minutes=3)
        run_until_recovered(supervisor, START + 1)
        assert self._commits_for(supervisor, "controller-1:000099") == ["ok"]

    def test_lost_instance_is_compensated_exactly_once(self, platform):
        supervisor = make_supervisor(platform)
        supervisor.tick(START)
        instance = platform.service("APP").running_instances[0]
        self._intent(supervisor, instance, "Weak2", "controller-1:000100")
        # detached from the source, never confirmed on the target: the
        # instance is gone when the replacement leader looks
        platform.crash_instance(instance.instance_id)
        supervisor.crash_active(START + 1, down_minutes=3)
        run_until_recovered(supervisor, START + 1)
        assert self._commits_for(supervisor, "controller-1:000100") == [
            "compensated"
        ]
        assert platform.service("APP").running_instances, (
            "compensation must restore the lost instance"
        )
        # a second crash/recovery cycle finds nothing left to reconcile
        supervisor.crash_active(START + 10, down_minutes=3)
        run_until_recovered(supervisor, START + 10)
        assert self._commits_for(supervisor, "controller-1:000100") == [
            "compensated"
        ]

    def test_unstarted_move_aborts(self, platform):
        supervisor = make_supervisor(platform)
        supervisor.tick(START)
        instance = platform.service("APP").running_instances[0]
        # journalled, but the platform never detached the source
        self._intent(supervisor, instance, "Weak2", "controller-1:000101")
        supervisor.crash_active(START + 1, down_minutes=3)
        run_until_recovered(supervisor, START + 1)
        assert self._commits_for(supervisor, "controller-1:000101") == [
            "aborted"
        ]


class TestDurableStoreIntegration:
    def test_a_new_supervisor_recovers_from_the_same_directory(
        self, platform, tmp_path
    ):
        store = DurableStateStore(tmp_path / "state")
        supervisor = make_supervisor(platform, store=store)
        supervisor.tick(START)
        supervisor.active.protection.protect(["host:Weak2"], START + 1)
        supervisor.tick(START + 1)
        store.close()

        # a brand-new process: nothing shared but the directory
        reopened = DurableStateStore(tmp_path / "state")
        successor = make_supervisor(platform, store=reopened)
        assert successor.active.protection.is_protected(
            "host:Weak2", START + 5
        )
        # the successor is a later replica with a later fencing token
        successor.tick(START + 10)
        assert successor.active.executor.fencing_token == 2


class TestUnsupervised:
    def test_an_unsupervised_replica_set_writes_no_journal_lease_or_snapshot(
        self, platform, monkeypatch
    ):
        """Without a store the one replica journals nothing, takes no
        lease and snapshots nothing, also while it acts; the same minutes
        supervised do all three."""
        outcomes = executed(platform)
        from repro.core.state import LeaseStore, SnapshotStore, StateJournal
        from tests.core.conftest import set_demand

        def run(**kwargs):
            writes = []
            for owner, name in (
                (StateJournal, "append"),
                (LeaseStore, "acquire"),
                (LeaseStore, "renew"),
                (SnapshotStore, "save"),
            ):
                original = getattr(owner, name)

                def spy(*args, _name=name, _original=original, **kw):
                    writes.append(_name)
                    return _original(*args, **kw)

                monkeypatch.setattr(owner, name, spy)
            supervisor = ControllerSupervisor(platform, **kwargs)
            for now in range(START, START + 15):
                set_demand(platform, "Weak1", 0.95)
                supervisor.tick(now)
            monkeypatch.undo()
            return supervisor, writes

        unsupervised, writes = run()
        assert outcomes, "the replica took no action"
        assert writes == []
        assert unsupervised.replicas == [unsupervised.active]
        assert unsupervised.active.journal is None
        assert unsupervised.active.executor.name == "exec"
        assert unsupervised.active.executor.fencing_token is None
        __, writes = run(store=DurableStateStore(None))
        assert {"append", "acquire", "save"} <= set(writes)
