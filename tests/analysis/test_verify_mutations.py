"""Mutation tests: the verifier must catch deliberately broken safety gear.

Each test drives the *real* execution machinery (Platform,
ActionExecutor, FederatedControlPlane) deterministically — no chaos
timing — first proving the unmutated path verifies clean, then breaking
one safety mechanism and asserting the matching AG3xx code fires:

* disable :class:`FencingGuard` validation  -> AG301
* skip the escrow commit barrier            -> AG302
* replay a journal (feed the stream twice)  -> AG303
"""

from typing import List, Optional

import pytest

from repro.analysis.verify import TraceVerifier
from repro.config.builtin import paper_landscape, partition_landscape
from repro.config.model import Action
from repro.core.federation import FederatedControlPlane
from repro.serviceglobe.actions import FencedActionError, FencingGuard
from repro.serviceglobe.executor import ActionExecutor
from repro.serviceglobe.platform import Platform
from repro.sim.scenarios import Scenario, scenario_landscape
from repro.telemetry.records import SupervisionEvent, SupervisionEventKind
from repro.telemetry.trace import TraceEvent


def _codes(report) -> List[str]:
    return [d.code for d in report.diagnostics]


def _mobile_landscape():
    return scenario_landscape(paper_landscape(), Scenario.FULL_MOBILITY, 1.0)


def _scale_out_target(platform: Platform, service_name: str) -> str:
    """A host that can take one more instance of the service."""
    used = {
        instance.host_name
        for instance in platform.all_instances()
        if instance.service_name == service_name
    }
    for host in platform.hosts.values():
        if host.name not in used and platform.can_host(service_name, host.name) is None:
            return host.name
    raise RuntimeError(f"no spare host for {service_name}")


def _publish_epoch(platform: Platform, now: int, token: int, leader: str) -> None:
    """What ``LeaderFailover._acquire_lease`` does on a token change."""
    platform.fence.advance(token)
    platform.bus.publish(
        SupervisionEvent(
            now,
            SupervisionEventKind.LEADER_EPOCH,
            leader,
            "",
            fencing_token=token,
        )
    )


class TestFencingMutation:
    """AG301: a stale leader's action applied after a newer epoch."""

    def _run_epoch_handover(self, platform: Platform) -> Optional[str]:
        """Scale out under epoch 1, hand over to epoch 2, retry as the
        deposed leader.  Returns the stale attempt's status, or ``None``
        if the fencing guard rejected it (the healthy outcome)."""
        _publish_epoch(platform, 1, 1, "controller-1")
        deposed = ActionExecutor(platform, name="controller-1")
        deposed.fencing_token = 1
        outcome = deposed.execute(
            Action.SCALE_OUT, "FI", target_host=_scale_out_target(platform, "FI")
        )
        assert outcome.status == "ok"
        _publish_epoch(platform, 2, 2, "controller-2")
        try:
            stale = deposed.execute(
                Action.SCALE_OUT, "FI", target_host=_scale_out_target(platform, "FI")
            )
        except FencedActionError:
            return None
        return stale.status

    def test_working_guard_verifies_clean(self):
        platform = Platform(_mobile_landscape())
        verifier = TraceVerifier()
        verifier.attach(platform.bus)
        assert self._run_epoch_handover(platform) is None
        report = verifier.report("fencing-clean")
        assert report.clean, _codes(report)

    def test_disabled_guard_triggers_ag301(self, monkeypatch):
        monkeypatch.setattr(FencingGuard, "validate", lambda self, token: None)
        platform = Platform(_mobile_landscape())
        verifier = TraceVerifier()
        verifier.attach(platform.bus)
        # with validation gone, the stale epoch-1 action goes through
        assert self._run_epoch_handover(platform) == "ok"
        report = verifier.report("fencing-mutated")
        assert "AG301" in _codes(report)
        [finding] = [d for d in report.diagnostics if d.code == "AG301"]
        assert finding.details["token"] == 1
        assert finding.details["watermark"] == 2

    def test_epoch_event_alone_advances_the_watermark(self):
        # the LEADER_EPOCH record must move the watermark even before
        # the new leader applies anything — that is its entire point
        platform = Platform(_mobile_landscape())
        verifier = TraceVerifier()
        verifier.attach(platform.bus)
        _publish_epoch(platform, 1, 5, "controller-2")
        checker = verifier._checkers[0]
        assert checker._watermarks[""] == 5
        verifier.report("epoch-only")


class _BrokenBarrierPlatform(Platform):
    """A platform whose move-fault hook silently never installs.

    ``FederatedControlPlane._escrowed_move`` publishes COMMIT from
    inside that hook, so on this platform the commit barrier never runs
    — exactly the race AG302 exists to catch.
    """

    @property
    def move_fault_hook(self):
        return None

    @move_fault_hook.setter
    def move_fault_hook(self, hook):
        pass


class TestEscrowBarrierMutation:
    """AG302: attach without a commit in its causal past."""

    def _escrowed_relocation(self, platform_cls):
        landscape = partition_landscape(_mobile_landscape(), 2)
        platform = platform_cls(landscape)
        verifier = TraceVerifier()
        verifier.attach(platform.bus)
        plane = FederatedControlPlane(platform)
        for shard in plane.shards.values():
            for instance in shard.platform.all_instances():
                spec = platform.service(instance.service_name).spec
                if not spec.constraints.allows(Action.MOVE):
                    continue
                occupied = {
                    other.host_name
                    for other in platform.all_instances()
                    if other.service_name == instance.service_name
                }
                candidates = [
                    host
                    for host in plane._foreign_candidates(shard.domain, instance)
                    if host.name not in occupied
                ]
                if not candidates:
                    continue
                target = candidates[0].name
                outcome = plane._escrowed_move(
                    shard, instance, target, plane.host_domains[target], 10
                )
                assert outcome.status == "ok"
                return verifier
        pytest.fail("no cross-domain relocation candidate in the landscape")

    def test_intact_barrier_verifies_clean(self):
        verifier = self._escrowed_relocation(Platform)
        report = verifier.report("escrow-clean")
        assert report.clean, _codes(report)

    def test_skipped_commit_barrier_triggers_ag302(self):
        verifier = self._escrowed_relocation(_BrokenBarrierPlatform)
        report = verifier.report("escrow-mutated")
        assert "AG302" in _codes(report)
        [finding] = [d for d in report.diagnostics if d.code == "AG302"]
        assert "commit" in finding.message


class TestReplayMutation:
    """AG303: the same applied action observed twice (journal replay)."""

    def _one_action_events(self) -> List[TraceEvent]:
        platform = Platform(_mobile_landscape())
        events: List[TraceEvent] = []
        verifier = TraceVerifier()
        original_feed = verifier.feed
        verifier.feed = lambda event: (events.append(event), original_feed(event))
        verifier.attach(platform.bus)
        executor = ActionExecutor(platform, name="controller-1")
        outcome = executor.execute(
            Action.SCALE_OUT, "FI", target_host=_scale_out_target(platform, "FI")
        )
        assert outcome.status == "ok"
        verifier.detach()
        assert events
        return events

    def test_single_application_verifies_clean(self):
        events = self._one_action_events()
        verifier = TraceVerifier()
        for event in events:
            verifier.feed(event)
        report = verifier.report("replay-clean", complete=True)
        assert report.clean, _codes(report)

    def test_replayed_journal_triggers_ag303(self):
        events = self._one_action_events()
        verifier = TraceVerifier()
        for event in events:
            verifier.feed(event)
        offset = max(event.seq for event in events)
        for event in events:  # the journal replayed after a crash
            verifier.feed(
                TraceEvent(
                    seq=event.seq + offset,
                    topic=event.topic,
                    record=event.record,
                )
            )
        report = verifier.report("replay-mutated", complete=True)
        assert "AG303" in _codes(report)
        [finding] = [d for d in report.diagnostics if d.code == "AG303"]
        assert finding.details["duplicate_seq"] > finding.details["first_seq"]
