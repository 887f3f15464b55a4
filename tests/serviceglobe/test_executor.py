"""Tests for the failure-hardened action executor."""

import numpy as np
import pytest

from repro.config.model import Action
from repro.serviceglobe.actions import (
    ActionNotAllowed,
    TransientActionFailure,
)
from repro.serviceglobe.executor import (
    ActionExecutor,
    ExecutionFaults,
    RetryPolicy,
)
from repro.serviceglobe.platform import Platform
from tests.conftest import executed
from tests.core.conftest import build_landscape


@pytest.fixture
def platform():
    return Platform(build_landscape())


def _seed_failing_then_passing(probability: float) -> int:
    """A seed whose first roll fails and second roll passes the check."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        first, second = float(rng.random()), float(rng.random())
        if first < probability <= second:
            return seed
    raise AssertionError("no suitable seed found")


class TestPassThrough:
    def test_pristine_executor_matches_platform(self, platform):
        reference = Platform(build_landscape())
        expected = reference.execute(
            Action.SCALE_OUT, "APP", target_host="Weak2"
        )
        executor = ActionExecutor(platform)
        outcomes = executed(platform)
        outcome = executor.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        assert outcome.status == "ok"
        assert outcome.attempts == 1
        assert outcome.duration == 0.0
        assert outcome.action == expected.action
        assert outcome.target_host == expected.target_host
        assert len(platform.service("APP").running_instances) == 2
        assert outcomes == [outcome]
        assert executor.retry_count == 0
        assert executor.failure_count == 0

    def test_pristine_executor_consumes_no_randomness(self, platform):
        executor = ActionExecutor(platform, seed=3)
        before = executor._rng.bit_generator.state
        executor.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        assert executor._rng.bit_generator.state == before

    def test_permanent_errors_propagate_unchanged(self, platform):
        executor = ActionExecutor(platform)
        with pytest.raises(ActionNotAllowed):
            executor.execute(Action.SCALE_OUT, "DB", target_host="Big1")


class TestRetries:
    def test_transient_fault_retried_to_success(self, platform):
        outcomes = executed(platform)
        probability = 0.5
        seed = _seed_failing_then_passing(probability)
        executor = ActionExecutor(
            platform,
            faults=ExecutionFaults(failure_probability=probability),
            seed=seed,
        )
        outcome = executor.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        assert outcome.status == "ok"
        assert outcome.attempts == 2
        assert outcome.retried
        assert executor.retry_count == 1
        # a retried success includes the backoff pause in its duration
        assert outcome.duration == executor.policy.backoff_delay(1)
        assert len(platform.service("APP").running_instances) == 2
        # the successful outcome is the audit trail of the retry
        assert outcomes[-1] is outcome

    def test_exhausted_budget_raises_and_audits(self, platform):
        outcomes = executed(platform)
        executor = ActionExecutor(
            platform,
            policy=RetryPolicy(max_attempts=3),
            faults=ExecutionFaults(failure_probability=1.0),
        )
        with pytest.raises(TransientActionFailure):
            executor.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        assert executor.failure_count == 1
        assert len(platform.service("APP").running_instances) == 1
        failed = [a for a in outcomes if a.status == "failed"]
        assert len(failed) == 1
        assert failed[0].attempts == 3
        assert "gave up" in failed[0].note

    def test_permanent_error_is_not_retried(self, platform):
        outcomes = executed(platform)
        # non-pristine faults but the platform rejects the action outright:
        # the error must propagate on the first attempt, no retry loop
        executor = ActionExecutor(
            platform,
            faults=ExecutionFaults(latency_means={Action.SCALE_OUT: 0.5}),
        )
        with pytest.raises(ActionNotAllowed):
            executor.execute(Action.SCALE_OUT, "DB", target_host="Big1")
        assert executor.failure_count == 0
        assert all(a.status == "ok" for a in outcomes)

    def test_deterministic_timeout_exhausts_budget(self, platform):
        outcomes = executed(platform)
        executor = ActionExecutor(
            platform,
            policy=RetryPolicy(max_attempts=2, timeout=10.0),
            faults=ExecutionFaults(
                latency_means={Action.SCALE_OUT: 20.0}, latency_jitter=False
            ),
        )
        with pytest.raises(TransientActionFailure):
            executor.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        failed = [a for a in outcomes if a.status == "failed"]
        assert len(failed) == 1
        assert "timed out" in failed[0].note
        # two timed-out attempts plus one backoff pause
        assert failed[0].duration == 2 * 10.0 + executor.policy.backoff_delay(1)

    def test_latency_below_timeout_succeeds(self, platform):
        executor = ActionExecutor(
            platform,
            faults=ExecutionFaults(
                latency_means={Action.SCALE_OUT: 2.0}, latency_jitter=False
            ),
        )
        outcome = executor.execute(Action.SCALE_OUT, "APP", target_host="Weak2")
        assert outcome.status == "ok"
        assert outcome.duration == 2.0


class TestCompensation:
    def test_failed_move_commit_restores_source(self, platform):
        outcomes = executed(platform)
        instance = platform.service("APP").running_instances[0]
        instance.users = 40
        source = instance.host_name
        executor = ActionExecutor(
            platform,
            policy=RetryPolicy(max_attempts=2),
            faults=ExecutionFaults(commit_failure_probability=1.0),
        )
        with pytest.raises(TransientActionFailure):
            executor.execute(
                Action.MOVE,
                "APP",
                instance_id=instance.instance_id,
                target_host="Weak2",
            )
        # the instance is back on its source host with its users intact
        assert instance.host_name == source
        assert instance.running
        assert platform.service("APP").total_users == 40
        assert executor.compensation_count == 2
        compensated = [
            a for a in outcomes if a.status == "compensated"
        ]
        assert len(compensated) == 2
        assert all("rolled back" in a.note for a in compensated)

    def test_source_host_death_during_move_orphans_instance(self, platform):
        outcomes = executed(platform)
        instance = platform.service("APP").running_instances[0]
        source = instance.host_name

        def source_dies(moving, target_host):
            platform.crash_host(source)
            raise TransientActionFailure("target start failed")

        platform.move_fault_hook = source_dies
        executor = ActionExecutor(
            platform,
            faults=ExecutionFaults(commit_failure_probability=1.0),
        )
        with pytest.raises(TransientActionFailure) as info:
            executor.execute(
                Action.MOVE,
                "APP",
                instance_id=instance.instance_id,
                target_host="Weak2",
            )
        assert info.value.instance_lost
        # no retry: the instance is gone, recovery belongs to self-healing
        assert executor.compensation_count == 1
        assert [o.instance_id for o in platform.orphans] == [
            instance.instance_id
        ]
        lost = [a for a in outcomes if a.status == "compensated"]
        assert len(lost) == 1
        assert "source lost" in lost[0].note


class TestValidation:
    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)

    def test_bad_faults_rejected(self):
        with pytest.raises(ValueError):
            ExecutionFaults(failure_probability=1.5)
        with pytest.raises(ValueError):
            ExecutionFaults(commit_failure_probability=-0.1)
        with pytest.raises(ValueError):
            ExecutionFaults(latency_means={Action.MOVE: -1.0})

    def test_backoff_is_exponential_with_cap(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=2.0,
                             backoff_cap=8.0)
        assert [policy.backoff_delay(n) for n in range(1, 6)] == [
            1.0, 2.0, 4.0, 8.0, 8.0,
        ]
