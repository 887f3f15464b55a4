"""Failure injection.

"Failure situations like a program crash are remedied for example with
a restart" (Section 2) — this module generates those situations so the
self-healing path can be exercised under realistic churn:

* **instance crashes**: the instance dies instantly; surviving peers
  absorb its users, and the controller restarts it via
  :meth:`~repro.core.autoglobe.AutoGlobeController.report_failure`;
* **instance hangs**: the instance keeps holding its resources but stops
  responding; the heartbeat detector notices after its miss threshold
  and the controller kills and restarts it;
* **host crashes**: every resident instance dies and the host's capacity
  leaves the landscape until it reboots (a sampled number of minutes
  later) — the controller must restart the victims *elsewhere*;
* **monitoring outages**: a host keeps serving but its load reports stop
  arriving for a sampled number of minutes; the controller's staleness
  and coverage guards must ride out the gap instead of mistaking it for
  zero load.

Fault times are drawn per subject-minute with fixed probabilities
(a geometric approximation of exponential MTBF), deterministic under a
seed and independent of the workload model's RNG.  Subjects are rolled
in sorted order (hosts by name, instances by id), so fault sequences do
not depend on platform iteration order.

With the controller disabled (the chaos baseline) nothing heals: crashed
instances stay dead, which is exactly the availability gap the chaos
scenario measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.federation import FederatedControlPlane

# FaultRecord now lives with the other telemetry records; re-exported
# here so historic importers (`from repro.sim.faults import FaultRecord`)
# keep working.
from repro.telemetry.records import FaultRecord

__all__ = ["FaultRecord", "FaultInjector"]


@dataclass
class FaultInjector:
    """Randomly injures service instances, hosts and the monitoring plane.

    Parameters
    ----------
    controller:
        The control plane whose platform is attacked; its failure
        detection is used for hangs and its self-healing path for
        crashes.  When the controller is disabled, faults are still
        injected but nothing heals — the measured baseline of the chaos
        scenario.
    crash_probability / hang_probability:
        Per instance-minute probabilities.  The defaults correspond to a
        mean time between failures of roughly two weeks per instance —
        rare, as in a real computing center.
    host_crash_probability:
        Per host-minute probability of a full host crash; off by
        default.  A crashed host reboots after a duration drawn
        uniformly from ``host_reboot_minutes``.
    monitor_outage_probability:
        Per host-minute probability that the host's load reports stop
        arriving for a duration drawn uniformly from
        ``monitor_outage_minutes``; off by default.
    seed:
        RNG seed; injections are deterministic given a seed.
    """

    controller: FederatedControlPlane
    crash_probability: float = 1.0 / (14 * 24 * 60)
    hang_probability: float = 1.0 / (14 * 24 * 60)
    host_crash_probability: float = 0.0
    host_reboot_minutes: Tuple[int, int] = (30, 90)
    monitor_outage_probability: float = 0.0
    monitor_outage_minutes: Tuple[int, int] = (3, 15)
    #: per-minute probability the controller process dies (restarting
    #: after a duration drawn from ``controller_restart_minutes``) or its
    #: leader gets partitioned from the lease store for a duration drawn
    #: from ``leader_partition_minutes``; both require a plane with
    #: supervised replicas
    controller_crash_probability: float = 0.0
    controller_restart_minutes: Tuple[int, int] = (5, 15)
    leader_partition_probability: float = 0.0
    leader_partition_minutes: Tuple[int, int] = (10, 20)
    seed: int = 99

    def __post_init__(self) -> None:
        for name in (
            "crash_probability",
            "hang_probability",
            "host_crash_probability",
            "monitor_outage_probability",
            "controller_crash_probability",
            "leader_partition_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in (
            "host_reboot_minutes",
            "monitor_outage_minutes",
            "controller_restart_minutes",
            "leader_partition_minutes",
        ):
            low, high = getattr(self, name)
            if low < 1 or high < low:
                raise ValueError(f"{name} must be a (low, high) range with 1 <= low <= high")
        if (
            self.controller_crash_probability > 0.0
            or self.leader_partition_probability > 0.0
        ) and not self.controller.stores:
            raise ValueError(
                "controller faults require supervised replicas "
                "(an unsupervised controller cannot crash and recover)"
            )
        self._rng = np.random.default_rng(self.seed)
        #: host name -> minute its reboot completes
        self._reboot_at: Dict[str, int] = {}

    def _domain_of(self, host_name: str) -> str:
        """Control domain of a host for fault-record stamping.

        Empty in single-domain deployments so existing runs stay
        byte-identical; in federated ones the record names the shard the
        fault hit.
        """
        landscape = self.controller.platform.landscape
        if not host_name or not getattr(landscape, "is_federated", False):
            return ""
        try:
            return landscape.domain_of(host_name)
        except KeyError:
            return ""

    def _record_fault(
        self, record: FaultRecord, injected: List[FaultRecord]
    ) -> None:
        """Publish one fault on the ``faults`` topic (the run's result
        collector keeps it) and return it from this tick."""
        injected.append(record)
        self.controller.platform.bus.publish(record)

    # -- the per-minute injection pass ---------------------------------------------------

    def tick(self, now: int) -> List[FaultRecord]:
        """Possibly injure subjects this minute; returns the new faults.

        Crashes are reported to the controller immediately (the platform
        notices a dead process right away); hangs only suppress
        heartbeats — detection is the heartbeat detector's job.  Host
        recoveries happen before new faults so a rebooted host can be
        injured again the same minute it returns.
        """
        injected: List[FaultRecord] = []
        if (
            self.controller_crash_probability > 0.0
            or self.leader_partition_probability > 0.0
        ):
            # rolled first: whether the controller is alive this minute
            # shapes how every other fault below plays out
            self._injure_controller(now, injected)
        self._recover_hosts(now, injected)
        if self.host_crash_probability > 0.0:
            self._crash_hosts(now, injected)
        if self.monitor_outage_probability > 0.0:
            self._degrade_monitoring(now, injected)
        self._injure_instances(now, injected)
        return injected

    def _injure_controller(self, now: int, injected: List[FaultRecord]) -> None:
        supervisor = self.controller
        if supervisor.fault_in_progress(now):
            return  # one controller fault at a time
        if self.controller_crash_probability > 0.0 and (
            float(self._rng.random()) < self.controller_crash_probability
        ):
            low, high = self.controller_restart_minutes
            minutes = int(self._rng.integers(low, high + 1))
            # the plane routes the crash to one supervised domain and
            # returns its name ("" in a flat run)
            domain = supervisor.crash_active(now, minutes) or ""
            self._record_fault(
                FaultRecord(now, "", "", "", "controller-crash", domain),
                injected,
            )
            return
        if self.leader_partition_probability > 0.0 and (
            float(self._rng.random()) < self.leader_partition_probability
        ):
            low, high = self.leader_partition_minutes
            minutes = int(self._rng.integers(low, high + 1))
            domain = supervisor.partition_active(now, minutes) or ""
            self._record_fault(
                FaultRecord(now, "", "", "", "leader-partition", domain),
                injected,
            )

    def _recover_hosts(self, now: int, injected: List[FaultRecord]) -> None:
        platform = self.controller.platform
        for host_name in sorted(self._reboot_at):
            if self._reboot_at[host_name] <= now:
                del self._reboot_at[host_name]
                platform.recover_host(host_name)
                self._record_fault(
                    FaultRecord(
                        now, "", "", host_name, "host-recovery",
                        self._domain_of(host_name),
                    ),
                    injected,
                )

    def _crash_hosts(self, now: int, injected: List[FaultRecord]) -> None:
        platform = self.controller.platform
        for host_name in sorted(platform.hosts):
            if not platform.hosts[host_name].up:
                continue
            if float(self._rng.random()) >= self.host_crash_probability:
                continue
            victims = platform.crash_host(host_name)
            low, high = self.host_reboot_minutes
            self._reboot_at[host_name] = now + int(
                self._rng.integers(low, high + 1)
            )
            self._record_fault(
                FaultRecord(
                    now, "", "", host_name, "host-crash",
                    self._domain_of(host_name),
                ),
                injected,
            )
            for victim in victims:
                # the heartbeat detector must not later report an
                # instance the crash already swept away
                self.controller.forget(victim.instance_id)
                if self.controller.enabled:
                    self.controller.report_failure(victim.instance_id, now)

    def _degrade_monitoring(self, now: int, injected: List[FaultRecord]) -> None:
        platform = self.controller.platform
        for host_name in sorted(platform.hosts):
            if not platform.hosts[host_name].up:
                continue  # a down host has no reports to lose
            if float(self._rng.random()) >= self.monitor_outage_probability:
                continue
            low, high = self.monitor_outage_minutes
            until = now + int(self._rng.integers(low, high + 1)) - 1
            self.controller.degrade_monitoring(host_name, until)
            self._record_fault(
                FaultRecord(
                    now, "", "", host_name, "monitor-outage",
                    self._domain_of(host_name),
                ),
                injected,
            )

    def _injure_instances(self, now: int, injected: List[FaultRecord]) -> None:
        platform = self.controller.platform
        # sorted by instance id: fault sequences are deterministic under a
        # seed regardless of platform iteration order
        instances = sorted(
            platform.all_instances(), key=lambda i: i.instance_id
        )
        # read once: within the pass only the current instance's own
        # hang joins the set
        suppressed = self.controller.suppressed()
        for instance in instances:
            if instance.instance_id in suppressed:
                continue
            roll = float(self._rng.random())
            if roll < self.crash_probability:
                self._record_fault(
                    FaultRecord(
                        now, instance.instance_id, instance.service_name,
                        instance.host_name, "crash",
                        self._domain_of(instance.host_name),
                    ),
                    injected,
                )
                if self.controller.enabled:
                    self.controller.report_failure(instance.instance_id, now)
                else:
                    platform.crash_instance(instance.instance_id)
            elif roll < self.crash_probability + self.hang_probability:
                self._record_fault(
                    FaultRecord(
                        now, instance.instance_id, instance.service_name,
                        instance.host_name, "hang",
                        self._domain_of(instance.host_name),
                    ),
                    injected,
                )
                self.controller.suppress(instance.instance_id)

    # -- durability (kill -9 and resume) -----------------------------------------------

    def snapshot_state(self) -> Dict[str, object]:
        """JSON-able injector state so a resumed run draws the same faults."""
        return {
            "rng": self._rng.bit_generator.state,
            "reboot_at": dict(self._reboot_at),
        }

    def restore_state(self, payload: Dict[str, object]) -> None:
        self._rng.bit_generator.state = payload["rng"]
        self._reboot_at = {
            host: int(minute)
            for host, minute in payload.get("reboot_at", {}).items()  # type: ignore[union-attr]
        }
