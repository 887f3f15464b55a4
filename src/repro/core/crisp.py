"""A crisp threshold-rule controller (comparison baseline).

The related work the paper discusses (FlexFrame, IBM Dynamic
Infrastructure, Sun N1) manages infrastructures with crisp,
"mostly rule-based" policies that are "not as flexible as our fuzzy
controller".  This module implements such a baseline with the same
observation machinery (thresholds, watch times, protection) but
hard-coded crisp decisions:

* overload  -> always scale out to the least-loaded feasible host
  (falling back to scale-up, then move),
* idle      -> always scale in.

There is no graded applicability: every breach produces the same action
preference regardless of how powerful the host is, how many instances
exist, or how the service's own load compares to the host's.  The
ablation benchmark compares it against the fuzzy controller under
identical workloads.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config.model import Action, ControllerSettings
from repro.core.alerts import AlertChannel
from repro.core.protection import ProtectionRegistry
from repro.serviceglobe.actions import ActionError, ActionOutcome
from repro.serviceglobe.platform import Platform

__all__ = ["CrispThresholdController"]

#: Fixed preference order on overload: the baseline always tries these.
_OVERLOAD_ORDER = (Action.SCALE_OUT, Action.SCALE_UP, Action.MOVE)


class CrispThresholdController:
    """Threshold-rule controller with the AutoGlobe tick interface."""

    def __init__(
        self,
        platform: Platform,
        settings: Optional[ControllerSettings] = None,
        enabled: bool = True,
    ) -> None:
        self.platform = platform
        self.settings = settings if settings is not None else platform.landscape.controller
        self.enabled = enabled
        self.alerts = AlertChannel(platform.bus)
        self.protection = ProtectionRegistry(self.settings.protection_time)
        self._overload_streak: Dict[str, int] = {}
        self._idle_streak: Dict[str, int] = {}

    # -- helpers --------------------------------------------------------------------

    def _least_loaded_host(self, candidates) -> Optional[str]:
        if not candidates:
            return None
        return min(candidates, key=lambda h: (h.cpu_load, h.name)).name

    def _heaviest_instance(self, host):
        instances = host.running_instances
        if not instances:
            return None
        return max(instances, key=lambda i: (i.demand, i.instance_id))

    def _try_overload_actions(self, host, now: int) -> Optional[ActionOutcome]:
        from repro.core.constraints import candidate_hosts, verify_action

        instance = self._heaviest_instance(host)
        if instance is None:
            return None
        service_name = instance.service_name
        if self.protection.is_protected(service_name, now):
            return None
        for action in _OVERLOAD_ORDER:
            if verify_action(
                self.platform, action, service_name, instance.instance_id
            ) is not None:
                continue
            candidates = candidate_hosts(
                self.platform, action, service_name, instance.instance_id
            )
            target = self._least_loaded_host(candidates)
            if target is None:
                continue
            try:
                outcome = self.platform.execute(
                    action,
                    service_name,
                    instance_id=(
                        instance.instance_id if action is not Action.SCALE_OUT else None
                    ),
                    target_host=target,
                )
            except ActionError:
                continue
            self.protection.protect({service_name, host.name, target}, now)
            self.alerts.info(now, f"crisp controller executed {outcome}")
            return outcome
        self.alerts.escalate(now, f"crisp controller: no action for {host.name}")
        return None

    def _try_idle_action(self, host, now: int) -> Optional[ActionOutcome]:
        from repro.core.constraints import verify_action

        instance = self._heaviest_instance(host)
        if instance is None:
            return None
        service_name = instance.service_name
        if self.protection.is_protected(service_name, now):
            return None
        if verify_action(
            self.platform, Action.SCALE_IN, service_name, instance.instance_id
        ) is not None:
            return None
        try:
            outcome = self.platform.execute(
                Action.SCALE_IN, service_name, instance_id=instance.instance_id
            )
        except ActionError:
            return None
        self.protection.protect({service_name, host.name}, now)
        self.alerts.info(now, f"crisp controller executed {outcome}")
        return outcome

    # -- tick -----------------------------------------------------------------------------

    def tick(self, now: int) -> List[ActionOutcome]:
        self.platform.current_time = now
        outcomes: List[ActionOutcome] = []
        if not self.enabled:
            return outcomes
        for host_name, host in self.platform.hosts.items():
            load = host.cpu_load
            idle_threshold = self.settings.idle_threshold(host.performance_index)
            if load > self.settings.overload_threshold:
                self._overload_streak[host_name] = (
                    self._overload_streak.get(host_name, 0) + 1
                )
            else:
                self._overload_streak[host_name] = 0
            if load < idle_threshold and host.running_instances:
                self._idle_streak[host_name] = self._idle_streak.get(host_name, 0) + 1
            else:
                self._idle_streak[host_name] = 0

            if (
                self._overload_streak[host_name] >= self.settings.overload_watch_time
                and not self.protection.is_protected(host_name, now)
            ):
                outcome = self._try_overload_actions(host, now)
                if outcome is not None:
                    outcomes.append(outcome)
                self._overload_streak[host_name] = 0
            elif (
                self._idle_streak[host_name] >= self.settings.idle_watch_time
                and not self.protection.is_protected(host_name, now)
            ):
                outcome = self._try_idle_action(host, now)
                if outcome is not None:
                    outcomes.append(outcome)
                self._idle_streak[host_name] = 0
        return outcomes
