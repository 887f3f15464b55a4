"""Short-term load forecasting and proactive (feed-forward) control.

The reactive controller waits for the watch-time-confirmed breach of the
70% threshold.  With a trustworthy daily pattern from the load archive,
imminent overloads can instead be anticipated: the
:class:`ProactiveScaler` scans each supervised host's forecast a little
ahead and triggers the regular decision machinery *before* the load
materializes, trimming the "remaining short overload peaks at the
beginning [that] stem from the watchTime" (Section 5.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.autoglobe import AutoGlobeController
from repro.forecasting.patterns import DailyPattern, extract_daily_pattern
from repro.monitoring.archive import LoadArchive
from repro.monitoring.lms import Situation, SituationKind
from repro.serviceglobe.actions import ActionOutcome

__all__ = ["LoadForecaster", "ProactiveScaler"]


class LoadForecaster:
    """Per-subject daily-pattern forecasts over an archive."""

    def __init__(
        self,
        archive: LoadArchive,
        metric: str = "cpu",
        bucket_minutes: int = 15,
        min_samples: int = 24 * 60,
        min_periodicity: float = 0.5,
    ) -> None:
        self.archive = archive
        self.metric = metric
        self.bucket_minutes = bucket_minutes
        self.min_samples = min_samples
        self.min_periodicity = min_periodicity
        self._patterns: Dict[str, DailyPattern] = {}
        self._fitted_at: Dict[str, int] = {}

    def refit(self, subject: str, now: int) -> Optional[DailyPattern]:
        """(Re)fit the subject's pattern on all history up to ``now``."""
        history = self.archive.history(subject, self.metric, 0, now)
        if len(history) < self.min_samples:
            return None
        pattern = extract_daily_pattern(history, self.bucket_minutes)
        self._patterns[subject] = pattern
        self._fitted_at[subject] = now
        return pattern

    def predict(self, subject: str, minute: int) -> Optional[float]:
        """Forecast load of ``subject`` at ``minute``; ``None`` if the
        subject has no trustworthy pattern yet."""
        pattern = self._patterns.get(subject)
        if pattern is None or pattern.periodicity < self.min_periodicity:
            return None
        return pattern.value_at(minute)

    def predict_window(
        self, subject: str, start: int, duration: int
    ) -> Optional[List[float]]:
        pattern = self._patterns.get(subject)
        if pattern is None or pattern.periodicity < self.min_periodicity:
            return None
        return [pattern.value_at(start + offset) for offset in range(duration)]


class ProactiveScaler:
    """Feed-forward add-on for the AutoGlobe controller.

    Call :meth:`tick` once per minute *after* the reactive controller's
    tick.  Every ``refit_interval`` minutes the daily patterns of the
    supervised *services* are refitted from the load archive ("predicting
    the future load of services based on historic data stored in the load
    archive", Section 7) — service demand patterns are stable under
    relocation, whereas per-host patterns are polluted by the
    controller's own actions.  When a service's forecast breaches the
    overload threshold within ``lookahead`` minutes, a synthetic
    ``serviceOverloaded`` situation for its most loaded instance is
    injected into the regular decision loop, with the load variables
    projected to the predicted level.

    Anticipatory actions deliberately skip protection mode and respect a
    per-service ``cooldown`` instead: the reactive path must remain free
    to remedy the real breach if the anticipation falls short.
    """

    def __init__(
        self,
        controller: AutoGlobeController,
        lookahead: int = 30,
        refit_interval: int = 12 * 60,
        forecaster: Optional[LoadForecaster] = None,
        cooldown: int = 120,
    ) -> None:
        self.controller = controller
        self.lookahead = lookahead
        self.refit_interval = refit_interval
        self.forecaster = forecaster if forecaster is not None else LoadForecaster(
            controller.archive, metric="demand"
        )
        #: minimum minutes between anticipatory actions for the same host
        self.cooldown = cooldown
        self._last_refit: Optional[int] = None
        self._last_anticipated: Dict[str, int] = {}
        self.anticipations: List[Situation] = []

    def _refit_all(self, now: int) -> None:
        for service_name in self.controller.platform.services:
            self.forecaster.refit(f"service:{service_name}", now)

    def tick(self, now: int) -> List[ActionOutcome]:
        if (
            self._last_refit is None
            or now - self._last_refit >= self.refit_interval
        ):
            self._refit_all(now)
            self._last_refit = now
        threshold = self.controller.settings.overload_threshold
        platform = self.controller.platform
        outcomes: List[ActionOutcome] = []
        for service_name, definition in platform.services.items():
            instances = definition.running_instances
            if not instances:
                continue
            if self.controller.protection.is_protected(service_name, now):
                continue
            last = self._last_anticipated.get(service_name)
            if last is not None and now - last < self.cooldown:
                continue
            if platform.service_load(service_name) > threshold:
                continue  # the reactive path owns a live breach
            window = self.forecaster.predict_window(
                f"service:{service_name}", now, self.lookahead
            )
            if window is None:
                continue
            # the forecast is total service *demand* (performance-index
            # units); a breach is imminent when it would exceed the
            # threshold share of the capacity currently serving it
            capacity = platform.service_capacity(service_name)
            if capacity <= 0.0:
                continue
            predicted_peak = min(max(window) / capacity, 1.0)
            if predicted_peak <= threshold:
                continue
            instance = max(
                instances,
                key=lambda i: (platform.host(i.host_name).cpu_load, i.instance_id),
            )
            situation = Situation(
                kind=SituationKind.SERVICE_OVERLOADED,
                subject=instance.instance_id,
                service_name=service_name,
                detected_at=now,
                observed_mean=predicted_peak,
            )
            self.anticipations.append(situation)
            self._last_anticipated[service_name] = now
            ranked = self._rank_with_predicted_load(instance, predicted_peak, now)
            # anticipatory actions use the normal protection mode: the
            # protection window shields the pre-started instance from the
            # idle trigger until the predicted surge arrives, and with
            # lookahead <= protection time it expires right around the
            # breach, leaving the reactive path free to top up
            outcome = self.controller.decision_loop.handle(situation, ranked, now)
            if outcome is not None:
                outcomes.append(outcome)
        return outcomes

    def _rank_with_predicted_load(self, instance, predicted_peak: float, now: int):
        """Action ranking for an anticipated breach.

        The reactive path initializes the load variables with watch-time
        means; here nothing is loaded *yet*, so the service-driven load
        variables are projected to the forecast level.
        """
        from repro.core.action_selection import ActionContext

        base = self.controller._context_for_instance(
            instance, SituationKind.SERVICE_OVERLOADED, now
        )
        measurements = dict(base.measurements)
        measurements["serviceLoad"] = predicted_peak
        measurements["instanceLoad"] = predicted_peak
        # the host will carry at least the service's predicted level
        measurements["cpuLoad"] = max(measurements["cpuLoad"], predicted_peak)
        context = ActionContext(base.service_name, base.instance_id, measurements)
        return self.controller.action_selector.rank(
            SituationKind.SERVICE_OVERLOADED, context
        )
