"""``ResultCollector.observe`` reads the landscape state's columns.

The scalar accounting it replaced — each host's ``up``, ``cpu_load`` and
``running_instances`` properties, each service's running instances — is
kept below as the oracle: a shadow collector on the same platform folds
every minute of a seeded chaos run through it, and both must agree on
every count, episode and series.
"""

from repro.sim.results import DowntimeEpisode, OverloadEpisode, ResultCollector
from repro.sim.runner import SimulationRunner
from repro.sim.scenarios import Scenario, default_chaos


def scalar_observe(self, now):
    """``ResultCollector.observe`` before the column reads, verbatim."""
    self._ticks += 1
    for name in self._host_names:
        host = self._platform.hosts[name]
        if not host.up:
            self._host_down_minutes[name] += 1
        load = host.cpu_load
        if self._collect_host_series:
            self._series[name].append(load)
        degraded = load > self._sla.overload_level and bool(
            host.running_instances
        )
        if degraded:
            self._overload_minutes[name] += 1
            if self._open_episode_start[name] is None:
                self._open_episode_start[name] = now
        elif self._open_episode_start[name] is not None:
            start = self._open_episode_start[name]
            self._episodes.append(OverloadEpisode(name, start, now - 1))
            self._open_episode_start[name] = None
    for name in self._service_names:
        down = not self._platform.service(name).running_instances
        if down:
            self._down_minutes[name] += 1
            if self._open_down_since[name] is None:
                self._open_down_since[name] = now
        elif self._open_down_since[name] is not None:
            start = self._open_down_since[name]
            self._downtime_episodes.append(DowntimeEpisode(name, start, now - 1))
            self._open_down_since[name] = None


ACCOUNTS = (
    "_ticks", "_host_down_minutes", "_series", "_overload_minutes",
    "_episodes", "_open_episode_start", "_down_minutes", "_open_down_since",
    "_downtime_episodes",
)


def test_column_accounting_equals_the_scalar_oracle():
    runner = SimulationRunner(
        Scenario.FULL_MOBILITY, user_factor=1.15, horizon=8 * 60, seed=7,
        chaos=default_chaos(115),
    )
    collector = runner.collector
    shadow = ResultCollector(
        runner.platform, scenario_name="shadow", user_factor=1.15,
        sla=runner.sla, start_minute=runner.start_minute,
    )
    observe = collector.observe

    def both(now):
        observe(now)
        scalar_observe(shadow, now)
        for name in ACCOUNTS:
            assert getattr(collector, name) == getattr(shadow, name), (now, name)

    collector.observe = both
    runner.run()
    # every branch of the accounting ran
    assert any(collector._host_down_minutes.values())
    assert collector._episodes and collector._downtime_episodes
    assert shadow._ticks == 8 * 60
