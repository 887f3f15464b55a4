"""The load archive as a queryable operations database.

"A load archive stores a persistent aggregated view of historic load
data" (Section 2) — here backed by SQLite.  We run two simulated days of
the constrained-mobility SAP scenario with the archive attached and the
run's telemetry event log kept beside it, then analyze both the way the
paper's future work proposes:

* per-server aggregated daily views (the archive's raison d'être),
* the administration history (executed actions) from the event log,
* periodic-pattern extraction and a next-morning load forecast for the
  LES application tier.

Run with:  python examples/load_archive_analysis.py [--db PATH]
"""

import argparse
import tempfile
from pathlib import Path

from repro.forecasting.patterns import extract_daily_pattern
from repro.monitoring.archive import SqliteLoadArchive
from repro.ops.store import read_store
from repro.sim.clock import MINUTES_PER_DAY, format_minute
from repro.sim.runner import SimulationRunner
from repro.sim.scenarios import Scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--db", default=None, help="SQLite file (default: temp)")
    parser.add_argument("--hours", type=float, default=48.0)
    args = parser.parse_args()
    path = args.db or str(Path(tempfile.mkdtemp()) / "autoglobe-archive.db")
    store_path = Path(path).with_name(Path(path).stem + "-events.db")

    with SqliteLoadArchive(path) as archive:
        print(f"running {args.hours:g} h of constrained mobility @ 115% users "
              f"(archive: {path})")
        runner = SimulationRunner(
            Scenario.CONSTRAINED_MOBILITY,
            user_factor=1.15,
            horizon=int(args.hours * 60),
            seed=7,
            collect_host_series=False,
            archive=archive,
            store_path=store_path,
        )
        result = runner.run()
        archive.commit()
        print(result.summary())

        print("\nhourly aggregated view of Blade1 (LES), day 1:")
        start = runner.start_minute
        for bucket_start, mean in archive.aggregate("Blade1", "cpu", 60):
            if start + MINUTES_PER_DAY <= bucket_start < start + 2 * MINUTES_PER_DAY:
                hour = (bucket_start % MINUTES_PER_DAY) // 60
                bar = "#" * round(mean * 40)
                print(f"  {hour:02d}:00 |{bar:<40}| {mean:4.0%}")

        __, events = read_store(store_path)
        actions = [event.record for event in events if event.topic == "actions"]
        print(f"\nadministration history: {len(actions)} actions recorded")
        for action in actions[:8]:
            print(f"  {format_minute(action['time'])}  {action['action']} "
                  f"{action['service_name']} on {action['target_host'] or '-'} "
                  f"({action['status']})")

        history = archive.history("service:LES", "demand")
        pattern = extract_daily_pattern(history)
        peak_minute, peak_demand = pattern.peak()
        print(f"\nLES demand pattern: periodicity {pattern.periodicity:.2f}, "
              f"daily peak {peak_demand:.2f} PI-units at "
              f"{peak_minute // 60:02d}:{peak_minute % 60:02d}")
        print("forecast for tomorrow morning:")
        for hour in (7, 8, 9, 10):
            value = pattern.value_at(hour * 60)
            print(f"  {hour:02d}:00  {value:5.2f} PI-units")


if __name__ == "__main__":
    main()
