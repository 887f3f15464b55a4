"""Export simulation results for external analysis and plotting.

Three formats cover what the paper's figures need:

* a JSON summary (scenario, horizon, overload accounting, per-action
  counts) — machine-readable EXPERIMENTS data;
* a CSV of per-host load series (one row per minute, one column per
  host, plus the system average) — Figures 12-14;
* a CSV of the controller action log — the annotations of Figures 16/17;
* a CSV of per-service availability (down-minutes, episode count, MTTR)
  — the chaos scenario's robustness comparison;
* a JSONL rendering of the run's event store (one envelope per line) —
  the run's whole observable event stream, greppable and ``jq``-able.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Union

from repro.core.state import StateDb
from repro.ops.store import read_store
from repro.sim.clock import format_minute
from repro.sim.results import SimulationResult
from repro.telemetry.trace import write_trace

__all__ = [
    "summary_json_payload",
    "export_summary_json",
    "export_host_series_csv",
    "export_actions_csv",
    "export_availability_csv",
    "export_store_jsonl",
    "export_directory",
    "export_all",
]

PathLike = Union[str, Path]


def summary_json_payload(result: SimulationResult) -> dict:
    """The JSON-able run summary dict (shared with the summary export).

    Multi-process agents ship this payload over the wire at deregister
    time; the federation server merges the per-domain payloads into one
    run summary, so the key set here is the de-facto summary schema.
    """
    return {
        "scenario": result.scenario_name,
        "user_factor": result.user_factor,
        "horizon_minutes": result.horizon,
        "start_minute": result.start_minute,
        "overload_minutes_per_day": result.overload_minutes_per_day,
        "total_overload_minutes": result.total_overload_minutes,
        "longest_episode_minutes": result.longest_episode,
        "episode_count": len(result.episodes),
        "action_count": len(result.actions),
        "action_counts": {
            action.value: count for action, count in result.action_counts().items()
        },
        "escalation_count": result.escalation_count,
        "overload_minutes_by_host": result.overload_minutes_by_host,
        "final_instance_counts": result.final_instance_counts,
        "violates_default_sla": result.violates(),
        "mean_availability": result.mean_availability,
        "mttr_minutes": result.mttr_minutes,
        "total_down_minutes": result.total_down_minutes,
        "availability_by_service": {
            name: {
                "availability": record.availability,
                "down_minutes": record.down_minutes,
                "episode_count": record.episode_count,
                "mttr_minutes": record.mttr_minutes,
            }
            for name, record in result.availability.items()
        },
        "host_down_minutes": result.host_down_minutes,
        "downtime_episode_count": len(result.downtime_episodes),
        "injected_fault_count": len(result.fault_records),
        "retried_action_count": result.retried_action_count,
        "compensated_action_count": result.compensated_action_count,
        "failed_action_count": result.failed_action_count,
        "fenced_action_count": result.fenced_action_count,
        "controller_down_minutes": result.controller_down_minutes,
        "controller_crash_count": result.controller_fault_count("controller-crash"),
        "leader_partition_count": result.controller_fault_count("leader-partition"),
        "expired_approval_count": result.expired_approval_count,
        "pending_approval_count": result.pending_approval_count,
        "expired_approvals_by_service": dict(
            sorted(result.expired_approvals_by_service.items())
        ),
    }


def export_summary_json(result: SimulationResult, path: PathLike) -> None:
    """Write a machine-readable run summary."""
    payload = summary_json_payload(result)
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


def export_host_series_csv(result: SimulationResult, path: PathLike) -> None:
    """Write the per-minute host load series (Figures 12-14's data)."""
    if not result.host_series:
        raise ValueError("host series were not collected for this run")
    average = result.average_load_series()
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["minute", "time", *result.host_names, "average"])
        for index in range(result.horizon):
            minute = result.start_minute + index
            writer.writerow(
                [
                    minute,
                    format_minute(minute),
                    *(
                        f"{result.host_series[name][index]:.4f}"
                        for name in result.host_names
                    ),
                    f"{average[index]:.4f}",
                ]
            )


def export_actions_csv(result: SimulationResult, path: PathLike) -> None:
    """Write the controller action log (Figures 16/17's annotations)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "minute",
                "time",
                "action",
                "service",
                "instance",
                "source_host",
                "target_host",
                "applicability",
                "status",
                "attempts",
                "duration",
                "note",
            ]
        )
        for action in result.actions:
            writer.writerow(
                [
                    action.time,
                    format_minute(action.time),
                    action.action.value,
                    action.service_name,
                    action.instance_id or "",
                    action.source_host or "",
                    action.target_host or "",
                    "" if action.applicability is None else f"{action.applicability:.3f}",
                    action.status,
                    action.attempts,
                    f"{action.duration:.2f}",
                    action.note,
                ]
            )


def export_availability_csv(result: SimulationResult, path: PathLike) -> None:
    """Write per-service availability accounting (the chaos metrics)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "service",
                "availability",
                "observed_minutes",
                "down_minutes",
                "episode_count",
                "mttr_minutes",
            ]
        )
        for name in sorted(result.availability):
            record = result.availability[name]
            writer.writerow(
                [
                    name,
                    f"{record.availability:.6f}",
                    record.observed_minutes,
                    record.down_minutes,
                    record.episode_count,
                    f"{record.mttr_minutes:.2f}",
                ]
            )


def export_store_jsonl(store: PathLike, path: PathLike) -> int:
    """Render a closed event store as a JSONL trace; returns the count.

    The first line is a schema header (``schema_version``, ``complete``);
    each following line is ``{"seq": ..., "topic": ..., "record": {...}}``
    in global sequence order — every envelope the run published, however
    long it ran and however often it was killed and resumed.
    """
    header, events = read_store(store)
    # a read-only reader leaves -wal/-shm files beside a closed store;
    # the last read-write connection to close removes them
    StateDb(store).close()
    write_trace(path, events, header.complete)
    return len(events)


def export_directory(directory: PathLike, scenario_name: str, user_factor: float) -> Path:
    """Where a run's exports go, e.g. ``DIR/full-mobility_115``."""
    return Path(directory) / f"{scenario_name}_{round(user_factor * 100)}"


def export_all(result: SimulationResult, directory: PathLike) -> Path:
    """Write summary + actions (+ host series when collected) to a directory.

    Returns the directory path.  File names are derived from the scenario
    and user factor, e.g. ``full-mobility_115/summary.json``.
    """
    base = export_directory(directory, result.scenario_name, result.user_factor)
    base.mkdir(parents=True, exist_ok=True)
    export_summary_json(result, base / "summary.json")
    export_actions_csv(result, base / "actions.csv")
    export_availability_csv(result, base / "availability.csv")
    if result.host_series:
        export_host_series_csv(result, base / "host_loads.csv")
    return base
