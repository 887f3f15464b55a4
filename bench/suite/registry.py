"""The benchmark's registry: workloads, metrics, bounds and predictions.

Everything `BENCHMARK.json` says is generated from this module
(``python -m bench.suite --update``); the suite's tests pin that the two
agree.  The registry also carries what the contract's fixed key set has
no room for: the workloads an end-to-end metric exists on, which
end-to-end metric and workload each per-layer metric is predicted to
move, and the checks that are known to fail at the commit that defined
the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Workload",
    "EndToEnd",
    "PerLayer",
    "WORKLOADS",
    "PAPER",
    "BURST",
    "DURABLE",
    "OPS",
    "FEDERATION",
    "DOMAINS",
    "END_TO_END",
    "PER_LAYER",
    "KNOWN_FAILURES",
    "RUN_SECONDS",
    "MIN_REPS",
    "SUITE_REPS",
    "COMMAND",
    "PATHS",
    "workload",
    "home_metrics",
    "contract_end_to_end",
    "contract_per_layer",
    "benchmark_json",
]

#: seconds of measured run() time one contract invocation fills with
#: repetitions, never fewer than ``MIN_REPS`` of them
RUN_SECONDS = 6
#: a median needs three
MIN_REPS = 3
#: repetitions per workload of a full-suite run
SUITE_REPS = 5
COMMAND = ["python3", "bench/suite/run.py"]
PATHS = ["bench/suite"]

#: the seed that reproduces the repository's committed baselines
#: (simulation seed 7, chaos seed 7 + CHAOS_SEED_OFFSET = 115)
DEFAULT_SEED = 7
CHAOS_SEED_OFFSET = 108


PAPER = "paper-24h-chaos"
BURST = "landscape-5k-burst"
DURABLE = "durable-12h-chaos"
OPS = "ops-live-24h"
FEDERATION = "federation-2proc-8h"
DOMAINS = "domains-4x-12h"


@dataclass(frozen=True)
class Workload:
    name: str
    #: one line: which layers this input makes work, and which it idles
    why: str
    #: simulated minutes of one repetition (``tiny_horizon`` in the tests)
    horizon: int
    tiny_horizon: int
    #: runner constructions timed per repetition for ``setup_s``
    setups: int = 3
    #: same seed, same summary and event count; false for the federation,
    #: whose free-running agents land escrows at wall-clock-dependent minutes
    deterministic: bool = True


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        PAPER,
        "the first day of the paper's acceptance run on 19 hosts with default "
        "chaos, in memory: per-tick fixed cost dominates; persistence, ops "
        "and net idle",
        horizon=1440, tiny_horizon=90,
    ),
    Workload(
        BURST,
        "4,997 hosts through the minute-10 watch-time expiry: columnar "
        "sampling per tick and one decision burst; small-landscape fixed "
        "cost is irrelevant",
        horizon=12, tiny_horizon=12, setups=1,
    ),
    Workload(
        DURABLE,
        "the chaos run with state_dir and store, then a resume on the same "
        "directory: journal, snapshots, lease, SQLite archive and store do "
        "most of the work",
        horizon=720, tiny_horizon=60,
    ),
    Workload(
        OPS,
        "paper-24h-chaos plus store and live ops API under an open-loop "
        "50 req/s poller and one WebSocket subscriber, then replay and "
        "verify of the store: the ops plane's cost, write and read",
        horizon=1440, tiny_horizon=90,
    ),
    Workload(
        FEDERATION,
        "two durable agent processes and an in-process federation server, "
        "no chaos: wire round-trips, escrows, trace merge and verify do "
        "the work",
        horizon=480, tiny_horizon=30, setups=1, deterministic=False,
    ),
    Workload(
        DOMAINS,
        "four control domains over a 4x landscape in one process with "
        "default chaos: the in-process federation twin; net and "
        "persistence idle",
        horizon=720, tiny_horizon=60,
    ),
)


def workload(name: str) -> Workload:
    for candidate in WORKLOADS:
        if candidate.name == name:
            return candidate
    raise KeyError(f"unknown workload {name!r}")


_ALL = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may get worse;
    #: ``None`` for a metric that does not repeat within 25% and is
    #: therefore reported without a verdict
    bound: Optional[float]
    #: the workloads the metric exists on.  The contract's driver wants
    #: every end-to-end metric from every run, so only a metric at home
    #: everywhere is listed under ``end_to_end`` in `BENCHMARK.json`; the
    #: others are listed there under ``per_layer`` (no bound) and keep
    #: their bound for ``--compare``.
    home: Tuple[str, ...]
    why: str
    #: false where ten runs of ten seeds are further apart than 25% although
    #: runs of one seed repeat: the contract's driver changes the seed with
    #: every run, so it gets such a metric per layer as well
    seed_stable: bool = True


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, _ALL,
             "runner construction (federation: the same call with horizon=1)"),
    EndToEnd("sim_min_per_s", "1/s", "higher", 0.25, _ALL,
             "simulated minutes per second of run() (domain-minutes for "
             "the federation)"),
    EndToEnd("tick_p50_ms", "ms", "lower", 0.25, _ALL,
             "median tick period (federation: median over domains of the "
             "agents' own mean tick)"),
    EndToEnd("tick_p99_ms", "ms", "lower", 0.25, _ALL,
             "99th percentile tick period (5k burst: the burst tick; "
             "federation: slowest domain's mean tick)", seed_stable=False),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05, _ALL,
             "peak resident set, max of the process and its children"),
    EndToEnd("burst_tick_s", "s", "lower", 0.25, (BURST,),
             "longest tick: the watch-time expiry burst"),
    EndToEnd("disk_mb", "MB", "lower", 0.10,
             (DURABLE, OPS, FEDERATION),
             "bytes left under the state, store and out directories"),
    EndToEnd("restore_s", "s", "lower", 0.25, (DURABLE,),
             "resume=True on the finished state directory, zero ticks left"),
    EndToEnd("replay_verify_s", "s", "lower", 0.25, (OPS,),
             "read_store plus verify_trace on the store the run wrote"),
    EndToEnd("ops_http_p50_ms", "ms", "lower", None, (OPS,),
             "median GET latency from the request's due time, open loop"),
    EndToEnd("ops_http_p99_ms", "ms", "lower", None, (OPS,),
             "99th percentile GET latency from the due time"),
    EndToEnd("ops_ws_lag_p50_ms", "ms", "lower", None, (OPS,),
             "median WebSocket receipt time minus publish time of the seq"),
    EndToEnd("ops_ws_lag_p99_ms", "ms", "lower", None, (OPS,),
             "99th percentile WebSocket lag"),
)


def home_metrics(workload_name: str) -> List[EndToEnd]:
    """The end-to-end metrics that exist on this workload."""
    return [m for m in END_TO_END if workload_name in m.home]


def contract_end_to_end() -> List[EndToEnd]:
    """What `BENCHMARK.json` lists as end-to-end.

    At home on every workload, bounded, and within its bound from seed to
    seed: the contract's driver takes every one of them from every run.
    """
    return [m for m in END_TO_END if m.home == _ALL and m.bound and m.seed_stable]


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: ``(end-to-end metric, workload)`` pairs this layer metric should
    #: move, written down before any optimisation is measured
    moves: Tuple[Tuple[str, str], ...]


def _layers(names: str, unit: str, better: str, *moves: Tuple[str, str]):
    return [PerLayer(name, unit, better, tuple(moves)) for name in names.split()]


_TICK_PAPER = (("sim_min_per_s", PAPER), ("tick_p50_ms", PAPER))
_TICK_BOTH = (("tick_p50_ms", PAPER), ("tick_p50_ms", BURST))
_BURST_TICK = (("burst_tick_s", BURST), ("tick_p99_ms", PAPER))
_DURABLE_MOVES = (
    ("sim_min_per_s", DURABLE), ("tick_p99_ms", DURABLE),
    ("disk_mb", DURABLE), ("tick_p50_ms", FEDERATION),
)
_OPS_MOVES = (
    ("sim_min_per_s", OPS), ("tick_p50_ms", OPS), ("ops_ws_lag_p99_ms", OPS),
)
_HTTP = (("ops_http_p99_ms", OPS),)
_REPLAY = (("replay_verify_s", OPS),)
_DOMAIN_MOVES = (("sim_min_per_s", DOMAINS), ("tick_p50_ms", DOMAINS))
_FED_MOVES = (("sim_min_per_s", FEDERATION), ("setup_s", FEDERATION))

PER_LAYER: Tuple[PerLayer, ...] = tuple(
    _layers("sim.workload.tick_s sim.faults.tick_s sim.results.observe_s "
            "sim.runner.finalize_s", "s", "lower", *_TICK_PAPER)
    + _layers("sim.runner.other_s", "s", "lower", *_TICK_PAPER,
              ("tick_p99_ms", DURABLE))
    + _layers("core.autoglobe.tick_s core.autoglobe.tick_self_s "
              "monitoring.lms.tick_s monitoring.archive.record_s",
              "s", "lower", *_TICK_BOTH)
    + _layers("monitoring.lms.situations", "count", "lower", *_TICK_BOTH)
    + _layers("core.action_selection.rank_s core.server_selection.rank_s "
              "fuzzy.inference.infer_s core.decision.handle_s "
              "serviceglobe.executor.execute_s serviceglobe.platform.execute_s",
              "s", "lower", *_BURST_TICK)
    + _layers("core.action_selection.rank_calls core.server_selection.rank_calls "
              "fuzzy.inference.infer_calls core.decision.handle_calls "
              "serviceglobe.executor.execute_calls serviceglobe.executor.retried "
              "serviceglobe.executor.failed serviceglobe.executor.compensated",
              "count", "lower", *_BURST_TICK)
    + _layers("core.decision.acted_ratio", "ratio", "higher", *_BURST_TICK)
    + _layers("telemetry.bus.publish_s telemetry.bus.publish_self_s",
              "s", "lower", ("sim_min_per_s", OPS), ("sim_min_per_s", PAPER))
    + _layers("telemetry.bus.envelopes", "count", "lower",
              ("sim_min_per_s", OPS), ("sim_min_per_s", PAPER))
    + _layers("core.state.journal_append_s core.state.snapshot_save_s "
              "core.state.lease_s core.failover.tick_self_s "
              "monitoring.archive.commit_s", "s", "lower", *_DURABLE_MOVES)
    + _layers("core.state.journal_append_calls core.state.snapshot_save_calls",
              "count", "lower", *_DURABLE_MOVES)
    + _layers("ops.store.flush_s ops.store.ingest_s ops.api.refresh_s "
              "ops.api.forward_s", "s", "lower", *_OPS_MOVES)
    + _layers("ops.store.flush_calls ops.store.rows ops.api.refresh_calls "
              "ops.api.events_forwarded ops.api.ws_dropped",
              "count", "lower", *_OPS_MOVES)
    + _layers("ops.api.http_requests", "count", "higher", *_HTTP)
    + _layers("ops.api.http_failed", "count", "lower", *_HTTP)
    + _layers("ops.api.poller_late_p99_ms", "ms", "lower", *_HTTP)
    + _layers("ops.api.ws_unsent_at_close", "count", "lower",
              ("ops_ws_lag_p99_ms", OPS))
    + _layers("ops.store.read_s analysis.verify.verify_s", "s", "lower", *_REPLAY)
    + _layers("ops.store.read_rows_per_s", "1/s", "higher", *_REPLAY)
    + _layers("analysis.verify.events", "count", "lower", *_REPLAY)
    + _layers("core.federation.tick_self_s", "s", "lower", *_DOMAIN_MOVES)
    + _layers("core.federation.escrow_count", "count", "lower", *_DOMAIN_MOVES)
    + _layers("net.agent.tick_ms", "ms", "lower", *_FED_MOVES)
    + _layers("net.agent.cpu_share", "ratio", "higher", *_FED_MOVES)
    + _layers("net.agent.escrow_out net.agent.escrow_in net.agent.respawns "
              "net.agent.degraded_count net.server.deposed",
              "count", "lower", *_FED_MOVES)
    + _layers("net.server.finalize_s net.server.insert_events_s",
              "s", "lower", *_FED_MOVES)
    + _layers("bench.trace_overhead_pct", "%", "lower")
    + _layers("bench.trace_coverage_pct", "%", "higher")
)

#: checks that fail at the commit that defined the benchmark; they are
#: reported, never hidden, and do not make the run incorrect
KNOWN_FAILURES: Dict[str, str] = {
    "restored-summary-equals-uninterrupted": (
        "escalations are not restored on resume: the resumed summary "
        "reports escalation_count 0 where the uninterrupted run has 10"
    ),
}


def contract_per_layer() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of what `BENCHMARK.json` lists per layer."""
    contract = contract_end_to_end()
    rest = [m for m in END_TO_END if m not in contract]
    return [(m.name, m.unit, m.better) for m in rest + list(PER_LAYER)]


def benchmark_json() -> dict:
    """`BENCHMARK.json` exactly as the contract shapes it."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in contract_end_to_end()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in contract_per_layer()
        ],
    }
