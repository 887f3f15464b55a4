"""One repetition of one workload, measured from outside the program.

Runs in a fresh child interpreter (see :mod:`bench.suite.child`).  The
program gets generated inputs only — a landscape, seeds, a horizon,
directories — and is driven through the surface ROADMAP items 2-4 keep:
``SimulationRunner(...).run()``, ``run_multiproc(...)``, ``read_store``,
``verify_trace`` and the HTTP/WebSocket endpoints.  Never ``scan_mode=``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
from pathlib import Path
from time import perf_counter, sleep
from typing import Any, Callable, Dict, List, Optional

from repro.analysis.verify import verify_trace
from repro.config.builtin import partition_landscape, replicated_landscape
from repro.net.orchestrator import run_multiproc
from repro.ops.store import read_store
from repro.sim.export import summary_json_payload
from repro.sim.runner import SimulationRunner
from repro.sim.scenarios import Scenario, default_chaos
from repro.telemetry.records import TOPICS

from bench.suite import registry
from bench.suite.calibration import SpeedMeter, timed
from bench.suite.loadgen import HttpPoller, WsSubscriber
from bench.suite.registry import CHAOS_SEED_OFFSET, Workload
from bench.suite.stats import percentile
from bench.suite.tracing import Tracer

__all__ = ["run_repetition"]

FEDERATION_DOMAINS = 2
#: copies of the 19-host landscape in the burst workload: 4,997 hosts
BURST_COPIES = 263
#: resumes, and replays of the store, timed per repetition (their median
#: counts); a quarter and three quarters of a second each
RESTORES = 3
REPLAYS = 3
#: span of the suite's own work inside a traced run (slices, the drain wait)
SUITE_SPAN = "bench.suite"
#: how long the last simulated minute may wait for the WebSocket to drain
DRAIN_TIMEOUT_S = 5.0
FEDERATION_ROOT = "net.orchestrator.run"
IN_PROCESS_ROOT = "sim.runner.run"


def _check(name: str, ok: bool, detail: str = "") -> Dict[str, Any]:
    """One correctness check's verdict."""
    return {"name": name, "ok": bool(ok), "detail": detail}


class TickClock:
    """Bus subscriber: when each envelope, and each minute's first, went out.

    Installed in traced and untraced repetitions alike, with the speed
    meter's slices it is the only thing the suite adds to a run.  It is
    subscribed twice: per topic (called first, so an envelope is stamped
    before the ops bridge forwards it) and as the last wildcard subscriber
    (:meth:`after`), where slices run once everyone else has seen the
    envelope.
    """

    def __init__(
        self,
        last_minute: int,
        on_last_minute: Callable[[int], None],
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.meter = SpeedMeter()
        #: seq -> wall time of its publish
        self.stamps: Dict[int, float] = {}
        self.minutes: List[int] = []
        #: first envelope of each minute on the program's clock: wall time
        #: less what the suite itself has spent inside the run so far
        self.minute_stamps: List[float] = []
        #: seq of the last simulated minute's first envelope
        self.last_minute_seq = 0
        self._current = -1
        self._now = 0.0
        self._last_minute = last_minute
        self._on_last_minute = on_last_minute
        self._tracer = tracer

    def __call__(self, envelope: Any) -> None:
        now = self._now = perf_counter()
        self.stamps[envelope.seq] = now
        minute = envelope.record.time
        if minute > self._current:
            self._current = minute
            self.minutes.append(minute)
            self.minute_stamps.append(now - self.meter.suite_s)
            if minute >= self._last_minute and not self.last_minute_seq:
                self.last_minute_seq = envelope.seq
                self.meter.suite_s += self._in_suite(
                    lambda: self._on_last_minute(envelope.seq)
                )

    def after(self, envelope: Any) -> None:
        if self.meter.due(self._now):
            self._in_suite(self.meter.take)  # a slice counts its own time

    def _in_suite(self, call: Callable[[], None]) -> float:
        """The suite's own work inside a run, under a span of its own."""
        started = perf_counter()
        if self._tracer is not None:
            with self._tracer.span(SUITE_SPAN):
                call()
        else:
            call()
        return perf_counter() - started

    def tick_periods_ms(self) -> List[float]:
        """Milliseconds per simulated minute between first envelopes.

        Each scaled to the machine's speed around it.  A minute that
        published nothing (a crashed controller) shares the gap evenly
        with its neighbours.  The last minute has no successor and is
        left out.
        """
        periods: List[float] = []
        for index in range(len(self.minutes) - 1):
            gap = self.minutes[index + 1] - self.minutes[index]
            start, end = self.minute_stamps[index], self.minute_stamps[index + 1]
            elapsed = (end - start) * self.meter.scale(start, end)
            periods.extend([elapsed / gap * 1e3] * gap)
        return periods


def _peak_rss_mb() -> float:
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


def _disk_mb(directory: Path) -> float:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file()) / 1e6


def _new_result() -> Dict[str, Any]:
    return {"metrics": {}, "raw": {}, "counts": {}, "checks": [], "layers": {}}


def _digest(summary: Dict[str, Any], events: int) -> str:
    text = json.dumps(summary, sort_keys=True) + f"|{events}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- the six inputs ---------------------------------------------------------------


def _runner_kwargs(
    name: str, seed: int, horizon: int, tiny: bool, run_dir: Path
) -> Dict[str, Any]:
    """Generate one workload's inputs from the seed."""
    chaos = default_chaos(seed=seed + CHAOS_SEED_OFFSET)
    kwargs: Dict[str, Any] = dict(
        scenario=Scenario.FULL_MOBILITY,
        user_factor=1.15,
        horizon=horizon,
        seed=seed,
        collect_host_series=False,
    )
    if name == registry.PAPER:
        kwargs.update(chaos=chaos)
    elif name == registry.BURST:
        copies = 3 if tiny else BURST_COPIES
        kwargs.update(
            user_factor=1.0, landscape=replicated_landscape(copies), lint="off"
        )
    elif name == registry.DURABLE:
        kwargs.update(
            chaos=chaos, state_dir=run_dir / "state", store_path=run_dir / "store.db"
        )
    elif name == registry.OPS:
        kwargs.update(
            chaos=chaos, store_path=run_dir / "store.db", serve=("127.0.0.1", 0)
        )
    elif name == registry.DOMAINS:
        kwargs.update(
            chaos=chaos,
            landscape=partition_landscape(replicated_landscape(4), 4),
        )
    else:
        raise KeyError(f"no in-process inputs for workload {name!r}")
    return kwargs


# -- ops-plane load -----------------------------------------------------------------


class _OpsLoad:
    """Poller and subscriber around one served run."""

    def __init__(self, runner: SimulationRunner) -> None:
        #: the runner forgets its server on close; the counters outlive it
        self.server = runner.ops_server
        host, port = self.server.host, self.server.port
        self.poller = HttpPoller(host, port)
        self.subscriber = WsSubscriber(host, port)

    def start(self) -> None:
        self.subscriber.start()
        if not self.subscriber.ready.wait(timeout=10.0):
            raise RuntimeError(
                f"WebSocket subscriber never got its hello: {self.subscriber.error}"
            )
        self.poller.start()

    def last_minute(self, seq: int) -> None:
        """The last simulated minute has begun with envelope ``seq``.

        ``run()`` stops the server the moment the last tick is over, and
        the server does not drain.  So the load ends here: the poller
        finishes and the run holds until the subscriber has
        every earlier envelope (or a notice that it was dropped).  What
        the server leaves unsent can then only belong to this last minute.
        """
        self.poller.stop()
        self.poller.join(timeout=DRAIN_TIMEOUT_S)  # its request in flight completes
        deadline = perf_counter() + DRAIN_TIMEOUT_S
        while self.subscriber.accounted() < seq - 1 and perf_counter() < deadline:
            sleep(0.001)

    def stop(self) -> None:
        self.poller.stop()
        self.poller.join(timeout=15.0)
        self.subscriber.join(timeout=5.0)
        if self.subscriber.is_alive():
            self.subscriber.close()
            self.subscriber.join(timeout=5.0)

    def measure(self, clock: TickClock, published: int, out: Dict[str, Any]) -> None:
        poller, subscriber = self.poller, self.subscriber
        received = subscriber.received
        lag_ms = [
            (received[seq] - stamp) * 1e3
            for seq, stamp in clock.stamps.items()
            if seq in received
        ]
        out["counts"]["http"] = poller.attempted
        out["counts"]["http_failed"] = poller.failed
        out["counts"]["ws_events"] = len(received)
        before_last_minute = clock.last_minute_seq - 1
        accounted_early = subscriber.dropped_notices + sum(
            1 for seq in received if seq <= before_last_minute
        )
        unsent = published - subscriber.accounted()
        out["checks"].append(
            _check(
                "ws-seqs-received-or-dropped-in-band",
                subscriber.error is None
                and 0 < before_last_minute <= accounted_early
                and 0 <= unsent <= published - before_last_minute,
                f"{len(received)} of {published} seqs received, "
                f"{subscriber.dropped_notices} announced dropped, "
                f"{accounted_early} of the {before_last_minute} before the last "
                f"minute accounted for, {unsent} of the last minute's "
                f"{published - before_last_minute} unsent when run() closed the server"
                + (f", {subscriber.error}" if subscriber.error else ""),
            )
        )
        out["checks"].append(
            _check(
                "http-requests-all-200",
                poller.failed == 0 and poller.attempted > 0,
                "; ".join(poller.errors[:3]) or f"{poller.attempted} requests",
            )
        )
        # latencies are wall milliseconds: what they wait for is the
        # interpreter lock's 5 ms switch interval, not the machine's speed
        out["metrics"].update(
            ops_http_p50_ms=percentile(poller.latency_ms or [0.0], 50),
            ops_http_p99_ms=percentile(poller.latency_ms or [0.0], 99),
            ops_ws_lag_p50_ms=percentile(lag_ms or [0.0], 50),
            ops_ws_lag_p99_ms=percentile(lag_ms or [0.0], 99),
        )
        out["layers"].update(
            {
                "ops.api.http_requests": poller.attempted,
                "ops.api.http_failed": poller.failed,
                "ops.api.poller_late_p99_ms": percentile(poller.late_ms or [0.0], 99),
                "ops.api.events_forwarded": self.server.events_forwarded,
                "ops.api.ws_dropped": subscriber.dropped_notices,
                "ops.api.ws_unsent_at_close": unsent,
            }
        )


# -- in-process repetitions -----------------------------------------------------------


def _medians(timings: List[Any]) -> Dict[str, float]:
    """Median of ``(wall, scale)`` regions: reported seconds and raw wall."""
    return {
        "value": statistics.median(wall * scale for wall, scale in timings),
        "wall": statistics.median(wall for wall, _ in timings),
    }


def _run_in_process(
    spec: Workload, seed: int, tiny: bool, tracer: Optional[Tracer], scratch: Path
) -> Dict[str, Any]:
    horizon = spec.tiny_horizon if tiny else spec.horizon
    out = _new_result()
    if tracer is not None:
        # before construction: subscribers bind their methods there
        tracer.install()
    constructions = []
    runner = None
    for index in range(spec.setups):
        if runner is not None:
            runner.close()
        run_dir = scratch / f"run{index}"
        run_dir.mkdir()
        kwargs = _runner_kwargs(spec.name, seed, horizon, tiny, run_dir)
        runner, wall, scale = timed(lambda: SimulationRunner(**kwargs))
        constructions.append((wall, scale))
    assert runner is not None
    setup = _medians(constructions)
    out["metrics"]["setup_s"] = setup["value"]
    out["raw"]["setup_wall_s"] = setup["wall"]

    load = _OpsLoad(runner) if runner.ops_server is not None else None
    clock = TickClock(
        runner.start_minute + horizon - 1,
        load.last_minute if load is not None else (lambda seq: None),
        tracer,
    )
    bus = runner.platform.bus
    for topic in TOPICS:
        bus.subscribe(topic, clock)
    bus.subscribe("*", clock.after)
    try:
        if load is not None:
            load.start()
        gc.collect()
        started = perf_counter()
        result = runner.run()
        run_wall = perf_counter() - started - clock.meter.suite_s
    finally:
        if load is not None:
            load.stop()
        runner.close()
        if tracer is not None:
            tracer.uninstall()  # the epilogues below are timed directly
    out["metrics"]["peak_rss_mb"] = _peak_rss_mb()

    scale = clock.meter.scale()
    run_s = run_wall * scale
    summary = summary_json_payload(result)
    out["digest"] = _digest(summary, bus.last_seq)
    periods = clock.tick_periods_ms()
    out["raw"].update(
        run_wall_s=run_wall, scale=scale, slices=len(clock.meter.slices),
        suite_s=clock.meter.suite_s,
    )
    out["metrics"].update(
        run_s=run_s,
        sim_min_per_s=horizon / run_s,
        tick_p50_ms=percentile(periods, 50),
        tick_p99_ms=percentile(periods, 99),
        burst_tick_s=max(periods) / 1e3,
        disk_mb=_disk_mb(run_dir),
    )
    out["counts"]["ticks"] = horizon
    out["layers"]["telemetry.bus.envelopes"] = bus.last_seq
    out["layers"]["core.federation.escrow_count"] = len(
        {e.record.escrow_id for e in bus.tail("escrow", limit=1 << 20)}
    )
    out["layers"]["serviceglobe.executor.retried"] = summary["retried_action_count"]
    out["layers"]["serviceglobe.executor.failed"] = summary["failed_action_count"]
    out["layers"]["serviceglobe.executor.compensated"] = summary[
        "compensated_action_count"
    ]
    if runner.telemetry_store is not None:
        out["layers"]["ops.store.rows"] = runner.telemetry_store.inserted
    if load is not None:
        load.measure(clock, bus.last_seq, out)

    if spec.name == registry.DURABLE:
        _restore(kwargs, summary, out)
    if spec.name == registry.OPS:
        _replay_verify(run_dir / "store.db", bus.last_seq, out)
    return out


def _restore(
    kwargs: Dict[str, Any], uninterrupted: Dict[str, Any], out: Dict[str, Any]
) -> None:
    # with no tick left a resume changes nothing on disk, so it repeats
    resumes = []
    for _ in range(RESTORES):
        result, wall, scale = timed(
            lambda: SimulationRunner(resume=True, **kwargs).run()
        )
        resumes.append((wall, scale))
    restore = _medians(resumes)
    out["metrics"]["restore_s"] = restore["value"]
    out["raw"]["restore_wall_s"] = restore["wall"]
    restored = summary_json_payload(result)
    differing = sorted(
        key for key in uninterrupted if restored.get(key) != uninterrupted[key]
    )
    out["checks"].append(
        _check(
            "restored-summary-equals-uninterrupted",
            not differing,
            ", ".join(
                f"{key} {restored.get(key)!r} vs {uninterrupted[key]!r}"
                for key in differing[:4]
            ),
        )
    )


def _replay_verify(store: Path, published: int, out: Dict[str, Any]) -> None:
    def replay():
        started = perf_counter()
        header, events = read_store(store)
        read_wall = perf_counter() - started
        return header, events, verify_trace(store), read_wall

    replays, reads = [], []
    for _ in range(REPLAYS):
        (header, events, report, read_wall), wall, scale = timed(replay)
        replays.append((wall, scale))
        reads.append((read_wall, scale))
    replay_verify, read = _medians(replays), _medians(reads)
    out["metrics"]["replay_verify_s"] = replay_verify["value"]
    out["raw"]["replay_verify_wall_s"] = replay_verify["wall"]
    out["layers"]["ops.store.read_s"] = read["value"]
    out["layers"]["ops.store.read_rows_per_s"] = len(events) / read["value"]
    out["layers"]["analysis.verify.verify_s"] = replay_verify["value"] - read["value"]
    out["layers"]["analysis.verify.events"] = len(events)
    out["checks"].append(
        _check(
            "store-replays-complete-and-verifies",
            header.complete and len(events) == published and report.exit_code() == 0,
            f"{len(events)} of {published} events, complete={header.complete}, "
            f"verify exit {report.exit_code()}",
        )
    )


# -- the federation -----------------------------------------------------------------


def _run_federation(
    spec: Workload, seed: int, tiny: bool, tracer: Optional[Tracer], scratch: Path
) -> Dict[str, Any]:
    horizon = spec.tiny_horizon if tiny else spec.horizon
    out = _new_result()

    def federation(label: str, minutes: int):
        # no chaos_seed: FaultInjector._crash_hosts calls the missing
        # DomainView.crash_host and the agent dies (see the README)
        return run_multiproc(
            FEDERATION_DOMAINS,
            scratch / label / "state",
            scratch / label / "out",
            scenario=Scenario.FULL_MOBILITY,
            user_factor=1.15,
            horizon=minutes,
            seed=seed,
            start_minute=720,
            landscape_kind="paper",
        )

    # nothing here is scaled: the federation's wall time is spent waiting on
    # the wire and on the other agent, and repeats better than any
    # correction of it (spread of ten runs: 2-5% raw, 8% scaled)
    started = perf_counter()
    federation("setup", 1)
    setup_wall = perf_counter() - started
    out["metrics"]["setup_s"] = out["raw"]["setup_wall_s"] = setup_wall

    def run():
        if tracer is None:
            return federation("run", horizon)
        tracer.install()
        with tracer.span(FEDERATION_ROOT):
            return federation("run", horizon)

    gc.collect()
    started = perf_counter()
    result = run()
    run_s = perf_counter() - started
    out["raw"].update(run_wall_s=run_s, scale=1.0)

    with open(result.trace_path, encoding="utf-8") as handle:
        events = sum(1 for _ in handle) - 1
    out["digest"] = _digest(result.summary, events)
    tick_ms = [
        domain["perf"]["controller_tick_seconds"] / max(domain["perf"]["ticks"], 1) * 1e3
        for domain in result.domain_summaries.values()
    ]
    agent_seconds = sum(
        domain["perf"]["controller_tick_seconds"]
        for domain in result.domain_summaries.values()
    )
    net = [domain["net"] for domain in result.domain_summaries.values()]
    out["metrics"].update(
        run_s=run_s,
        sim_min_per_s=FEDERATION_DOMAINS * horizon / run_s,
        peak_rss_mb=_peak_rss_mb(),
        disk_mb=_disk_mb(scratch / "run"),
        tick_p50_ms=statistics.median(tick_ms),
        tick_p99_ms=max(tick_ms),
    )
    out["counts"]["ticks"] = FEDERATION_DOMAINS * horizon
    out["layers"].update(
        {
            "net.agent.tick_ms": statistics.fmean(tick_ms),
            "net.agent.cpu_share": agent_seconds / (FEDERATION_DOMAINS * run_s),
            "net.agent.escrow_out": sum(n["escrow_out"] for n in net),
            "net.agent.escrow_in": sum(n["escrow_in"] for n in net),
            "net.agent.degraded_count": sum(n["degraded_count"] for n in net),
            "net.agent.respawns": sum(result.respawns.values()),
            "net.server.deposed": result.deposed_count,
            "telemetry.bus.envelopes": events,
        }
    )
    out["checks"].append(
        _check(
            "multiproc-report-clean",
            result.report.exit_code() == 0,
            f"verify exit {result.report.exit_code()} over {events} merged events",
        )
    )
    return out


# -- one repetition -------------------------------------------------------------------


def _layers_from(tracer: Tracer, federated: bool, out: Dict[str, Any]) -> None:
    """Fold the tracer's totals into the per-layer names of the registry."""
    totals = tracer.totals()
    layers = out["layers"]
    scale = out["raw"]["scale"]
    for name, entry in totals.items():
        layers[f"{name}_s"] = entry["busy_s"] * scale
        layers[f"{name}_self_s"] = entry["self_s"] * scale
        layers[f"{name}_calls"] = entry["calls"]
    if federated:
        # the agents tick in their own processes, out of a wrapper's
        # reach: their share of the wall comes from their own summaries
        wall = totals[FEDERATION_ROOT]["busy_s"]
        named = layers["net.agent.cpu_share"] + (
            totals.get("net.server.finalize", {}).get("busy_s", 0.0) / wall
        )
    else:
        root = totals[IN_PROCESS_ROOT]
        layers["sim.runner.other_s"] = root["self_s"] * scale
        suite = totals.get(SUITE_SPAN, {}).get("busy_s", 0.0)
        named = 1.0 - root["self_s"] / (root["busy_s"] - suite)
    layers["bench.trace_coverage_pct"] = 100.0 * named
    layers["monitoring.lms.situations"] = tracer.result_sizes.get(
        "monitoring.lms.tick", 0
    )
    handled = totals.get("core.decision.handle", {}).get("calls", 0)
    acted = tracer.result_hits.get("core.decision.handle", 0)
    layers["core.decision.acted_ratio"] = acted / handled if handled else 0.0


def run_repetition(
    spec: Workload, seed: int, tiny: bool, traced: bool, scratch: Path
) -> Dict[str, Any]:
    """Measure one repetition; with ``traced`` also the layer totals."""
    tracer = Tracer() if traced else None
    federated = spec.name == registry.FEDERATION
    try:
        if federated:
            out = _run_federation(spec, seed, tiny, tracer, scratch)
        else:
            out = _run_in_process(spec, seed, tiny, tracer, scratch)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        _layers_from(tracer, federated, out)
        out["spans"] = tracer.spans()
    return out
