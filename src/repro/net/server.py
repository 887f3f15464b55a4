"""The federation server: one thread driving the pure coordinator.

One server (the CLI runs it in-process next to the orchestrator)
coordinates N per-domain agent processes.  Everything it *decides* —
sessions, the escrow ledger, reply caches, the reserve fan-out, attach
retries, wire chaos — is the :class:`~repro.net.coordinator.Coordinator`,
a state machine without I/O; :class:`FederationServer` is its driver:

* **one loop, one thread** — :meth:`FederationServer.start` starts the
  loop; it waits in :mod:`selectors` on the listener, every agent
  connection and a wakeup socket, at most until the coordinator's next
  deadline, feeds each arrived message to ``Coordinator.receive``,
  runs ``Coordinator.poll`` and writes what they return.  Leases are
  opened, used and closed on that thread.
* **the threading rule** — :meth:`~FederationServer.listen`,
  :meth:`~FederationServer.serve_endpoint` and
  :meth:`~FederationServer.stop` may be called from any thread: they
  hand sockets to the loop through a queue and the wakeup, and never
  touch the selector or the coordinator themselves.  Nothing but the
  loop writes the coordinator's state; other threads may *read*
  ``sessions`` and ``injector.stats``.
* **finalization** — the wire carries control, the domain directory
  carries data: :meth:`FederationServer.finalize` reads each domain's
  ``summary.json`` and the Lamport-stamped ``events`` rows of its
  ``state.db``, merges the streams into one causally ordered trace,
  stops the loop (the escrow ledger is read next, on the caller's
  thread) and feeds the trace through the same
  :class:`~repro.analysis.verify.engine.TraceVerifier` the offline
  ``autoglobe verify`` front end uses.

Unresolved escrows — a source that committed into a partition and never
reached the target — are closed out at finalization with a synthesized
coordinator ABORT event, so merged traces of chaotic runs stay
AG302-complete: every prepared escrow reaches a terminal phase.
"""

from __future__ import annotations

import itertools
import json
import selectors
import socket
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.verify.engine import TraceVerifier, load_summary
from repro.core.state import STATE_FILE
from repro.net.chaos import NetChaosProfile
from repro.net.coordinator import Coordinator
from repro.net.protocol import FrameError
from repro.net.transport import EndpointClosed, TcpEndpoint
from repro.ops.store import TelemetryStore, read_store
from repro.telemetry.records import (
    TOPIC_ESCROW,
    EscrowEvent,
    EscrowPhase,
    record_to_dict,
)
from repro.telemetry.trace import TraceEvent, merge_traces, write_trace
from repro.telemetry.windows import sum_forward

__all__ = ["FederationServer", "merge_summaries"]


class FederationServer:
    """Coordinates the multi-process federation for one run."""

    def __init__(
        self,
        domains: List[str],
        state_dir: Path,
        start_minute: int,
        horizon: int,
        net_chaos: Optional[NetChaosProfile] = None,
    ) -> None:
        self.domains = sorted(domains)
        self.state_dir = Path(state_dir)
        self.horizon = horizon
        self.coordinator = Coordinator(
            self.domains, self.state_dir, start_minute, net_chaos
        )
        self.sessions = self.coordinator.sessions
        self.injector = self.coordinator.injector
        #: domain -> its ``summary.json``, as :meth:`finalize` read it
        self.domain_summaries: Dict[str, Dict[str, Any]] = {}
        #: listener and endpoints on their way into the loop
        self._handoff: deque = deque()
        self._wake_in, self._wake_out = socket.socketpair()
        self._thread: Optional[threading.Thread] = None
        self._stopping = False
        # the loop's own: link -> endpoint, and the selector
        self._endpoints: Dict[int, TcpEndpoint] = {}
        self._link_ids = itertools.count(1)
        self._selector: Optional[selectors.BaseSelector] = None

    # -- lifecycle: any thread ---------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._loop, name="federation-loop", daemon=True
        )
        self._thread.start()

    def listen(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Open a TCP listener for the loop; returns the bound port."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(16)
        listener.setblocking(False)
        self._hand_off(listener)
        return listener.getsockname()[1]

    def serve_endpoint(self, endpoint: TcpEndpoint) -> None:
        """Serve one pre-connected endpoint (loopback tests)."""
        self._hand_off(endpoint)

    def stop(self) -> None:
        """End the loop (idempotent); it closes every socket and lease."""
        self._stopping = True
        if self._thread is None:
            self._close(None)
            return
        self._wake()
        self._thread.join()

    def _hand_off(self, item: Any) -> None:
        self._handoff.append(item)
        self._wake()

    def _wake(self) -> None:
        try:
            self._wake_out.send(b"\0")
        except OSError:
            pass  # the loop has ended and closed its end

    # -- the loop: its thread only -----------------------------------------------------

    def _loop(self) -> None:
        self._selector = selector = selectors.DefaultSelector()
        selector.register(self._wake_in, selectors.EVENT_READ, self._adopt)
        coordinator = self.coordinator
        try:
            while not self._stopping:
                deadline = coordinator.deadline()
                timeout = (
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
                for key, __ in selector.select(timeout):
                    key.data(key.fileobj)
                self._transmit(coordinator.poll(time.monotonic()))
        finally:
            self._close(selector)

    def _close(self, selector: Optional[selectors.BaseSelector]) -> None:
        if selector is not None:
            for key in list(selector.get_map().values()):
                key.fileobj.close()
            selector.close()
        while self._handoff:
            self._handoff.popleft().close()
        self._wake_in.close()
        self._wake_out.close()
        self.coordinator.close()

    def _adopt(self, wake: socket.socket) -> None:
        wake.recv(4096)
        while self._handoff:
            item = self._handoff.popleft()
            if isinstance(item, socket.socket):
                self._selector.register(item, selectors.EVENT_READ, self._accept)
            else:
                self._register(item)

    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, __ = listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            self._register(TcpEndpoint(sock))

    def _register(self, endpoint: TcpEndpoint) -> None:
        link = next(self._link_ids)
        self._endpoints[link] = endpoint
        self._selector.register(
            endpoint, selectors.EVENT_READ, lambda __: self._read(link)
        )

    def _read(self, link: int) -> None:
        endpoint = self._endpoints[link]
        try:
            while True:
                message = endpoint.recv(timeout=0)
                if message is None:
                    return
                self._transmit(
                    self.coordinator.receive(link, message, time.monotonic())
                )
        except (EndpointClosed, FrameError):
            # gone, or framing sync is lost: either way nothing more
            # can be read from it
            self._selector.unregister(endpoint)
            del self._endpoints[link]
            endpoint.close()

    def _transmit(self, out: List[Tuple[Any, Dict[str, Any]]]) -> None:
        for link, message in out:
            endpoint = self._endpoints.get(link)
            if endpoint is None:
                continue
            try:
                endpoint.send(message)
            except (EndpointClosed, FrameError):
                pass  # the agent will reconnect and retry

    # -- finalization ------------------------------------------------------------------

    def _synthesize_aborts(
        self, merged: List[TraceEvent]
    ) -> List[TraceEvent]:
        """Coordinator ABORT events for escrows with no terminal phase.

        A source that committed into a partition (or died) may never
        reach its target: the merged trace would end with a prepared or
        committed escrow and no attach/abort, which AG302 rightly flags
        on a complete trace.  The coordinator owns the escrow outcome,
        so it closes such escrows with an abort carrying the escrow's
        own fencing token.
        """
        phases: Dict[str, set] = {}
        last_time = 0
        max_clock = 0
        for event in merged:
            record = event.record
            if event.clock is not None:
                max_clock = max(max_clock, event.clock)
            time_value = record.get("time")
            if isinstance(time_value, int):
                last_time = max(last_time, time_value)
            if "escrow_id" in record and "phase" in record:
                phases.setdefault(str(record["escrow_id"]), set()).add(
                    str(record["phase"])
                )
        synthesized: List[TraceEvent] = []
        for escrow_id in sorted(phases):
            seen = phases[escrow_id]
            if seen & {"attach", "abort"}:
                continue
            entry = self.coordinator.escrows.get(escrow_id, {})
            max_clock += 1
            record = record_to_dict(
                EscrowEvent(
                    time=last_time,
                    phase=EscrowPhase.ABORT,
                    escrow_id=escrow_id,
                    service_name=entry.get("service_name", ""),
                    instance_id=entry.get("instance_id", ""),
                    source_domain=entry.get("source_domain", ""),
                    target_domain=entry.get("target_domain", ""),
                    source_host=entry.get("source_host", ""),
                    target_host=entry.get("target_host", ""),
                    fencing_token=entry.get("token"),
                    note="coordinator abort: escrow unresolved at run end",
                )
            )
            synthesized.append(
                TraceEvent(
                    seq=len(synthesized) + 1,
                    topic=TOPIC_ESCROW,
                    record=record,
                    clock=max_clock,
                )
            )
            if entry:
                entry["state"] = "aborted"
        return synthesized

    def finalize(
        self,
        out_dir: Path,
        ignore: Tuple[str, ...] = (),
        name: str = "multiproc",
        store_path: Optional[Path] = None,
    ):
        """Merge, verify and export the federation's run artifacts.

        Reads what each agent left in its domain directory —
        ``summary.json`` (kept as :attr:`domain_summaries`) and the
        ``events`` rows of ``state.db``, complete under any wire chaos
        because they never crossed the wire — and raises
        ``RuntimeError`` for a domain that wrote no summary.
        ``store_path`` additionally writes every per-source stream into
        one SQLite event store
        (:class:`repro.ops.store.TelemetryStore`); reading the store
        back merges the sources by Lamport clock into the same stream
        verified here.  Both outputs replace what an earlier run left
        at their paths.  Returns ``(report, merged_summary,
        merged_trace_path)``.  The server's loop ends here: the escrow
        ledger is read on the caller's thread, once nothing writes it.
        """
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        complete = True
        sources = []
        for domain in self.domains:
            summary_path = self.state_dir / domain / "summary.json"
            if not summary_path.exists():
                raise RuntimeError(
                    f"agent {domain} finished without writing {summary_path}"
                )
            self.domain_summaries[domain] = load_summary(summary_path)
            header, events = read_store(self.state_dir / domain / STATE_FILE)
            complete = complete and header.complete
            sources.append((domain, events))
        merged = merge_traces(sources)
        # stopped after the reads: the loop closes the leases, the last
        # connections to the files just read, so no -wal/-shm stays behind
        self.stop()
        synthesized = self._synthesize_aborts(merged)
        if synthesized:
            merged = merge_traces([("", merged), ("server", synthesized)])
        if store_path is not None:
            with TelemetryStore(store_path) as event_store:
                event_store.clear()
                for domain, events in [*sources, ("server", synthesized)]:
                    event_store.insert_events(
                        domain,
                        [
                            (e.seq, e.topic, e.record, e.clock)
                            for e in events
                        ],
                    )
                event_store.mark_complete(complete)
        merged_summary = merge_summaries(self.domain_summaries, self.horizon)
        verifier = TraceVerifier(ignore=ignore)
        for event in merged:
            verifier.feed(event)
        report = verifier.report(
            name, complete=complete, summary=merged_summary
        )
        trace_path = out_dir / "telemetry.jsonl"
        write_trace(trace_path, merged, complete=complete)
        (out_dir / "summary.json").write_text(
            json.dumps(merged_summary, indent=2), encoding="utf-8"
        )
        return report, merged_summary, trace_path


#: Summary keys that add up across domains.
_SUMMED_KEYS = (
    "total_overload_minutes",
    "episode_count",
    "action_count",
    "escalation_count",
    "total_down_minutes",
    "downtime_episode_count",
    "injected_fault_count",
    "retried_action_count",
    "compensated_action_count",
    "failed_action_count",
    "fenced_action_count",
    "controller_down_minutes",
    "controller_crash_count",
    "leader_partition_count",
    "expired_approval_count",
    "pending_approval_count",
)


def merge_summaries(
    summaries: Dict[str, Dict[str, Any]], horizon: int
) -> Dict[str, Any]:
    """Fold per-agent run summaries into one federation summary.

    Counters sum; per-service availability tables union (service homes
    are disjoint across domains, and an adopted service is accounted by
    exactly one agent — its adopter — after its source scales to zero);
    the headline availability figures are recomputed from the merged
    table.  The result satisfies the same AG305 accounting identities
    against the merged trace that each agent's summary satisfies against
    its own stream.
    """
    merged: Dict[str, Any] = {
        "schema": "multiproc-merged",
        "domains": sorted(summaries),
        "horizon_minutes": horizon,
    }
    per_domain = [summaries[d] for d in sorted(summaries)]
    if not per_domain:
        return merged
    first = per_domain[0]
    for key in ("scenario", "user_factor", "start_minute"):
        if key in first:
            merged[key] = first[key]
    for key in _SUMMED_KEYS:
        values = [s.get(key) for s in per_domain if key in s]
        if values:
            merged[key] = sum(values)
    action_counts: Dict[str, int] = {}
    availability: Dict[str, Dict[str, Any]] = {}
    host_down: Dict[str, int] = {}
    instance_counts: Dict[str, int] = {}
    expired_by_service: Dict[str, int] = {}
    for summary in per_domain:
        for action, count in (summary.get("action_counts") or {}).items():
            action_counts[action] = action_counts.get(action, 0) + int(count)
        for name, count in (
            summary.get("expired_approvals_by_service") or {}
        ).items():
            expired_by_service[name] = expired_by_service.get(name, 0) + int(
                count
            )
        for name, record in (summary.get("availability_by_service") or {}).items():
            if name in availability:
                down = availability[name]["down_minutes"] + int(
                    record.get("down_minutes", 0)
                )
                episodes = availability[name]["episode_count"] + int(
                    record.get("episode_count", 0)
                )
            else:
                down = int(record.get("down_minutes", 0))
                episodes = int(record.get("episode_count", 0))
            availability[name] = {
                "availability": (
                    (horizon - down) / horizon if horizon else 1.0
                ),
                "down_minutes": down,
                "episode_count": episodes,
                "mttr_minutes": (down / episodes) if episodes else 0.0,
            }
        for host, minutes in (summary.get("host_down_minutes") or {}).items():
            host_down[host] = host_down.get(host, 0) + int(minutes)
        for name, count in (summary.get("final_instance_counts") or {}).items():
            instance_counts[name] = instance_counts.get(name, 0) + int(count)
    merged["action_counts"] = action_counts
    merged["availability_by_service"] = availability
    merged["host_down_minutes"] = host_down
    merged["final_instance_counts"] = instance_counts
    merged["expired_approvals_by_service"] = dict(
        sorted(expired_by_service.items())
    )
    if availability:
        values = [record["availability"] for record in availability.values()]
        merged["mean_availability"] = sum_forward(values, 0, len(values)) / len(values)
    merged["violates_default_sla"] = any(
        s.get("violates_default_sla") for s in per_domain
    )
    return merged
