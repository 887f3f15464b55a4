"""The temporal-invariant verification engine: one engine, two front ends.

:class:`TraceVerifier` owns the AG301-AG305 stream checkers.  The *live*
front end (``autoglobe run --verify``) attaches it to the telemetry bus
as a wildcard subscriber — sanitizer-style, observing every event the
moment it is published.  The *offline* front end
(:func:`verify_trace`, ``autoglobe verify telemetry.jsonl``) replays an
exported trace through the identical ``feed``/``finish`` path.  Both
normalize records through
:func:`repro.telemetry.records.record_to_dict`, so the two front ends
produce byte-identical reports for the same run.

Findings fold into the familiar
:class:`~repro.analysis.engine.AnalysisReport` — same reporters, same
``--strict``/``--ignore`` semantics, same exit-code contract as
``autoglobe lint``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.analysis.diagnostics import Diagnostic, sorted_diagnostics
from repro.analysis.engine import AnalysisReport
from repro.analysis.verify.checkers import (
    InvariantChecker,
    VerificationContext,
    default_checkers,
)
from repro.telemetry.bus import Envelope, EventBus, WILDCARD
from repro.telemetry.records import TOPIC_REPORTS, record_to_dict
from repro.telemetry.trace import TraceEvent, TraceHeader, merge_traces, read_trace

__all__ = ["TraceVerifier", "read_trace_or_store", "verify_trace", "verify_traces", "load_summary"]

PathLike = Union[str, Path]


class TraceVerifier:
    """Feeds one event stream through every temporal-invariant checker.

    Use either front end, not both: ``attach``/``detach`` for the live
    sanitizer, a ``feed`` loop for offline replay.  ``report`` finalizes
    the checkers and must be called exactly once.
    """

    def __init__(
        self,
        checkers: Optional[List[InvariantChecker]] = None,
        ignore: Iterable[str] = (),
    ) -> None:
        self._checkers = checkers if checkers is not None else default_checkers()
        self._ignore = frozenset(ignore)
        self._bus: Optional[EventBus] = None
        self._live_complete = True
        self._end_time = 0
        self._fed = 0

    @property
    def fed(self) -> int:
        """Events fed so far."""
        return self._fed

    def feed(self, event: TraceEvent) -> None:
        """Run one normalized event through every checker."""
        self._count(event.record.get("time"))
        if event.topic == TOPIC_REPORTS:
            return  # load reports carry no safety-relevant state
        for checker in self._checkers:
            checker.feed(event)

    def _count(self, time: Any) -> None:
        self._fed += 1
        if isinstance(time, int) and time > self._end_time:
            self._end_time = time

    # -- live (sanitizer) front end --------------------------------------------------

    def attach(self, bus: EventBus) -> None:
        """Subscribe to every topic of a bus; events feed as published.

        The live stream is complete when the events fed before (a resumed
        run's prefix, or none) are every envelope the bus numbered so far.
        """
        if self._bus is not None:
            raise RuntimeError("verifier is already attached to a bus")
        self._live_complete = bus.last_seq == self._fed
        bus.subscribe(WILDCARD, self._on_envelope)
        self._bus = bus

    def detach(self) -> None:
        """Stop observing the bus; safe to call when never attached."""
        if self._bus is not None:
            self._bus.unsubscribe(WILDCARD, self._on_envelope)
            self._bus = None

    def _on_envelope(self, envelope: Envelope) -> None:
        if envelope.topic == TOPIC_REPORTS:
            # counted, not converted: no checker reads a load report
            self._count(envelope.record.time)
            return
        self.feed(
            TraceEvent(
                seq=envelope.seq,
                topic=envelope.topic,
                record=record_to_dict(envelope.record),
            )
        )

    # -- finalization -----------------------------------------------------------------

    def report(
        self,
        name: str,
        complete: Optional[bool] = None,
        summary: Optional[Mapping[str, Any]] = None,
    ) -> AnalysisReport:
        """Finalize every checker and fold the findings into a report.

        ``complete`` defaults to what the live attachment observed (the
        events fed before it covered the bus's sequence); offline callers
        pass the trace header's flag.  ``summary`` enables accounting
        reconciliation (AG305).
        """
        self.detach()
        context = VerificationContext(
            complete=self._live_complete if complete is None else complete,
            summary=summary,
            end_time=self._end_time,
        )
        findings: List[Diagnostic] = []
        for checker in self._checkers:
            findings.extend(checker.finish(context))
        kept = [d for d in findings if d.code not in self._ignore]
        return AnalysisReport(name, tuple(sorted_diagnostics(kept)))


def load_summary(path: PathLike) -> Dict[str, Any]:
    """Read a ``summary.json`` produced by the exporter."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a JSON object")
    return payload


def read_trace_or_store(trace_file: PathLike) -> Tuple[TraceHeader, List[TraceEvent]]:
    """Dispatch on file format: SQLite event store or JSONL trace.

    The one reader of a run's events, whoever asks (``autoglobe
    verify``, the federation merge).  Both formats yield the same
    ``(TraceHeader, [TraceEvent])`` shape, so the checkers downstream
    cannot tell which the run was captured in.  A damaged store raises
    :class:`~repro.core.state.StateCorruptError`; a file either reader
    cannot make sense of, :class:`~repro.telemetry.trace.TraceSchemaError`.
    """
    from repro.ops.store import is_store_file, read_store

    if is_store_file(trace_file):
        return read_store(trace_file)
    return read_trace(trace_file)


def verify_trace(
    trace_path: PathLike,
    summary_path: Optional[PathLike] = None,
    ignore: Iterable[str] = (),
    name: str = "",
) -> AnalysisReport:
    """Offline front end: verify one exported ``telemetry.jsonl`` trace.

    A SQLite event store written by ``autoglobe run --store`` is
    accepted in place of the JSONL trace; the report is identical for
    the same run.  When ``summary_path`` is omitted, a ``summary.json``
    sitting next to the trace is picked up automatically (accounting
    reconciliation degrades gracefully to "off" when neither exists).
    Raises :class:`~repro.telemetry.trace.TraceSchemaError` for traces
    written by a newer schema version.
    """
    trace_file = Path(trace_path)
    header, events = read_trace_or_store(trace_file)
    verifier = TraceVerifier(ignore=ignore)
    for event in events:
        verifier.feed(event)
    summary: Optional[Dict[str, Any]] = None
    if summary_path is not None:
        summary = load_summary(summary_path)
    else:
        sibling = trace_file.parent / "summary.json"
        if sibling.exists():
            summary = load_summary(sibling)
    return verifier.report(
        name or trace_file.stem,
        complete=header.complete,
        summary=summary,
    )


def verify_traces(
    trace_paths: List[PathLike],
    summary_path: Optional[PathLike] = None,
    ignore: Iterable[str] = (),
    name: str = "",
) -> AnalysisReport:
    """Verify several per-agent trace exports as one merged run.

    Each file is a multi-process agent's Lamport-stamped event log (its
    ``state.db``, or a JSONL export of it); the streams are
    merged with :func:`~repro.telemetry.trace.merge_traces` into the
    same causally ordered sequence the federation server verifies live,
    so offline replay of the per-agent exports reproduces the server's
    report.  The merged run counts as complete only if every input
    trace is complete.  A single path degrades to :func:`verify_trace`.
    """
    if len(trace_paths) == 1:
        return verify_trace(
            trace_paths[0], summary_path=summary_path, ignore=ignore, name=name
        )
    sources = []
    complete = True
    for path in trace_paths:
        trace_file = Path(path)
        header, events = read_trace_or_store(trace_file)
        complete = complete and header.complete
        sources.append((trace_file.parent.name or trace_file.stem, events))
    sources.sort(key=lambda pair: pair[0])
    merged = merge_traces(sources)
    verifier = TraceVerifier(ignore=ignore)
    for event in merged:
        verifier.feed(event)
    summary: Optional[Dict[str, Any]] = None
    if summary_path is not None:
        summary = load_summary(summary_path)
    return verifier.report(
        name or "merged", complete=complete, summary=summary
    )
