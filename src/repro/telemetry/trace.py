"""Versioned telemetry trace files (``telemetry.jsonl``).

A trace is a JSON-lines file: one header line followed by one line per
bus envelope, in global sequence order.  The header carries the schema
version (so readers can reject traces written by a future format) and a
``complete`` flag — whether the file holds *every* envelope the run
published.  The distinction matters to the verifier: accounting
reconciliation (AG305) is only sound on complete traces.

A trace is an export, never a run's own log: events are rows of an
event store (:mod:`repro.ops.store`) and :func:`write_trace` — the one
JSONL writer — renders them (``autoglobe run --export`` through
:func:`repro.sim.export.export_store_jsonl`, the merged trace of a
``--multiproc`` run in ``FederationServer.finalize``).

A file without a header line is not a trace this version reads:
:func:`read_trace` refuses it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "TRACE_KIND",
    "TraceSchemaError",
    "TraceHeader",
    "TraceEvent",
    "trace_header_line",
    "trace_event_line",
    "read_trace",
    "merge_traces",
    "write_trace",
    "LamportClock",
]

#: Current trace format version.  Bump on any incompatible change to the
#: header or event-line layout; readers reject anything newer.
TRACE_SCHEMA_VERSION = 1

#: Sanity marker distinguishing a trace header from an ordinary record.
TRACE_KIND = "autoglobe-trace"

PathLike = Union[str, Path]


class TraceSchemaError(ValueError):
    """The trace file violates the schema or is from a newer version."""


@dataclass(frozen=True)
class TraceHeader:
    """The trace file's leading metadata line."""

    schema_version: int
    #: whether the file holds the run's full event stream
    complete: bool


@dataclass(frozen=True)
class TraceEvent:
    """One replayed envelope: the JSON payload of one trace line.

    ``clock`` is the optional Lamport timestamp multi-process agents
    stamp on their events (see :class:`LamportClock`); single
    process traces omit it and parse with ``clock=None``, keeping the
    default trace format byte-identical.
    """

    seq: int
    topic: str
    record: Dict[str, Any]
    clock: Optional[int] = None


def trace_header_line(complete: bool) -> str:
    """The serialized header line (no trailing newline)."""
    return json.dumps(
        {
            "schema_version": TRACE_SCHEMA_VERSION,
            "kind": TRACE_KIND,
            "complete": complete,
        }
    )


def trace_event_line(
    seq: int,
    topic: str,
    record: Dict[str, Any],
    clock: Optional[int] = None,
) -> str:
    """The serialized event line for one envelope (no trailing newline).

    The ``clock`` key is only emitted when a Lamport timestamp is given,
    so single-process traces are unchanged byte for byte.
    """
    payload: Dict[str, Any] = {"seq": seq, "topic": topic, "record": record}
    if clock is not None:
        payload["clock"] = clock
    return json.dumps(payload)


def _parse_event(payload: Dict[str, Any], line_number: int) -> TraceEvent:
    seq = payload.get("seq")
    topic = payload.get("topic")
    record = payload.get("record")
    if not isinstance(seq, int) or not isinstance(topic, str) or not isinstance(record, dict):
        raise TraceSchemaError(
            f"line {line_number}: not a trace event "
            "(expected seq/topic/record keys)"
        )
    clock = payload.get("clock")
    if clock is not None and not isinstance(clock, int):
        raise TraceSchemaError(
            f"line {line_number}: clock must be an integer when present"
        )
    return TraceEvent(seq=seq, topic=topic, record=record, clock=clock)


def read_trace(path: PathLike) -> Tuple[TraceHeader, List[TraceEvent]]:
    """Read a telemetry trace; returns its header and events in order.

    Raises :class:`TraceSchemaError` for traces written by a newer
    schema version, for a file whose first line is not a header, for
    lines that are not UTF-8 JSON, and for event lines missing the
    ``seq``/``topic``/``record`` keys.
    """
    events: List[TraceEvent] = []
    header: Optional[TraceHeader] = None
    with open(path, "rb") as handle:
        for line_number, raw in enumerate(handle, start=1):
            if not raw.strip():
                continue
            try:
                payload = json.loads(raw.decode("utf-8"))
            # not UTF-8, not JSON, or nested past the parser's depth
            except (ValueError, RecursionError) as exc:
                raise TraceSchemaError(
                    f"line {line_number}: not valid JSON: {exc}"
                ) from exc
            if not isinstance(payload, dict):
                raise TraceSchemaError(
                    f"line {line_number}: expected a JSON object"
                )
            if header is None and "schema_version" in payload:
                version = payload["schema_version"]
                if not isinstance(version, int):
                    raise TraceSchemaError(
                        f"line {line_number}: schema_version must be an integer"
                    )
                if version > TRACE_SCHEMA_VERSION:
                    raise TraceSchemaError(
                        f"trace schema version {version} is newer than the "
                        f"supported version {TRACE_SCHEMA_VERSION}"
                    )
                kind = payload.get("kind")
                if kind != TRACE_KIND:
                    raise TraceSchemaError(
                        f"line {line_number}: unexpected trace kind {kind!r}"
                    )
                header = TraceHeader(
                    schema_version=version,
                    complete=bool(payload.get("complete", False)),
                )
                continue
            if header is None:
                raise TraceSchemaError(
                    f"line {line_number}: no trace header line before the events"
                )
            events.append(_parse_event(payload, line_number))
    if header is None:
        raise TraceSchemaError("line 1: no trace header line (an empty file)")
    return header, events


def merge_traces(
    sources: List[Tuple[str, List[TraceEvent]]],
) -> List[TraceEvent]:
    """Merge per-source event streams into one causally consistent trace.

    ``sources`` pairs a stable source label (the domain name) with that
    source's events in local sequence order.  Events are ordered by
    ``(clock, label, seq)`` and renumbered 1..N: the Lamport clock gives
    a linear extension of the happens-before relation (every message
    carries the sender's clock and receivers advance past it), the label
    breaks concurrent ties deterministically, and the local sequence
    preserves program order.  Events without a clock sort by local
    sequence alone, which is only meaningful for single-source input.

    Every AG3xx stream invariant that holds per source holds on the
    merged stream: program order is preserved within a source and the
    escrow-id chains (prepare before commit before attach) follow the
    message chains the clocks linearize.
    """
    keyed = []
    for label, events in sources:
        for event in events:
            clock = event.clock if event.clock is not None else event.seq
            keyed.append(((clock, label, event.seq), event))
    keyed.sort(key=lambda pair: pair[0])
    return [
        TraceEvent(seq=i, topic=e.topic, record=e.record, clock=e.clock)
        for i, (__, e) in enumerate(keyed, start=1)
    ]


def write_trace(
    path: PathLike, events: List[TraceEvent], complete: bool
) -> None:
    """Write a header plus the given events as a trace file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(trace_header_line(complete))
        handle.write("\n")
        for event in events:
            handle.write(
                trace_event_line(event.seq, event.topic, event.record, event.clock)
            )
            handle.write("\n")


class LamportClock:
    """A scalar logical clock shared by a process's bus and its links.

    Every locally published envelope ticks the clock; every received
    wire message advances it past the sender's stamp (``witness``).  The
    resulting per-event stamps give :func:`merge_traces` a linear
    extension of happens-before across processes.
    """

    __slots__ = ("time",)

    def __init__(self, time: int = 0) -> None:
        self.time = int(time)

    def tick(self) -> int:
        self.time += 1
        return self.time

    def witness(self, remote: int) -> int:
        self.time = max(self.time, int(remote))
        return self.time
