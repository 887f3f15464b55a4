"""Helpers shared across the test packages."""

from repro.telemetry.bus import WILDCARD
from repro.telemetry.records import (
    TOPIC_ACTIONS,
    TOPIC_ALERTS,
    TOPIC_SITUATIONS,
    SituationPhase,
    record_to_dict,
)
from repro.telemetry.trace import trace_event_line, trace_header_line


def published(bus, topic):
    """The records published on ``topic`` from now on: a list the bus
    appends to (the producers keep no copy)."""
    records = []
    bus.subscribe(topic, lambda envelope: records.append(envelope.record))
    return records


def confirmed(bus):
    """The situations the LMS confirms on ``bus`` from now on: its
    CONFIRMED situation events, in publish order."""
    situations = []

    def on_situation(envelope):
        if envelope.record.phase is SituationPhase.CONFIRMED:
            situations.append(envelope.record)

    bus.subscribe(TOPIC_SITUATIONS, on_situation)
    return situations


def executed(platform):
    """The outcomes of the actions ``platform`` executes from now on."""
    outcomes = []
    platform.bus.subscribe(
        TOPIC_ACTIONS, lambda envelope: outcomes.append(envelope.record.outcome)
    )
    return outcomes


def alerts_of(platform):
    """The alerts published on ``platform``'s bus from now on."""
    return published(platform.bus, TOPIC_ALERTS)


def escalations(alerts):
    return [alert for alert in alerts if alert.severity == "escalation"]


class JsonlRecorder:
    """The independent JSONL oracle: a bus subscriber that records, line
    for line, what a streaming trace writer would write for the bus —
    the bytes every rendering of an event store is compared against."""

    def __init__(self, bus):
        self.lines = [trace_header_line(bus.last_seq == 0)]
        bus.subscribe(WILDCARD, self._on_envelope)

    def _on_envelope(self, envelope):
        self.lines.append(
            trace_event_line(
                envelope.seq, envelope.topic, record_to_dict(envelope.record)
            )
        )

    def write(self, path):
        path.write_text("".join(f"{line}\n" for line in self.lines), encoding="utf-8")
        return path
