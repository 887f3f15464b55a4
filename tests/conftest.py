"""Helpers shared across the test packages."""

from repro.telemetry.bus import WILDCARD
from repro.telemetry.records import record_to_dict
from repro.telemetry.trace import trace_event_line, trace_header_line


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
