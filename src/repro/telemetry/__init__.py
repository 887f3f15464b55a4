"""The telemetry spine.

Every stream of run history the reproduction produces — action outcomes,
injected faults, supervision events, situation transitions, alerts and
the per-tick load reports — flows through one typed
:class:`~repro.telemetry.bus.EventBus` instead of five bespoke private
lists.  Producers publish typed records (:mod:`repro.telemetry.records`);
consumers subscribe by topic.  :mod:`repro.telemetry.windows` holds the
window statistics of the load archive and the LMS's watch windows.

This package is a leaf: it imports nothing from the rest of
:mod:`repro`, so any layer (platform, monitoring, core, sim) can publish
through it without import cycles.
"""

from repro.telemetry.bus import Envelope, EventBus
from repro.telemetry.records import (
    TOPIC_ACTIONS,
    TOPIC_ALERTS,
    TOPIC_ESCROW,
    TOPIC_FAULTS,
    TOPIC_REPORTS,
    TOPIC_SITUATIONS,
    TOPIC_SUPERVISION,
    TOPICS,
    ActionEvent,
    AlertEvent,
    EscrowEvent,
    EscrowPhase,
    FaultRecord,
    LoadReportBatch,
    SituationEvent,
    SituationKind,
    SituationPhase,
    SupervisionEvent,
    SupervisionEventKind,
    TelemetryRecord,
    record_payload,
    record_to_dict,
    topic_of,
)
from repro.telemetry.trace import (
    TRACE_SCHEMA_VERSION,
    TraceEvent,
    TraceHeader,
    TraceSchemaError,
    read_trace,
)
from repro.telemetry.windows import window_bounds

__all__ = [
    "ActionEvent",
    "AlertEvent",
    "Envelope",
    "EscrowEvent",
    "EscrowPhase",
    "EventBus",
    "FaultRecord",
    "LoadReportBatch",
    "SituationEvent",
    "SituationKind",
    "SituationPhase",
    "SupervisionEvent",
    "SupervisionEventKind",
    "TOPICS",
    "TOPIC_ACTIONS",
    "TOPIC_ALERTS",
    "TOPIC_ESCROW",
    "TOPIC_FAULTS",
    "TOPIC_REPORTS",
    "TOPIC_SITUATIONS",
    "TOPIC_SUPERVISION",
    "TRACE_SCHEMA_VERSION",
    "TelemetryRecord",
    "TraceEvent",
    "TraceHeader",
    "TraceSchemaError",
    "read_trace",
    "record_payload",
    "record_to_dict",
    "topic_of",
    "window_bounds",
]
