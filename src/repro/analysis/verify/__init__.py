"""Temporal invariant verification over telemetry event streams (AG3xx).

The runtime counterpart of the static analyzers: AG301-AG305 check a
run's event stream against the safety invariants the architecture
promises (fencing safety, escrow ordering under happens-before,
exactly-once application, compensation completeness, accounting
consistency), and AG306/AG307 statically prove the fuzzy rule bases free
of scale-out/scale-in thrash cycles before any simulation runs.
"""

from repro.analysis.verify.checkers import (
    AccountingChecker,
    CompensationChecker,
    EscrowOrderChecker,
    ExactlyOnceChecker,
    FencingChecker,
    InvariantChecker,
    VerificationContext,
    default_checkers,
)
from repro.analysis.verify.engine import (
    TraceVerifier,
    load_summary,
    read_trace_or_store,
    verify_trace,
    verify_traces,
)
from repro.analysis.verify.hb import VectorClock, vc_format, vc_join, vc_leq
from repro.analysis.verify.oscillation import analyze_oscillation

__all__ = [
    "AccountingChecker",
    "CompensationChecker",
    "EscrowOrderChecker",
    "ExactlyOnceChecker",
    "FencingChecker",
    "InvariantChecker",
    "TraceVerifier",
    "VectorClock",
    "VerificationContext",
    "analyze_oscillation",
    "default_checkers",
    "load_summary",
    "read_trace_or_store",
    "vc_format",
    "vc_join",
    "vc_leq",
    "verify_trace",
    "verify_traces",
]
