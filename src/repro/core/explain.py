"""Explaining controller decisions.

Fuzzy controllers are "capable of utilizing knowledge of an experienced
human operator" (Section 3) — and the flip side is that their decisions
can be explained back to that operator in the operator's own terms:
which situation was handled, why rejected actions fell through, and
what was executed.

:func:`explain_decision` renders one Figure-6 decision record,
:func:`explain_last_decisions` the most recent ones.
"""

from __future__ import annotations

from typing import List

from repro.core.decision import DecisionRecord

__all__ = ["explain_decision", "explain_last_decisions"]


def explain_decision(record: DecisionRecord) -> str:
    """Narrate one Figure-6 decision: the situation, the path, the outcome."""
    lines: List[str] = [f"situation: {record.situation}"]
    if record.considered:
        lines.append("considered and rejected:")
        for note in record.considered:
            lines.append(f"  - {note}")
    if record.outcome is not None:
        lines.append(f"executed: {record.outcome}")
    else:
        lines.append("executed: nothing (no applicable action)")
    return "\n".join(lines)


def explain_last_decisions(records: List[DecisionRecord], limit: int = 3) -> str:
    """The most recent decisions, newest first."""
    if not records:
        return "(no decisions recorded yet)"
    chunks = [explain_decision(record) for record in records[-limit:][::-1]]
    return "\n\n".join(chunks)
