"""Simulated time.

One tick is one simulated minute.  All simulation runs of the paper
cover 80 hours (4800 minutes) "carried out in 40-fold acceleration"; the
acceleration is irrelevant for a discrete simulator, so we simply step
4800 ticks.  Minute 0 is midnight of day 0.
"""

from __future__ import annotations

__all__ = [
    "MINUTES_PER_DAY",
    "PAPER_HORIZON_MINUTES",
    "format_minute",
    "parse_clock_time",
]

MINUTES_PER_DAY = 24 * 60

#: The paper's simulation horizon: 80 hours.
PAPER_HORIZON_MINUTES = 80 * 60


def format_minute(minute: int) -> str:
    """Render an absolute minute as ``d HH:MM`` (e.g. ``1 08:30``)."""
    day, minute_of_day = divmod(minute, MINUTES_PER_DAY)
    hour, minute_in_hour = divmod(minute_of_day, 60)
    return f"{day} {hour:02d}:{minute_in_hour:02d}"


def parse_clock_time(text: str) -> int:
    """Parse a wall-clock time of day (``HH:MM``) into a minute of day.

    Raises :class:`ValueError` with a precise message on anything that
    is not a valid 24-hour time — the CLI forwards these verbatim.
    """
    parts = text.strip().split(":")
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise ValueError(
            f"invalid clock time {text!r}: expected HH:MM (e.g. 12:00)"
        )
    hour, minute = int(parts[0]), int(parts[1])
    if hour > 23:
        raise ValueError(f"invalid clock time {text!r}: hour must be 0-23")
    if minute > 59:
        raise ValueError(f"invalid clock time {text!r}: minute must be 0-59")
    return hour * 60 + minute
