"""Load report batches from ``(subject, metric, time, value)`` rows.

The archive takes one :class:`~repro.telemetry.records.LoadReportBatch`
— one minute — at a time.  Tests that spell samples as rows go through
:func:`record`: one batch per minute, minutes in the order they first
appear, and within a minute the last sample of a series wins at that
series' first position, as a batch of rows always stored them.
"""

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.telemetry.records import LoadReportBatch

Row = Tuple[str, str, int, float]


def batches(rows: Iterable[Row], domain: str = "") -> List[LoadReportBatch]:
    minutes: Dict[int, Dict[Tuple[str, str], float]] = {}
    for subject, metric, time, value in rows:
        minutes.setdefault(time, {})[subject, metric] = value
    return [
        LoadReportBatch(
            time, tuple(samples), np.array(list(samples.values()), dtype=float), domain
        )
        for time, samples in minutes.items()
    ]


def record(archive, rows: Iterable[Row]) -> None:
    """Store ``rows`` in ``archive``, one batch per minute."""
    for batch in batches(rows):
        archive.record_reports(batch)
