"""The event bus: synchronous, deterministic publish/subscribe.

Ordering and backpressure guarantees (relied on by the byte-identity
acceptance tests):

* **Global order.** Every publish gets the next value of one monotonic
  sequence number, across all topics.  Consumers observing two records
  can always order them.
* **Synchronous delivery.** Subscribers run inline, in subscription
  order (topic subscribers before wildcard subscribers), before
  ``publish`` returns.  There is no queueing and no thread hop, so a
  seeded simulation stays deterministic.
* **Bounded history.** Each topic keeps the last ``history`` envelopes
  in a ring buffer (drop-oldest), an in-process tail for
  :meth:`EventBus.tail`; subscribers never miss records because they
  are called at publish time, not replayed from the rings.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.telemetry.records import TelemetryRecord, topic_of

__all__ = ["Envelope", "EventBus", "Subscriber"]

#: Per-topic ring size; generous for a full 80-hour run's action volume.
DEFAULT_HISTORY = 4096


@dataclass(frozen=True)
class Envelope:
    """One published record plus its bus metadata."""

    seq: int
    topic: str
    record: TelemetryRecord


Subscriber = Callable[[Envelope], None]

#: Subscribe to every topic.
WILDCARD = "*"


class EventBus:
    """Typed publish/subscribe hub with bounded per-topic history."""

    def __init__(self, history: int = DEFAULT_HISTORY) -> None:
        if history < 1:
            raise ValueError("history must be at least one envelope per topic")
        self._history_limit = history
        self._seq = 0
        self._rings: Dict[str, Deque[Envelope]] = {}
        self._subscribers: Dict[str, List[Subscriber]] = {}
        self._wildcard: List[Subscriber] = []
        self._published: Dict[str, int] = {}

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recent publish (0 before any)."""
        return self._seq

    def fast_forward(self, seq: int) -> None:
        """Advance the sequence counter without publishing.

        A resumed process rebuilds a fresh bus but appends to a trace
        that already holds envelopes 1..``seq``; fast-forwarding keeps
        post-resume sequence numbers unique so per-source dedup keyed on
        ``(domain, seq)`` stays sound.  Only forward jumps are allowed —
        rewinding would mint duplicate sequence numbers.
        """
        if self._seq > 0:
            raise RuntimeError("fast_forward requires a fresh bus")
        if seq < 0:
            raise ValueError("sequence numbers are non-negative")
        self._seq = int(seq)

    def publish(self, record: TelemetryRecord) -> Envelope:
        """Publish one record; returns its envelope.

        The topic is derived from the record type; foreign types raise
        ``TypeError`` at the call site, not in some consumer later.
        """
        topic = topic_of(record)
        self._seq += 1
        envelope = Envelope(self._seq, topic, record)
        ring = self._rings.get(topic)
        if ring is None:
            ring = self._rings[topic] = deque(maxlen=self._history_limit)
        ring.append(envelope)
        self._published[topic] = self._published.get(topic, 0) + 1
        for callback in tuple(self._subscribers.get(topic, ())):
            callback(envelope)
        for callback in tuple(self._wildcard):
            callback(envelope)
        return envelope

    def subscribe(self, topic: str, callback: Subscriber) -> None:
        """Register a callback for one topic (or ``"*"`` for all)."""
        if topic == WILDCARD:
            self._wildcard.append(callback)
            return
        self._subscribers.setdefault(topic, []).append(callback)

    def unsubscribe(self, topic: str, callback: Subscriber) -> bool:
        """Remove a subscription; returns whether it existed."""
        bucket = (
            self._wildcard if topic == WILDCARD else self._subscribers.get(topic)
        )
        if bucket is None or callback not in bucket:
            return False
        bucket.remove(callback)
        return True

    def tail(
        self, topic: Optional[str] = None, limit: int = 50
    ) -> List[Envelope]:
        """The most recent envelopes, oldest first.

        With a topic, tails that ring; without, merges every ring by
        sequence number.  Only what the bounded rings still hold is
        visible here.
        """
        if limit < 1:
            return []
        if topic is not None:
            ring = self._rings.get(topic)
            if not ring:
                return []
            return list(ring)[-limit:]
        merged = list(heapq.merge(*self._rings.values(), key=lambda e: e.seq))
        return merged[-limit:]

    def counts(self) -> Dict[str, int]:
        """Total records ever published per topic (not just ring contents)."""
        return dict(self._published)

    def __repr__(self) -> str:
        return (
            f"EventBus(seq={self._seq}, "
            f"topics={sorted(self._published)})"
        )
