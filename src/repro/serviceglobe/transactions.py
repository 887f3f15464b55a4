"""Transactional rearrangements.

ServiceGlobe "offers all the standard functionality of a service
platform like a transaction system" (Section 2).  For the management
plane this means multi-step rearrangements — a sequence of starts,
moves and stops — either complete entirely or leave the platform
untouched.

:class:`PlatformTransaction` takes :meth:`Platform.snapshot_state` on
entry and, if the block raises, hands it back to
:meth:`Platform.restore_state` — the kill-and-resume path::

    with PlatformTransaction(platform):
        platform.execute(Action.SCALE_OUT, "FI", target_host="Blade4")
        platform.execute(Action.MOVE, "LES", instance_id=..., target_host=...)
        # any ActionError here rolls everything back

The undo is exact: every instance returns with its original id, virtual
IP, host, users and demand, instances started inside the block are gone,
the instance sequence is rewound (the next start reuses the first id the
block drew), and priorities and orphans are those of the entry.  An
outcome published inside the block stays published.  Handles held across the block read the restored facts: rows are
never renumbered, and the entry's rows come back in place.

Everything else :meth:`Platform.restore_state` replaces comes back too:
the clock, host health (a host crashed inside the block is up again)
and the stopped services.  The one exception is the fencing watermark,
which only goes up: a token seen inside the block stays seen.  Adopting
a service inside a block is not supported (the entry's payload has no
priority for it).  Transactions are for offline tooling such as
rebalance planning, never for a live controller tick.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.serviceglobe.platform import Platform

__all__ = ["PlatformTransaction"]


class PlatformTransaction:
    """Context manager making a block of platform actions atomic."""

    def __init__(self, platform: Platform) -> None:
        self.platform = platform
        self._snapshot: Dict[str, Any] = {}
        self.active = False

    def __enter__(self) -> "PlatformTransaction":
        self._snapshot = self.platform.snapshot_state()
        self.active = True
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        self.active = False
        if exc_type is not None:
            # A rollback cannot retract outcomes already published to
            # telemetry-bus subscribers; transactions only run
            # in offline tooling (rebalance planning), never inside a
            # controller tick, so live consumers never observe
            # rolled-back outcomes.
            watermark = self.platform.fence.token
            self.platform.restore_state(self._snapshot)
            self.platform.fence.token = max(self.platform.fence.token, watermark)
        return False  # re-raise the original exception
