"""The operations plane: persistent telemetry and the live management API.

``repro.ops`` is the layer every external surface plugs into:

* :mod:`repro.ops.store` — the event log: the ``events`` table of a
  state file, committed in batches at tick boundaries; ``autoglobe
  verify``, ``autoglobe tail``, the JSONL export and the federation
  merge all read it.
* :mod:`repro.ops.api` — a stdlib-only asyncio HTTP/WebSocket API
  serving landscape snapshots, open situations, pending approvals and a
  live ``/events`` stream; approve/reject verdicts are routed back into
  the controller through its thread-safe command queue.
* :mod:`repro.ops.console` — the controller console's one frame, rendered
  from the API's snapshots, and the client that fetches them and tails
  the WebSocket.

Import the submodule you need: the package root imports none of them,
so a domain agent that keeps its events in :mod:`repro.ops.store` does
not load asyncio and the API server with it.  Nothing in
:mod:`repro.analysis` or :mod:`repro.sim` is imported by the store, so
the verifier can read stores without a cycle.
"""
