"""Spans around the program's layer boundaries, recorded from outside.

The traced repetition runs the same ``run()`` call as the untraced ones
with class-level wrappers on the layers' entry points, installed and
removed by the suite; nothing under ``src/`` knows it is being traced.
Every span knows its parent (a per-thread stack), so a layer's self time
is its duration minus what its child spans cover.  Spans and totals stay
in memory until the run is over.

Only entry points called at most a few dozen times per tick on the
19-host landscape are wrapped: a span costs two clock reads and a list
append, and the per-host, per-monitor calls below these would turn the
tracing overhead into the measurement.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Tuple

__all__ = ["Tracer", "TARGETS"]

#: ``(module, class, method, span name)``; several entry points of one
#: layer share a span name, and a span nested in one of its own name is
#: not counted twice
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.runner", "SimulationRunner", "run", "sim.runner.run"),
    ("repro.sim.runner", "SimulationRunner", "close", "sim.runner.finalize"),
    ("repro.sim.results", "ResultCollector", "finalize", "sim.runner.finalize"),
    ("repro.sim.workload", "WorkloadModel", "tick", "sim.workload.tick"),
    ("repro.sim.faults", "FaultInjector", "tick", "sim.faults.tick"),
    ("repro.sim.results", "ResultCollector", "observe", "sim.results.observe"),
    ("repro.core.autoglobe", "AutoGlobeController", "tick", "core.autoglobe.tick"),
    ("repro.core.failover", "ControllerSupervisor", "tick", "core.failover.tick"),
    ("repro.core.federation", "FederatedControlPlane", "tick",
     "core.federation.tick"),
    ("repro.monitoring.lms", "LoadMonitoringSystem", "tick", "monitoring.lms.tick"),
    ("repro.monitoring.archive", "InMemoryLoadArchive", "record_reports",
     "monitoring.archive.record"),
    ("repro.monitoring.archive", "SqliteLoadArchive", "record_reports",
     "monitoring.archive.record"),
    ("repro.monitoring.archive", "SqliteLoadArchive", "commit",
     "monitoring.archive.commit"),
    ("repro.core.action_selection", "ActionSelector", "rank",
     "core.action_selection.rank"),
    ("repro.core.action_selection", "ActionSelector", "rank_many",
     "core.action_selection.rank"),
    ("repro.core.action_selection", "ActionSelector", "rank_situations",
     "core.action_selection.rank"),
    ("repro.core.server_selection", "ServerSelector", "rank",
     "core.server_selection.rank"),
    ("repro.fuzzy.inference", "InferenceEngine", "infer", "fuzzy.inference.infer"),
    ("repro.fuzzy.inference", "InferenceEngine", "infer_outputs_many",
     "fuzzy.inference.infer"),
    ("repro.core.decision", "DecisionLoop", "handle", "core.decision.handle"),
    ("repro.serviceglobe.executor", "ActionExecutor", "execute",
     "serviceglobe.executor.execute"),
    ("repro.serviceglobe.platform", "Platform", "execute",
     "serviceglobe.platform.execute"),
    ("repro.serviceglobe.platform", "DomainView", "execute",
     "serviceglobe.platform.execute"),
    ("repro.telemetry.bus", "EventBus", "publish", "telemetry.bus.publish"),
    ("repro.core.state", "StateJournal", "append", "core.state.journal_append"),
    ("repro.core.state", "SnapshotStore", "save", "core.state.snapshot_save"),
    ("repro.core.state", "LeaseStore", "acquire", "core.state.lease"),
    ("repro.core.state", "LeaseStore", "renew", "core.state.lease"),
    ("repro.core.state", "LeaseStore", "release", "core.state.lease"),
    ("repro.ops.store", "TelemetryStore", "flush", "ops.store.flush"),
    ("repro.ops.store", "TelemetryStore", "insert_events",
     "net.server.insert_events"),
    ("repro.ops.api", "OpsBridge", "refresh", "ops.api.refresh"),
    ("repro.net.server", "FederationServer", "finalize", "net.server.finalize"),
    # the two bus subscribers of the ops plane: private, but without them
    # their work would read as the bus's own self time
    ("repro.ops.store", "TelemetryStore", "_on_envelope", "ops.store.ingest"),
    ("repro.ops.api", "OpsBridge", "_on_envelope", "ops.api.forward"),
)


class _Totals:
    __slots__ = ("busy", "self_time", "calls")

    def __init__(self) -> None:
        self.busy = 0.0
        self.self_time = 0.0
        self.calls = 0


class _ThreadState:
    """One thread's span stack and totals (merged when reading)."""

    def __init__(self, thread_name: str) -> None:
        self.thread_name = thread_name
        #: frames: [name, start, seconds covered by children, span index]
        self.stack: List[List[Any]] = []
        self.depth: Dict[str, int] = {}
        self.totals: Dict[str, _Totals] = {}
        #: (name, start, end, parent index or -1)
        self.spans: List[Tuple[str, float, float, int]] = []


class Tracer:
    """Installs the wrappers, keeps the spans, hands out the totals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: List[Tuple[type, str, Callable[..., Any]]] = []
        #: span name -> sum of ``len(result)`` where the result is sized
        self.result_sizes: Dict[str, int] = {}
        #: span name -> calls that returned something other than ``None``
        self.result_hits: Dict[str, int] = {}

    # -- recording ----------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _enter(self, name: str) -> _ThreadState:
        state = self._state()
        state.depth[name] = state.depth.get(name, 0) + 1
        state.stack.append([name, perf_counter(), 0.0, len(state.spans)])
        state.spans.append((name, 0.0, 0.0, -1))  # placeholder keeps the index
        return state

    @staticmethod
    def _exit(state: _ThreadState) -> None:
        end = perf_counter()
        name, start, covered, index = state.stack.pop()
        duration = end - start
        totals = state.totals.get(name)
        if totals is None:
            totals = state.totals[name] = _Totals()
        totals.self_time += duration - covered
        state.depth[name] -= 1
        if state.depth[name] == 0:
            # a span inside one of its own name is already inside its
            # outermost ancestor's busy time
            totals.busy += duration
            totals.calls += 1
        parent = -1
        if state.stack:
            frame = state.stack[-1]
            frame[2] += duration
            parent = frame[3]
        state.spans[index] = (name, start, end, parent)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a call the suite itself makes."""
        state = self._enter(name)
        try:
            yield
        finally:
            self._exit(state)

    # -- installation -------------------------------------------------------------

    def _wrap(self, owner: type, attribute: str, name: str) -> None:
        original = owner.__dict__[attribute]
        enter, leave = self._enter, self._exit
        sizes, hits = self.result_sizes, self.result_hits

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            state = enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                leave(state)
            if result is not None:
                hits[name] = hits.get(name, 0) + 1
                if isinstance(result, list):
                    sizes[name] = sizes.get(name, 0) + len(result)
            return result

        setattr(owner, attribute, traced)
        self._patched.append((owner, attribute, original))

    def install(self) -> None:
        import importlib

        if self._patched:
            raise RuntimeError("tracer is already installed")
        for module_name, class_name, attribute, name in TARGETS:
            owner = getattr(importlib.import_module(module_name), class_name)
            self._wrap(owner, attribute, name)

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- reading ------------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``name -> {busy_s, self_s, calls}`` merged over all threads."""
        merged: Dict[str, Dict[str, float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, totals in state.totals.items():
                entry = merged.setdefault(
                    name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0}
                )
                entry["busy_s"] += totals.busy
                entry["self_s"] += totals.self_time
                entry["calls"] += totals.calls
        return merged

    def spans(self) -> List[Dict[str, Any]]:
        """Every span per thread as ``[name, start, end, parent index]``."""
        with self._lock:
            states = list(self._states)
        return [
            {"thread": state.thread_name, "spans": [list(s) for s in state.spans]}
            for state in states
        ]
