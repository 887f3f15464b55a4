"""The server-selection fuzzy controller (Section 4.2).

"In the case of a scale-out, scale-up, scale-down, move, or start, an
appropriate target server where the action should take place must be
chosen.  [...]  First, a list of all possible servers is determined.
[...]  For each server the fuzzy controller is executed with the input
variables initialized to the current values.  [...]  In the
defuzzification phase, the controller calculates a crisp value for every
possible host and selects the most applicable server."

Candidate filtering (constraints, protection mode) happens in the
decision loop; this module only scores hosts that were already deemed
possible.  Ties are broken by lower current CPU load, then by host name,
so rankings are deterministic.

On the columnar substrate the per-server evaluation is incremental: a
:class:`_ScoreTable` keeps the suitability of every host and re-scores
only hosts whose inputs changed since it last looked (DESIGN §14).
Either way the scores come from the rule base's compiled program
(:mod:`repro.fuzzy.compiled`); the paths differ in how inputs are gathered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence

import numpy as np

from repro.config.model import Action
from repro.core import variables
from repro.core.rulebases import default_server_rulebases
from repro.fuzzy.compiled import Program
from repro.fuzzy.controller import FuzzyController
from repro.fuzzy.rules import RuleBase
from repro.serviceglobe.host import ServiceHost
from repro.serviceglobe.landscape_state import LandscapeState
from repro.serviceglobe.platform import Platform

__all__ = ["RankedHost", "ServerSelector", "host_measurements"]

OUTPUT_VARIABLE = "suitability"

#: How far ahead reserved capacity is counted against a candidate host;
#: matches the protection window, i.e. roughly the horizon within which
#: the controller will not revisit the placement.
RESERVATION_HORIZON_MINUTES = 30


@dataclass(frozen=True)
class RankedHost:
    """One candidate host with its defuzzified suitability score."""

    host_name: str
    score: float

    def __str__(self) -> str:
        return f"{self.host_name}={self.score:.0%}"


def host_measurements(
    platform: Platform,
    host: ServiceHost,
    reservations=None,
) -> Dict[str, float]:
    """The Table 3 input variables for one candidate host.

    With a :class:`repro.allocation.reservations.ReservationBook`, the
    CPU load includes the capacity reserved for mission-critical tasks
    within the next :data:`RESERVATION_HORIZON_MINUTES`, so the fuzzy
    scoring steers new instances away from hosts whose headroom is
    already promised (Section 7 future work).
    """
    spec = host.spec
    cpu_load = platform.host_cpu_load(host.name)
    if reservations is not None:
        cpu_load = reservations.effective_cpu_load(
            host.name,
            cpu_load,
            host.cpu_capacity,
            platform.current_time,
            horizon=RESERVATION_HORIZON_MINUTES,
        )
    return {
        "cpuLoad": cpu_load,
        "memLoad": platform.host_mem_load(host.name),
        "instancesOnServer": float(len(host.running_instances)),
        "performanceIndex": float(spec.performance_index),
        "numberOfCpus": float(spec.num_cpus),
        "cpuClock": float(spec.cpu_clock_mhz),
        "cpuCache": float(spec.cpu_cache_kb),
        "memory": float(host.memory_free_mb(platform.memory_of)),
        "swapSpace": float(spec.swap_space_mb),
        "tempSpace": float(spec.temp_space_mb),
    }


class _Ranking(Sequence[RankedHost]):
    """Best-first ranking that builds :class:`RankedHost` objects on access.

    Owns its sorted id and score arrays (gathered copies), so a later
    refresh of the score table does not change it.
    """

    __slots__ = ("_names", "_ids", "_scores", "_stats")

    def __init__(self, names, ids, scores, stats) -> None:
        self._names = names
        self._ids = ids
        self._scores = scores
        self._stats = stats

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        self._stats["ranked_materialised"] += 1
        return RankedHost(self._names[self._ids[index]], float(self._scores[index]))


class _ScoreColumn:
    """``scores`` and ``cpuLoad`` of every host under one rule base."""

    __slots__ = ("scores", "cpu", "seen", "program")

    def __init__(self, size: int, program: Program) -> None:
        self.scores = np.empty(size, dtype=np.float64)
        self.cpu = np.empty(size, dtype=np.float64)
        #: ``state.refresh_seq`` up to which the columns are current
        self.seen = -1
        #: the compiled rule base the scores came from; a recompiled one
        #: (its rules changed) re-scores the whole column
        self.program = program


class _ScoreTable:
    """Incremental host-suitability table of one landscape state.

    Holds what is fixed per state — the six spec-derived inputs as
    columns and each host's rank in name order (the last tie-break, as
    an integer column) — plus one :class:`_ScoreColumn`
    per action, refreshed only for hosts whose ``host_stamp`` moved past
    the column's ``seen``.  Dropped when the state is replaced or
    :meth:`LandscapeState.rebuild` ran (``restore_state``).
    """

    __slots__ = ("state", "rebuilds", "static_inputs", "name_rank", "columns")

    def __init__(self, state: LandscapeState, static_fields) -> None:
        self.state = state
        self.rebuilds = state.rebuilds
        specs = [host.spec for host in state.host_objs]
        self.static_inputs = {
            input_name: np.array(
                [float(getattr(spec, attr)) for spec in specs], dtype=np.float64
            )
            for input_name, attr in static_fields
        }
        names = state.host_index.names
        self.name_rank = np.empty(len(names), dtype=np.int64)
        self.name_rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(
            len(names)
        )
        self.columns: Dict[Action, _ScoreColumn] = {}


class ServerSelector:
    """Scores candidate target hosts for actions that need one.

    Parameters
    ----------
    rulebases:
        Per-action rule bases; defaults to the built-in ones.
    reservations:
        Optional reservation book; reserved capacity counts against
        candidate hosts (see :func:`host_measurements`).
    """

    def __init__(
        self,
        rulebases: Optional[Dict[Action, RuleBase]] = None,
        reservations=None,
    ) -> None:
        self._rulebases = (
            rulebases if rulebases is not None else default_server_rulebases()
        )
        self.reservations = reservations
        self._controller = FuzzyController(
            variables.server_selection_inputs(),
            [variables.applicability_variable(OUTPUT_VARIABLE)],
            RuleBase("empty"),
        )
        for rulebase in self._rulebases.values():
            self._controller.engine.validate(rulebase)
        #: host name -> (spec, static Table 3 fields); the spec-derived
        #: inputs never change while the spec object does not, so the
        #: scalar path re-derives only the four load-dependent fields
        self._static_inputs: Dict[str, tuple] = {}
        #: the score table of the landscape state last ranked on; one
        #: slot, holding its state alive, so nothing is keyed by ``id()``
        self._table: Optional[_ScoreTable] = None
        #: the fuzzy controller's batched-path counters, and the selector's
        #: own: plain integers (ops ``/stats``), nothing reads them in a run
        self.fuzzy_stats = self._controller.stats
        self.stats: Dict[str, int] = dict.fromkeys(
            (
                "table_rebuilds",
                "hosts_rescored",
                "rank_calls",
                "scalar_fallbacks",
                "ranked_materialised",
            ),
            0,
        )

    _STATIC_FIELDS = (
        ("performanceIndex", "performance_index"),
        ("numberOfCpus", "num_cpus"),
        ("cpuClock", "cpu_clock_mhz"),
        ("cpuCache", "cpu_cache_kb"),
        ("swapSpace", "swap_space_mb"),
        ("tempSpace", "temp_space_mb"),
    )

    def _measurements_for(
        self, platform: Platform, host: ServiceHost
    ) -> Dict[str, float]:
        """:func:`host_measurements` with the static fields memoized.

        Value-identical to the plain function — the spec-derived fields
        are cached per host (invalidated when the spec object changes)
        and the load-dependent ones read fresh every call.
        """
        spec = host.spec
        cached = self._static_inputs.get(host.name)
        if cached is None or cached[0] is not spec:
            static = {
                input_name: float(getattr(spec, attr))
                for input_name, attr in self._STATIC_FIELDS
            }
            self._static_inputs[host.name] = (spec, static)
        else:
            static = cached[1]
        measurements = dict(static)
        cpu_load = platform.host_cpu_load(host.name)
        if self.reservations is not None:
            cpu_load = self.reservations.effective_cpu_load(
                host.name,
                cpu_load,
                host.cpu_capacity,
                platform.current_time,
                horizon=RESERVATION_HORIZON_MINUTES,
            )
        measurements["cpuLoad"] = cpu_load
        measurements["memLoad"] = platform.host_mem_load(host.name)
        measurements["instancesOnServer"] = float(len(host.running_instances))
        measurements["memory"] = float(host.memory_free_mb(platform.memory_of))
        return measurements

    def score(self, action: Action, measurements: Mapping[str, float]) -> float:
        """Suitability of one host for one action, in [0, 1]."""
        rulebase = self._rulebases.get(action)
        if rulebase is None:
            raise ValueError(f"no server-selection rule base for {action.value}")
        result = self._controller.evaluate(dict(measurements), rulebase)
        return result.outputs[OUTPUT_VARIABLE]

    def rank(
        self,
        platform: Platform,
        action: Action,
        candidates: Sequence[ServiceHost],
    ) -> Sequence[RankedHost]:
        """Score all candidates, most suitable first.

        Thirty-two or more candidates bound to the platform's landscape
        state are ranked off the incremental score table; short lists,
        reservations and unbound hosts gather their measurements per
        host.  Both score with the same compiled program, bit-identical
        to :meth:`score` per host.
        """
        rulebase = self._rulebases.get(action)
        if rulebase is None:
            raise ValueError(f"no server-selection rule base for {action.value}")
        self.stats["rank_calls"] += 1
        if self.reservations is None and len(candidates) >= 32:
            ranked = self._rank_table(platform, action, rulebase, candidates)
            if ranked is not None:
                return ranked
        self.stats["scalar_fallbacks"] += 1
        measurements_list = [
            self._measurements_for(platform, host) for host in candidates
        ]
        outputs = self._controller.evaluate_many(measurements_list, rulebase)
        scored = [
            (RankedHost(host.name, out[OUTPUT_VARIABLE]), measurements["cpuLoad"])
            for host, out, measurements in zip(candidates, outputs, measurements_list)
        ]
        scored.sort(key=lambda pair: (-pair[0].score, pair[1], pair[0].host_name))
        return [ranked for ranked, __ in scored]

    def _rank_table(
        self,
        platform: Platform,
        action: Action,
        rulebase: RuleBase,
        candidates: Sequence[ServiceHost],
    ) -> Optional[Sequence[RankedHost]]:
        """:meth:`rank` as a gather from the score table and one lexsort.

        Returns ``None`` (caller takes the per-host path) when the
        platform has no columnar state, a candidate is not bound to it,
        or the rule base says nothing about suitability.
        """
        state = getattr(platform, "landscape_state", None)
        if state is None:
            return None
        ids = state.host_ids(candidates)
        if ids is None:
            return None
        table = self._table
        if (
            table is None
            or table.state is not state
            or table.rebuilds != state.rebuilds
        ):
            if state.host_ids(state.host_objs) is None:
                return None  # a host object was re-bound to another state
            table = self._table = _ScoreTable(state, self._STATIC_FIELDS)
            self.stats["table_rebuilds"] += 1
        program = self._controller.engine.program(rulebase)
        column = table.columns.get(action)
        if column is None or column.program is not program:
            if not program.outputs:  # suitability is the engine's one output
                return None
            column = table.columns[action] = _ScoreColumn(
                len(table.name_rank), program
            )
        state.flush()
        stale = np.flatnonzero(state.host_stamp > column.seen)
        if len(stale):
            self._rescore(table, column, stale)
        column.seen = state.refresh_seq
        scores = column.scores[ids]
        order = np.lexsort((table.name_rank[ids], column.cpu[ids], -scores))
        return _Ranking(state.host_index.names, ids[order], scores[order], self.stats)

    def _rescore(
        self, table: _ScoreTable, column: _ScoreColumn, ids: "np.ndarray"
    ) -> None:
        """Re-evaluate the controller for hosts ``ids``.

        No stage of the compiled program reduces across contexts, so
        scoring a subset yields the same floats as scoring the whole
        landscape — or each host on its own.
        """
        cpu, mem, running, free = table.state.host_server_inputs(ids)
        columns = {name: values[ids] for name, values in table.static_inputs.items()}
        columns.update(cpuLoad=cpu, memLoad=mem, instancesOnServer=running, memory=free)
        program = column.program
        # the server controller has one output variable: row 0
        column.scores[ids] = program.evaluate(
            program.inputs(columns, len(ids)), self._controller.defuzzifier
        )[0]
        column.cpu[ids] = cpu
        self.stats["hosts_rescored"] += len(ids)
