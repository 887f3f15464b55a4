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

The per-server evaluation is incremental: a :class:`_ScoreTable` keeps
the suitability of every host of the landscape state and re-scores only
hosts whose inputs changed since it last looked (DESIGN §14), with the
rule base's compiled program (:mod:`repro.fuzzy.compiled`).  A ranking is
a gather from that table, however few the candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

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

__all__ = ["RankedHost", "ServerSelector"]

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


#: the Table 3 inputs fixed by a host's spec: input variable, spec field
_STATIC_INPUTS = (
    ("performanceIndex", "performance_index"),
    ("numberOfCpus", "num_cpus"),
    ("cpuClock", "cpu_clock_mhz"),
    ("cpuCache", "cpu_cache_kb"),
    ("swapSpace", "swap_space_mb"),
    ("tempSpace", "temp_space_mb"),
)


class _ScoreTable:
    """Incremental host-suitability table of one landscape state.

    Holds what is fixed per state — the six spec-derived inputs as
    columns and each host's rank in name order (the last tie-break, as
    an integer column) — plus one :class:`_ScoreColumn`
    per action, refreshed only for hosts whose ``host_stamp`` moved past
    the column's ``seen``.  Dropped when the state is replaced or
    :meth:`LandscapeState.restore_columns` ran (``restore_state``).
    """

    __slots__ = ("state", "rebuilds", "static_inputs", "name_rank", "columns")

    def __init__(self, state: LandscapeState) -> None:
        self.state = state
        self.rebuilds = state.rebuilds
        specs = [host.spec for host in state.host_objs]
        self.static_inputs = {
            input_name: np.array(
                [float(getattr(spec, attr)) for spec in specs], dtype=np.float64
            )
            for input_name, attr in _STATIC_INPUTS
        }
        names = state.host_index.names
        self.name_rank = np.empty(len(names), dtype=np.int64)
        self.name_rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(
            len(names)
        )
        self.columns: Dict[Action, _ScoreColumn] = {}

    def inputs(self, ids: "np.ndarray") -> Dict[str, "np.ndarray"]:
        """The Table 3 input variables of hosts ``ids``, one column each."""
        cpu, mem, running, free = self.state.host_server_inputs(ids)
        columns = {name: values[ids] for name, values in self.static_inputs.items()}
        columns.update(cpuLoad=cpu, memLoad=mem, instancesOnServer=running, memory=free)
        return columns


class ServerSelector:
    """Scores candidate target hosts for actions that need one.

    Parameters
    ----------
    rulebases:
        Per-action rule bases; defaults to the built-in ones.
    reservations:
        Optional :class:`repro.allocation.reservations.ReservationBook`:
        the CPU load a candidate is scored with then includes the capacity
        reserved for mission-critical tasks within the next
        :data:`RESERVATION_HORIZON_MINUTES`, so new instances steer away
        from hosts whose headroom is already promised (Section 7 future
        work).
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
        #: the score table of the landscape state last ranked on; one
        #: slot, holding its state alive, so nothing is keyed by ``id()``
        self._table: Optional[_ScoreTable] = None
        #: the fuzzy controller's program counters, and the selector's
        #: own: plain integers (ops ``/stats``), nothing reads them in a run
        self.fuzzy_stats = self._controller.stats
        self.stats: Dict[str, int] = dict.fromkeys(
            ("table_rebuilds", "hosts_rescored", "rank_calls", "ranked_materialised"),
            0,
        )

    def rank(
        self,
        platform: Platform,
        action: Action,
        candidates: Sequence[ServiceHost],
    ) -> Sequence[RankedHost]:
        """Score all candidates, most suitable first: a gather from the
        score table and one lexsort.

        Candidates must be hosts of the platform's landscape state.  With
        a reservation book their rows are re-scored with the booked CPU
        load instead of read from the table.
        """
        rulebase = self._rulebases.get(action)
        if rulebase is None:
            raise ValueError(f"no server-selection rule base for {action.value}")
        self.stats["rank_calls"] += 1
        state = platform.landscape_state
        ids = state.host_ids(candidates)
        if ids is None:
            raise ValueError(
                f"{action.value} candidates are not all hosts of this platform"
            )
        table = self._table
        if (
            table is None
            or table.state is not state
            or table.rebuilds != state.rebuilds
        ):
            table = self._table = _ScoreTable(state)
            self.stats["table_rebuilds"] += 1
        if self.reservations is not None:
            scores, cpu = self._booked(platform, table, rulebase, ids)
        else:
            column = self._column(table, action, rulebase)
            scores, cpu = column.scores[ids], column.cpu[ids]
        order = np.lexsort((table.name_rank[ids], cpu, -scores))
        return _Ranking(state.host_index.names, ids[order], scores[order], self.stats)

    def _column(
        self, table: _ScoreTable, action: Action, rulebase: RuleBase
    ) -> _ScoreColumn:
        """``action``'s column of the table, re-scored where it is stale."""
        program = self._controller.engine.program(rulebase)
        column = table.columns.get(action)
        if column is None or column.program is not program:
            column = table.columns[action] = _ScoreColumn(
                len(table.name_rank), program
            )
        stale = np.flatnonzero(table.state.host_stamp > column.seen)
        if len(stale):
            inputs = table.inputs(stale)
            column.scores[stale] = self._suitability(rulebase, inputs, len(stale))
            column.cpu[stale] = inputs["cpuLoad"]
            self.stats["hosts_rescored"] += len(stale)
        column.seen = table.state.refresh_seq
        return column

    def _booked(self, platform: Platform, table: _ScoreTable, rulebase: RuleBase, ids):
        """Scores and CPU loads of hosts ``ids``, each host's booked
        capacity counted in its CPU load."""
        inputs = table.inputs(ids)
        names, now = table.state.host_index.names, platform.current_time
        inputs["cpuLoad"] = np.array([
            self.reservations.effective_cpu_load(
                names[hid], load, capacity, now, horizon=RESERVATION_HORIZON_MINUTES
            )
            for hid, load, capacity in zip(
                ids.tolist(), inputs["cpuLoad"].tolist(), inputs["performanceIndex"].tolist()
            )
        ])
        return self._suitability(rulebase, inputs, len(ids)), inputs["cpuLoad"]

    def _suitability(self, rulebase: RuleBase, inputs, count: int) -> "np.ndarray":
        """The controller's crisp ``suitability`` of ``count`` hosts.

        No stage of the compiled program reduces across contexts, so
        scoring a subset yields the same floats as scoring the whole
        landscape — or each host on its own.
        """
        crisp = self._controller.engine.infer_outputs_many(rulebase, inputs, count)
        if not len(crisp):
            raise ValueError(f"rule base {rulebase.name!r} asserts no {OUTPUT_VARIABLE}")
        return crisp[0]
