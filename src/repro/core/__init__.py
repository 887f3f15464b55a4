"""AutoGlobe's fuzzy-controller core (Section 4 of the paper).

The controller module consists of two cooperating fuzzy controllers:

* **action selection** (:mod:`repro.core.action_selection`) reacts to a
  confirmed exceptional situation and ranks the management actions of
  Table 2 by applicability, using dedicated rule bases per trigger
  (:mod:`repro.core.rulebases`) evaluated over the input variables of
  Table 1 (:mod:`repro.core.variables`);
* **server selection** (:mod:`repro.core.server_selection`) scores
  candidate target hosts for actions that need one, using per-action
  rule bases over the input variables of Table 3.

:mod:`repro.core.decision` implements the Figure 6 interaction loop
(fall back across hosts, then across actions), and
:mod:`repro.core.autoglobe` is the facade wiring platform, monitoring
and controllers together, including protection mode
(:mod:`repro.core.protection`), constraint verification
(:mod:`repro.core.constraints`), administrator alerting
(:mod:`repro.core.alerts`) and manual execution from the controller
console, whose frame :mod:`repro.ops.console` renders.
"""

from repro.core.action_selection import ActionContext, ActionSelector, RankedAction
from repro.core.alerts import AlertChannel
from repro.core.autoglobe import AutoGlobeController
from repro.core.constraints import verify_action
from repro.core.decision import DecisionLoop, DecisionRecord
from repro.core.explain import explain_decision, explain_last_decisions
from repro.core.protection import ProtectionRegistry
from repro.core.server_selection import RankedHost, ServerSelector

__all__ = [
    "ActionContext",
    "ActionSelector",
    "AlertChannel",
    "AutoGlobeController",
    "DecisionLoop",
    "DecisionRecord",
    "ProtectionRegistry",
    "RankedAction",
    "RankedHost",
    "ServerSelector",
    "explain_decision",
    "explain_last_decisions",
    "verify_action",
]
