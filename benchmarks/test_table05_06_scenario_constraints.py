"""Tables 5 and 6: services and their possible actions per scenario.

Regenerates both constraint tables from the scenario application logic
and checks them against the paper's rows.
"""

import pytest

from repro.config.builtin import paper_landscape
from repro.config.model import Action
from repro.sim.scenarios import Scenario, scenario_landscape


def render_scenario_table(scenario):
    landscape = scenario_landscape(paper_landscape(), scenario, 1.0)
    rows = []
    for service in landscape.services:
        constraints = service.constraints
        conditions = []
        if constraints.exclusive:
            conditions.append("exclusive")
        if constraints.min_performance_index:
            conditions.append(f"min. perf. index {constraints.min_performance_index:g}")
        if constraints.min_instances > 1:
            conditions.append(f"min. {constraints.min_instances} instances")
        actions = sorted(a.value for a in constraints.allowed_actions)
        rows.append((service.name, "; ".join(conditions) or "-",
                     ", ".join(actions) or "-"))
    return landscape, rows


def print_table(title, rows):
    print(f"\n{title}")
    print(f"{'Service':<10} {'Conditions':<40} {'Possible actions'}")
    for name, conditions, actions in rows:
        print(f"{name:<10} {conditions:<40} {actions}")


@pytest.mark.benchmark(group="table05")
def test_table05_constrained_mobility(benchmark):
    landscape, rows = benchmark(
        lambda: render_scenario_table(Scenario.CONSTRAINED_MOBILITY)
    )
    print_table("Table 5 — services in the CM scenario", rows)

    by_name = {name: actions for name, __, actions in rows}
    # database ERP: exclusive, min perf index 5, no actions
    db_erp = next(r for r in rows if r[0] == "DB-ERP")
    assert "exclusive" in db_erp[1] and "min. perf. index 5" in db_erp[1]
    assert by_name["DB-ERP"] == "-"
    # databases BW, CRM: min perf index 5, no actions
    for name in ("DB-BW", "DB-CRM"):
        assert by_name[name] == "-"
    # central instances: no actions
    for name in ("CI-ERP", "CI-CRM", "CI-BW"):
        assert by_name[name] == "-"
    # application servers: scale-in, scale-out; min 2 FI / min 2 LES
    for name in ("FI", "LES", "PP", "HR", "CRM", "BW"):
        assert by_name[name] == "scaleIn, scaleOut"
    assert landscape.service("FI").constraints.min_instances == 2
    assert landscape.service("LES").constraints.min_instances == 2


@pytest.mark.benchmark(group="table06")
def test_table06_full_mobility(benchmark):
    landscape, rows = benchmark(
        lambda: render_scenario_table(Scenario.FULL_MOBILITY)
    )
    print_table("Table 6 — services in the FM scenario", rows)

    by_name = {name: actions for name, __, actions in rows}
    # the ERP and CRM databases stay pinned
    assert by_name["DB-ERP"] == "-"
    assert by_name["DB-CRM"] == "-"
    # the BW database can be distributed across several servers
    assert by_name["DB-BW"] == "scaleIn, scaleOut"
    assert landscape.service("DB-BW").constraints.max_instances > 1
    # central instances can be relocated
    for name in ("CI-ERP", "CI-CRM", "CI-BW"):
        assert by_name[name] == "move, scaleDown, scaleUp"
    # application servers are fully mobile
    for name in ("FI", "LES", "PP", "HR", "CRM", "BW"):
        assert by_name[name] == "move, scaleDown, scaleIn, scaleOut, scaleUp"
