"""Tests for the landscape feasibility analyzer (AG2xx codes)."""

import dataclasses
import random
import sys

from repro.analysis.diagnostics import Severity
from repro.analysis.engine import LintError, analyze_landscape
from repro.analysis.landscape import _max_matching, analyze_feasibility
from repro.config.builtin import paper_landscape
from repro.config.model import (
    Action,
    LandscapeSpec,
    ServerSpec,
    ServiceConstraints,
    ServiceSpec,
    WorkloadSpec,
)
from tests.analysis import feasibility_oracle

import pytest


def _codes(diagnostics):
    return sorted({d.code for d in diagnostics})


def _service(name, *, users=0, profile="flat", memory_mb=256, **constraints):
    return ServiceSpec(
        name,
        constraints=ServiceConstraints(**constraints),
        workload=WorkloadSpec(
            users=users, profile=profile, memory_per_instance_mb=memory_mb
        ),
    )


def _landscape(servers, services):
    return LandscapeSpec("tiny", servers=servers, services=services)


class TestFeasibility:
    def test_ag201_two_exclusive_services_one_host(self):
        landscape = _landscape(
            [ServerSpec("H1", performance_index=1.0)],
            [
                _service("A", exclusive=True, min_instances=1),
                _service("B", exclusive=True, min_instances=1),
            ],
        )
        diagnostics = analyze_feasibility(landscape)
        [finding] = [d for d in diagnostics if d.code == "AG201"]
        assert finding.severity is Severity.ERROR
        assert "B" in finding.message

    def test_ag201_warns_when_exclusives_crowd_out_others(self):
        landscape = _landscape(
            [
                ServerSpec("Big", performance_index=4.0),
                ServerSpec("Small", performance_index=1.0),
            ],
            [
                _service(
                    "DB", exclusive=True, min_instances=1,
                    min_performance_index=2.0,
                ),
                _service(
                    "APP", min_instances=1, min_performance_index=2.0,
                ),
            ],
        )
        findings = [
            d for d in analyze_feasibility(landscape) if d.code == "AG201"
        ]
        assert [d.severity for d in findings] == [Severity.WARNING]
        assert findings[0].service == "APP"

    def test_ag202_min_performance_index_unsatisfiable(self):
        landscape = _landscape(
            [ServerSpec("H1", performance_index=1.0)],
            [_service("A", min_instances=1, min_performance_index=9.0)],
        )
        assert "AG202" in _codes(analyze_feasibility(landscape))

    def test_ag203_demand_beyond_capacity_is_an_error(self):
        landscape = _landscape(
            [ServerSpec("H1", performance_index=1.0, memory_mb=1 << 20)],
            [_service("A", users=1000, min_instances=1)],
        )
        [finding] = [
            d for d in analyze_feasibility(landscape) if d.code == "AG203"
        ]
        assert finding.severity is Severity.ERROR
        assert finding.details["demand"] > finding.details["capacity"]

    def test_ag203_demand_near_capacity_is_a_warning(self):
        landscape = _landscape(
            [ServerSpec("H1", performance_index=1.0, memory_mb=1 << 20)],
            [_service("A", users=170, min_instances=1)],
        )
        [finding] = [
            d for d in analyze_feasibility(landscape) if d.code == "AG203"
        ]
        assert finding.severity is Severity.WARNING

    def test_ag204_memory_overcommitted(self):
        landscape = _landscape(
            [ServerSpec("H1", performance_index=1.0, memory_mb=512)],
            [_service("A", min_instances=2, memory_mb=512)],
        )
        [finding] = [
            d for d in analyze_feasibility(landscape) if d.code == "AG204"
        ]
        assert finding.severity is Severity.ERROR

    def test_ag205_min_instances_unenforceable(self):
        landscape = _landscape(
            [ServerSpec("H1", performance_index=1.0)],
            [
                _service(
                    "A",
                    min_instances=1,
                    allowed_actions=frozenset({Action.STOP, Action.MOVE}),
                )
            ],
        )
        assert "AG205" in _codes(analyze_feasibility(landscape))

    def test_ag205_not_raised_for_scenario_neutral_services(self):
        """An empty allowed-action set means 'decided by the scenario'."""
        landscape = _landscape(
            [ServerSpec("H1", performance_index=1.0)],
            [_service("A", min_instances=1)],
        )
        assert "AG205" not in _codes(analyze_feasibility(landscape))

    def test_ag208_unknown_profile(self):
        landscape = _landscape(
            [ServerSpec("H1", performance_index=1.0)],
            [_service("A", profile="full-moon")],
        )
        [finding] = [
            d for d in analyze_feasibility(landscape) if d.code == "AG208"
        ]
        assert finding.severity is Severity.ERROR
        assert "full-moon" in finding.message

    def test_paper_landscape_is_feasible(self):
        assert analyze_feasibility(paper_landscape()) == []


class TestEngine:
    def test_paper_landscape_report_is_clean(self):
        report = analyze_landscape(paper_landscape())
        assert report.clean
        assert report.exit_code() == 0

    def test_global_ignore_drops_codes(self):
        landscape = _landscape(
            [ServerSpec("H1", performance_index=1.0)],
            [_service("A", profile="full-moon")],
        )
        report = analyze_landscape(landscape, ignore=["AG208"])
        assert "AG208" not in _codes(report.diagnostics)

    def test_per_service_suppression(self):
        landscape = _landscape(
            [ServerSpec("H1", performance_index=1.0)],
            [
                dataclasses.replace(
                    _service("A", profile="full-moon"),
                    lint_suppressions=frozenset({"AG208"}),
                )
            ],
        )
        report = analyze_landscape(landscape)
        assert report.clean

    def test_suppression_does_not_leak_to_other_services(self):
        landscape = _landscape(
            [ServerSpec("H1", performance_index=1.0)],
            [
                dataclasses.replace(
                    _service("A", profile="full-moon"),
                    lint_suppressions=frozenset({"AG208"}),
                ),
                _service("B", profile="full-moon"),
            ],
        )
        report = analyze_landscape(landscape)
        assert [d.service for d in report.diagnostics] == ["B"]

    def test_raise_for_findings(self):
        landscape = _landscape(
            [ServerSpec("H1", performance_index=1.0)],
            [_service("A", profile="full-moon")],
        )
        report = analyze_landscape(landscape)
        with pytest.raises(LintError, match="AG208") as excinfo:
            report.raise_for_findings()
        assert excinfo.value.report is report

    def test_strict_raises_on_warnings(self):
        landscape = _landscape(
            [ServerSpec("H1", performance_index=1.0, memory_mb=1 << 20)],
            [_service("A", users=170, min_instances=1)],
        )
        report = analyze_landscape(landscape)
        report.raise_for_findings()  # warnings alone do not raise
        with pytest.raises(LintError, match="AG203"):
            report.raise_for_findings(strict=True)

    def test_without_codes(self):
        landscape = _landscape(
            [ServerSpec("H1", performance_index=1.0)],
            [_service("A", profile="full-moon")],
        )
        report = analyze_landscape(landscape)
        assert report.without_codes(["AG208"]).clean


class TestRunnerIntegration:
    def test_runner_records_clean_report(self):
        from repro.sim.runner import SimulationRunner
        from repro.sim.scenarios import Scenario

        runner = SimulationRunner(
            Scenario.STATIC, user_factor=1.0, horizon=1,
            collect_host_series=False,
        )
        assert runner.lint_report is not None
        assert runner.lint_report.exit_code() == 0

    def test_runner_lint_off(self):
        from repro.sim.runner import SimulationRunner
        from repro.sim.scenarios import Scenario

        runner = SimulationRunner(
            Scenario.STATIC, user_factor=1.0, horizon=1,
            collect_host_series=False, lint="off",
        )
        assert runner.lint_report is None

    def test_runner_rejects_error_landscape(self):
        from repro.sim.runner import SimulationRunner
        from repro.sim.scenarios import Scenario

        landscape = paper_landscape()
        landscape.services[0] = dataclasses.replace(
            landscape.services[0],
            rule_overrides={
                "serviceOverloaded": (
                    "IF cpuLoad IS enormous THEN scaleOut IS applicable"
                )
            },
        )
        with pytest.raises(LintError, match="AG102"):
            SimulationRunner(
                Scenario.STATIC, user_factor=1.0, horizon=1,
                landscape=landscape, collect_host_series=False,
            )

    def test_runner_strict_rejects_warnings(self):
        from repro.sim.runner import SimulationRunner
        from repro.sim.scenarios import Scenario

        with pytest.raises(LintError, match="AG203"):
            SimulationRunner(
                Scenario.STATIC, user_factor=1.6, horizon=1,
                collect_host_series=False, lint="strict",
            )

    def test_runner_rejects_bad_lint_mode(self):
        from repro.sim.runner import SimulationRunner
        from repro.sim.scenarios import Scenario

        with pytest.raises(ValueError, match="lint"):
            SimulationRunner(Scenario.STATIC, lint="loud")


class TestControlDomains:
    """AG210-AG213: control-domain feasibility findings."""

    @staticmethod
    def _domained(servers, services, domains, allocation=None):
        from repro.config.model import ControlDomainSpec

        return LandscapeSpec(
            "sharded",
            servers=servers,
            services=services,
            initial_allocation=allocation or [],
            domains=[
                ControlDomainSpec(name, servers=tuple(members))
                for name, members in domains
            ],
        )

    def test_ag210_unknown_server_reference(self):
        landscape = self._domained(
            [ServerSpec("H1", performance_index=1.0)],
            [_service("A")],
            [("d1", ["H1", "ghost"])],
        )
        [finding] = [
            d for d in analyze_feasibility(landscape) if d.code == "AG210"
        ]
        assert finding.severity is Severity.ERROR
        assert "ghost" in finding.message

    def test_ag211_empty_domain_warns(self):
        landscape = self._domained(
            [ServerSpec("H1", performance_index=1.0)],
            [_service("A")],
            [("d1", ["H1"]), ("idle", [])],
        )
        [finding] = [
            d for d in analyze_feasibility(landscape) if d.code == "AG211"
        ]
        assert finding.severity is Severity.WARNING
        assert "idle" in finding.message

    def test_ag212_exclusive_service_split_across_domains(self):
        landscape = self._domained(
            [
                ServerSpec("H1", performance_index=1.0),
                ServerSpec("H2", performance_index=1.0),
            ],
            [_service("A", exclusive=True, min_instances=1)],
            [("d1", ["H1"]), ("d2", ["H2"])],
            allocation=[("A", "H1"), ("A", "H2")],
        )
        [finding] = [
            d for d in analyze_feasibility(landscape) if d.code == "AG212"
        ]
        assert finding.severity is Severity.ERROR
        assert finding.service == "A"

    def test_ag212_silent_when_allocation_stays_home(self):
        landscape = self._domained(
            [
                ServerSpec("H1", performance_index=1.0),
                ServerSpec("H2", performance_index=1.0),
            ],
            [_service("A", exclusive=True, min_instances=1)],
            [("d1", ["H1"]), ("d2", ["H2"])],
            allocation=[("A", "H1")],
        )
        assert "AG212" not in _codes(analyze_feasibility(landscape))

    def test_ag213_min_instances_do_not_fit_any_single_domain(self):
        landscape = self._domained(
            [
                ServerSpec("H1", performance_index=1.0, memory_mb=512),
                ServerSpec("H2", performance_index=1.0, memory_mb=512),
            ],
            [_service("A", min_instances=2, memory_mb=512)],
            [("d1", ["H1"]), ("d2", ["H2"])],
        )
        [finding] = [
            d for d in analyze_feasibility(landscape) if d.code == "AG213"
        ]
        assert finding.severity is Severity.ERROR
        assert finding.details["best_domain_slots"] == 1

    def test_ag213_silent_when_one_domain_fits_everything(self):
        landscape = self._domained(
            [
                ServerSpec("H1", performance_index=1.0, memory_mb=2048),
                ServerSpec("H2", performance_index=1.0, memory_mb=512),
            ],
            [_service("A", min_instances=2, memory_mb=512)],
            [("d1", ["H1"]), ("d2", ["H2"])],
        )
        assert "AG213" not in _codes(analyze_feasibility(landscape))

    def test_no_domain_codes_without_declared_domains(self):
        diagnostics = analyze_feasibility(paper_landscape())
        assert not any(d.code.startswith("AG21") for d in diagnostics)


class TestExclusiveMatching:
    def test_an_augmenting_path_longer_than_the_recursion_limit(self):
        """Slot i holds host i until the last slot, which fits only host 0,
        shifts every holder one host up: one path through all slots."""
        length = sys.getrecursionlimit() + 500
        hosts = [f"h{i}" for i in range(length + 1)]
        slots = [[hosts[i], hosts[i + 1]] for i in range(length)] + [[hosts[0]]]
        matching = _max_matching(slots, hosts)
        assert len(matching) == length + 1
        assert matching[length] == "h0"
        assert all(matching[i] == hosts[i + 1] for i in range(length))

    def test_same_matching_as_the_recursive_search(self):
        """Slots of one host class share their candidate list, as the
        analyzer builds them; the matching, insertion order included, is
        the plain recursive search's."""
        for seed in range(500):
            draw = random.Random(seed)
            hosts = [f"h{i}" for i in range(draw.randint(1, 12))]
            classes = [
                draw.sample(hosts, draw.randint(0, len(hosts)))
                for __ in range(draw.randint(1, 4))
            ]
            slots = [draw.choice(classes) for __ in range(draw.randint(0, 14))]
            expected = feasibility_oracle.max_matching(slots)
            assert list(_max_matching(slots, hosts).items()) == list(
                expected.items()
            ), seed
