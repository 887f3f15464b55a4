"""Tests for the landscape designer."""

import numpy as np
import pytest

from repro.allocation.designer import LandscapeDesigner
from repro.config.builtin import paper_landscape
from repro.config.model import (
    LandscapeSpec,
    ServerSpec,
    ServiceConstraints,
    ServiceSpec,
    WorkloadSpec,
)
from repro.config.validation import validate_landscape
from repro.sim.clock import MINUTES_PER_DAY
from repro.sim.scenarios import Scenario, scenario_landscape


def naive_worst_peak(landscape):
    """Predicted worst peak of the landscape's own initial allocation."""
    designer = LandscapeDesigner(landscape)
    counts = {name: len(hosts) for name, hosts in landscape.instance_hosts().items()}
    demand = {s.name: np.zeros(MINUTES_PER_DAY) for s in landscape.servers}
    for service_name, host_name in landscape.initial_allocation:
        demand[host_name] = demand[host_name] + designer.instance_curve(
            landscape.service(service_name), counts[service_name]
        )
    return max(
        float(demand[s.name].max()) / s.performance_index for s in landscape.servers
    )


class TestDesignerOnPaperLandscape:
    @pytest.fixture(scope="class")
    def designed(self):
        return LandscapeDesigner(paper_landscape()).design()

    def test_all_instances_placed(self, designed):
        assert len(designed.assignment) == 19

    def test_result_is_valid_landscape(self, designed):
        landscape = designed.as_landscape(paper_landscape())
        validate_landscape(landscape)
        assert landscape.name.endswith("-designed")

    def test_improves_on_figure11_allocation(self, designed):
        """The designed allocation's predicted worst peak beats the naive
        Figure 11 allocation under the same demand model."""
        assert designed.predicted_peak_load < naive_worst_peak(paper_landscape())

    def test_predicted_peaks_consistent(self, designed):
        assert designed.predicted_peak_load == pytest.approx(
            max(designed.predicted_peak_by_host.values())
        )

    def test_exclusive_database_isolated(self, designed):
        db_hosts = [h for s, h in designed.assignment if s == "DB-ERP"]
        assert len(db_hosts) == 1
        others = [s for s, h in designed.assignment if h == db_hosts[0] and s != "DB-ERP"]
        assert others == []

    def test_databases_on_strong_servers(self, designed):
        landscape = paper_landscape()
        for service_name, host_name in designed.assignment:
            if service_name.startswith("DB-"):
                assert landscape.server(host_name).performance_index >= 5.0


class TestInstanceCountSuggestion:
    def test_paper_landscape_suggestions_cover_demand(self):
        """Suggested counts keep every application instance's predicted
        peak within the target budget."""
        landscape = paper_landscape()
        designer = LandscapeDesigner(landscape)
        counts = designer.suggest_instance_counts(target_peak_load=0.6)
        for spec in landscape.services:
            if spec.kind.value != "application-server":
                continue
            curve = designer.instance_curve(spec, counts[spec.name])
            assert float(curve.max()) <= 0.6 + 1e-9

    def test_more_users_need_more_instances(self):
        landscape = paper_landscape()
        base = LandscapeDesigner(landscape).suggest_instance_counts()
        grown = LandscapeDesigner(
            scenario_landscape(landscape, Scenario.STATIC, 2.0)
        ).suggest_instance_counts()
        assert grown["FI"] > base["FI"]
        assert grown["LES"] > base["LES"]

    def test_min_instances_respected(self):
        counts = LandscapeDesigner(paper_landscape()).suggest_instance_counts(
            target_peak_load=1.0, reference_index=9.0
        )
        # even with a huge budget, FI and LES keep their minimum of 2
        assert counts["FI"] >= 2
        assert counts["LES"] >= 2

    def test_databases_keep_current_counts(self):
        counts = LandscapeDesigner(paper_landscape()).suggest_instance_counts()
        assert counts["DB-ERP"] == 1
        assert counts["CI-ERP"] == 1

    def test_suggestions_feed_design(self):
        landscape = paper_landscape()
        designer = LandscapeDesigner(landscape)
        counts = designer.suggest_instance_counts(target_peak_load=0.5)
        designed = designer.design(instance_counts=counts)
        assert len(designed.assignment) == sum(counts.values())

    def test_invalid_parameters_rejected(self):
        designer = LandscapeDesigner(paper_landscape())
        with pytest.raises(ValueError):
            designer.suggest_instance_counts(target_peak_load=0.0)
        with pytest.raises(ValueError):
            designer.suggest_instance_counts(reference_index=0.0)
        with pytest.raises(ValueError, match="basic load"):
            designer.suggest_instance_counts(target_peak_load=0.01)


class TestDesignerMechanics:
    def _tiny(self, memory_mb=4096):
        return LandscapeSpec(
            name="tiny",
            servers=[
                ServerSpec("H1", performance_index=1.0, memory_mb=memory_mb),
                ServerSpec("H2", performance_index=2.0, memory_mb=memory_mb),
            ],
            services=[
                ServiceSpec(
                    "A",
                    workload=WorkloadSpec(
                        users=150, profile="fi", memory_per_instance_mb=1024
                    ),
                ),
                ServiceSpec(
                    "B",
                    workload=WorkloadSpec(
                        users=300, profile="fi", memory_per_instance_mb=1024
                    ),
                ),
            ],
            initial_allocation=[("A", "H1"), ("B", "H1")],
        )

    def test_heavy_service_goes_to_strong_host(self):
        designed = LandscapeDesigner(self._tiny()).design()
        placement = dict(designed.assignment)
        assert placement["B"] == "H2"

    def test_custom_instance_counts(self):
        designed = LandscapeDesigner(self._tiny()).design(
            instance_counts={"A": 2, "B": 1}
        )
        assert len(designed.assignment) == 3
        assert sum(1 for s, __ in designed.assignment if s == "A") == 2

    def test_infeasible_placement_raises(self):
        landscape = self._tiny(memory_mb=512)  # nothing fits anywhere
        with pytest.raises(ValueError, match="no feasible host"):
            LandscapeDesigner(landscape).design()

    def test_complementary_profiles_share_a_host(self):
        """A night-heavy and a day-heavy service pack onto one server."""
        landscape = LandscapeSpec(
            name="complementary",
            servers=[
                ServerSpec("H1", performance_index=1.0, memory_mb=4096),
                ServerSpec("H2", performance_index=1.0, memory_mb=4096),
            ],
            services=[
                ServiceSpec(
                    "DAY",
                    workload=WorkloadSpec(
                        users=150, profile="fi", memory_per_instance_mb=512
                    ),
                ),
                ServiceSpec(
                    "NIGHT",
                    workload=WorkloadSpec(
                        users=150, profile="bw-batch", memory_per_instance_mb=512
                    ),
                ),
            ],
            initial_allocation=[("DAY", "H1"), ("NIGHT", "H2")],
        )
        designed = LandscapeDesigner(landscape).design()
        # peaks do not overlap: packing both on one host costs (almost)
        # nothing, so the worst predicted peak stays near a single service's
        assert designed.predicted_peak_load < 1.0
