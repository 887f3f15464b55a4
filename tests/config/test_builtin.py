"""Tests pinning the built-in paper landscape to Section 5.1 of the paper."""

import pytest

from repro.config.builtin import (
    INITIAL_ALLOCATION,
    INITIAL_USERS,
    paper_landscape,
    paper_landscape_xml,
)
from repro.config.model import Action, ServiceKind
from repro.config.validation import validate_landscape
from repro.config.xml_loader import landscape_from_xml


@pytest.fixture(scope="module")
def landscape():
    return paper_landscape()


class TestHardware:
    """Figure 11's hardware inventory."""

    def test_nineteen_servers(self, landscape):
        assert len(landscape.servers) == 19

    def test_bx300_blades(self, landscape):
        blades = [s for s in landscape.servers if s.category == "FSC-BX300"]
        assert len(blades) == 8
        for blade in blades:
            assert blade.performance_index == 1.0
            assert blade.num_cpus == 1
            assert blade.cpu_clock_mhz == 933.0
            assert blade.memory_mb == 2048

    def test_bx600_blades(self, landscape):
        blades = [s for s in landscape.servers if s.category == "FSC-BX600"]
        assert len(blades) == 8
        for blade in blades:
            assert blade.performance_index == 2.0
            assert blade.num_cpus == 2
            assert blade.memory_mb == 4096

    def test_bl40p_servers(self, landscape):
        servers = [s for s in landscape.servers if s.category == "HP-Proliant-BL40p"]
        assert len(servers) == 3
        for server in servers:
            assert server.performance_index == 9.0
            assert server.num_cpus == 4
            assert server.cpu_clock_mhz == 2800.0
            assert server.memory_mb == 12288

    def test_total_performance_index(self, landscape):
        assert sum(s.performance_index for s in landscape.servers) == 51.0


class TestServices:
    def test_twelve_services(self, landscape):
        assert len(landscape.services) == 12

    def test_table4_user_counts(self, landscape):
        assert INITIAL_USERS == {
            "FI": (600, 3),
            "LES": (900, 4),
            "PP": (450, 2),
            "HR": (300, 1),
            "CRM": (300, 1),
            "BW": (60, 2),
        }
        for name, (users, __) in INITIAL_USERS.items():
            assert landscape.service(name).workload.users == users

    def test_table4_instance_counts_in_allocation(self, landscape):
        hosts = landscape.instance_hosts()
        for name, (__, instances) in INITIAL_USERS.items():
            assert len(hosts[name]) == instances

    def test_bw_is_batch(self, landscape):
        assert landscape.service("BW").workload.batch
        assert not landscape.service("FI").workload.batch

    def test_databases_require_performance_index_5(self, landscape):
        for name in ("DB-ERP", "DB-CRM", "DB-BW"):
            service = landscape.service(name)
            assert service.kind is ServiceKind.DATABASE
            assert service.constraints.min_performance_index == 5.0

    def test_erp_database_exclusive(self, landscape):
        assert landscape.service("DB-ERP").constraints.exclusive
        assert not landscape.service("DB-CRM").constraints.exclusive

    def test_min_instances_fi_les(self, landscape):
        """Tables 5/6: min. 2 FI instances, min. 2 LES instances."""
        assert landscape.service("FI").constraints.min_instances == 2
        assert landscape.service("LES").constraints.min_instances == 2
        assert landscape.service("HR").constraints.min_instances == 1

    def test_default_landscape_is_static(self, landscape):
        """Actions are scenario-specific; the base landscape allows none."""
        for service in landscape.services:
            assert service.constraints.allowed_actions == frozenset()


class TestAllocation:
    def test_figure11_allocation(self, landscape):
        assert landscape.initial_allocation == INITIAL_ALLOCATION
        hosts = landscape.instance_hosts()
        assert hosts["FI"] == ["Blade3", "Blade5", "Blade11"]
        assert hosts["LES"] == [
            "Blade1",
            "Blade2",
            "Blade12",
            "Blade13",
        ]
        assert hosts["DB-BW"] == ["DBServer3"]

    def test_every_server_initially_used(self, landscape):
        used = {host for __, host in landscape.initial_allocation}
        assert used == {s.name for s in landscape.servers}

    def test_validates(self, landscape):
        validate_landscape(landscape)


class TestCalibration:
    """The load model constants that make Table 4 dimensioning consistent."""

    def test_150_users_per_standard_blade(self, landscape):
        """150 users on a PI=1 blade at peak profile -> 75% CPU load,
        inside the paper's 60-80% main-activity band."""
        fi = landscape.service("FI").workload
        assert 150 * fi.load_per_user == pytest.approx(0.75)

    def test_initial_allocation_perfectly_dimensioned(self, landscape):
        """Least-loaded placement of Table 4's users on the Figure 11 hosts
        yields exactly 75% peak load on every application blade."""
        for name in ("FI", "LES", "PP"):
            service = landscape.service(name)
            hosts = landscape.instance_hosts()[name]
            total_index = sum(landscape.server(h).performance_index for h in hosts)
            load = service.workload.users * service.workload.load_per_user / total_index
            assert load == pytest.approx(0.75)

    def test_erp_database_binds_beyond_135_percent(self, landscape):
        """The exclusive ERP database crosses 80% of DBServer1 between
        135% and 145% of the reference users - the FM capacity bound."""
        erp_users = sum(
            landscape.service(n).workload.users for n in ("FI", "LES", "PP", "HR")
        )
        cost = landscape.service("FI").workload.db_cost_per_user
        basic = landscape.service("DB-ERP").workload.basic_load
        index = landscape.server("DBServer1").performance_index
        load_at = lambda factor: (erp_users * factor * cost + basic) / index
        assert load_at(1.35) < 0.80
        assert load_at(1.45) > 0.80


class TestXmlExport:
    def test_xml_round_trip(self, landscape):
        recovered = landscape_from_xml(paper_landscape_xml())
        assert recovered.servers == landscape.servers
        assert recovered.initial_allocation == landscape.initial_allocation

    def test_shipped_artifact_matches_builtin(self, landscape):
        """The checked-in sap-medium.xml is the builder's ground truth."""
        from repro.config.builtin import shipped_landscape_path
        from repro.config.xml_loader import load_landscape

        shipped = load_landscape(shipped_landscape_path())
        assert shipped.servers == landscape.servers
        assert shipped.initial_allocation == landscape.initial_allocation
        assert shipped.controller == landscape.controller
        for ours, theirs in zip(landscape.services, shipped.services):
            assert theirs.name == ours.name
            assert theirs.constraints == ours.constraints
            assert theirs.workload == ours.workload
