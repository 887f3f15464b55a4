"""Tests for the XML loader/writer, including full round-trips."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config.builtin import paper_landscape, paper_landscape_xml
from repro.config.model import (
    Action,
    ControllerMode,
    ControllerSettings,
    LandscapeSpec,
    ServerSpec,
    ServiceConstraints,
    ServiceKind,
    ServiceSpec,
    WorkloadSpec,
)
from repro.config.xml_loader import (
    LandscapeParseError,
    landscape_from_xml,
    load_landscape,
)
from repro.config.xml_writer import landscape_to_xml, save_landscape

#: One attribute of the paper landscape's XML edited (first occurrence),
#: and what the refusal names.
HOSTILE_NUMBERS = [
    pytest.param(('maxInstances="1"', 'maxInstances="1.5"'),
                 "'maxInstances': '1.5' is not an integer", id="maxInstances=1.5"),
    pytest.param(('performanceIndex="1.0"', 'performanceIndex="fast"'),
                 "'performanceIndex': 'fast' is not a number", id="performanceIndex=fast"),
    pytest.param(('cpus="1"', 'cpus="-1"'),
                 "server 'Blade1': needs at least one CPU", id="cpus=-1"),
    pytest.param(('overloadThreshold="0.7"', 'overloadThreshold="nan"'),
                 "<controller> attribute 'overloadThreshold': 'nan' is not a finite number",
                 id="overloadThreshold=nan"),
    pytest.param(('performanceIndex="1.0"', 'performanceIndex="nan"'),
                 "<server> attribute 'performanceIndex': 'nan' is not a finite number",
                 id="performanceIndex=nan"),
]

MINIMAL_XML = """
<landscape name="tiny">
  <controller overloadThreshold="0.7" overloadWatchTime="10" mode="automatic"/>
  <servers>
    <server name="H1" performanceIndex="1"/>
    <server name="H2" performanceIndex="9" cpus="4" memoryMb="12288"/>
  </servers>
  <services>
    <service name="APP" kind="application-server" subsystem="ERP">
      <workload users="150" profile="workday" loadPerUser="0.005"/>
      <constraints minInstances="1">
        <allowedActions>scaleIn scaleOut move</allowedActions>
      </constraints>
    </service>
    <service name="DB" kind="database" subsystem="ERP">
      <constraints exclusive="true" minPerformanceIndex="5" maxInstances="1"/>
    </service>
  </services>
  <allocation>
    <instance service="APP" host="H1"/>
    <instance service="DB" host="H2"/>
  </allocation>
</landscape>
"""


class TestLoader:
    def test_minimal_document(self):
        landscape = landscape_from_xml(MINIMAL_XML)
        assert landscape.name == "tiny"
        assert len(landscape.servers) == 2
        assert len(landscape.services) == 2
        assert landscape.initial_allocation == [("APP", "H1"), ("DB", "H2")]

    def test_server_attributes(self):
        landscape = landscape_from_xml(MINIMAL_XML)
        h2 = landscape.server("H2")
        assert h2.performance_index == 9.0
        assert h2.num_cpus == 4
        assert h2.memory_mb == 12288

    def test_allowed_actions_parsed(self):
        landscape = landscape_from_xml(MINIMAL_XML)
        app = landscape.service("APP")
        assert app.constraints.allowed_actions == frozenset(
            {Action.SCALE_IN, Action.SCALE_OUT, Action.MOVE}
        )

    def test_constraints_parsed(self):
        landscape = landscape_from_xml(MINIMAL_XML)
        db = landscape.service("DB")
        assert db.constraints.exclusive
        assert db.constraints.min_performance_index == 5.0
        assert db.constraints.max_instances == 1

    def test_controller_settings_parsed(self):
        landscape = landscape_from_xml(MINIMAL_XML)
        assert landscape.controller.overload_threshold == pytest.approx(0.7)
        assert landscape.controller.mode is ControllerMode.AUTOMATIC

    def test_missing_sections_default_empty(self):
        landscape = landscape_from_xml('<landscape name="empty"/>')
        assert landscape.servers == []
        assert landscape.services == []
        assert landscape.initial_allocation == []

    def test_rule_overrides_parsed(self):
        xml = """
        <landscape name="rules">
          <services>
            <service name="S">
              <rules trigger="serviceOverloaded">
                IF cpuLoad IS high THEN scaleOut IS applicable
              </rules>
            </service>
          </services>
        </landscape>
        """
        service = landscape_from_xml(xml).service("S")
        assert "serviceOverloaded" in service.rule_overrides
        assert "scaleOut" in service.rule_overrides["serviceOverloaded"]

    def test_malformed_xml_rejected(self):
        with pytest.raises(LandscapeParseError, match="not well-formed"):
            landscape_from_xml("<landscape name='x'")

    def test_wrong_root_rejected(self):
        with pytest.raises(LandscapeParseError, match="landscape"):
            landscape_from_xml("<cluster name='x'/>")

    def test_missing_required_attribute_rejected(self):
        with pytest.raises(LandscapeParseError, match="name"):
            landscape_from_xml("<landscape><servers/></landscape>")

    def test_bad_number_rejected(self):
        xml = """
        <landscape name="x">
          <controller overloadThreshold="very-high"/>
        </landscape>
        """
        with pytest.raises(LandscapeParseError, match="not a number"):
            landscape_from_xml(xml)

    @pytest.mark.parametrize("edit, message", HOSTILE_NUMBERS)
    def test_a_hostile_number_is_a_parse_error(self, edit, message):
        """Non-integers, non-numbers, non-finite numbers and values the
        model refuses: each a LandscapeParseError, never a bare
        ValueError or a failure deep in the fuzzy tables."""
        with pytest.raises(LandscapeParseError, match=message):
            landscape_from_xml(paper_landscape_xml().replace(*edit, 1))

    def test_bad_boolean_rejected(self):
        xml = """
        <landscape name="x">
          <services>
            <service name="S"><constraints exclusive="maybe"/></service>
          </services>
        </landscape>
        """
        with pytest.raises(LandscapeParseError, match="not a boolean"):
            landscape_from_xml(xml)

    def test_unknown_action_rejected(self):
        xml = """
        <landscape name="x">
          <services>
            <service name="S">
              <constraints><allowedActions>explode</allowedActions></constraints>
            </service>
          </services>
        </landscape>
        """
        with pytest.raises(ValueError, match="unknown action"):
            landscape_from_xml(xml)

    def test_unknown_service_kind_rejected(self):
        xml = """
        <landscape name="x">
          <services><service name="S" kind="toaster"/></services>
        </landscape>
        """
        with pytest.raises(LandscapeParseError, match="unknown service kind"):
            landscape_from_xml(xml)


class TestRoundTrip:
    def test_paper_landscape_round_trips(self):
        original = paper_landscape()
        recovered = landscape_from_xml(landscape_to_xml(original))
        assert recovered.name == original.name
        assert recovered.servers == original.servers
        assert recovered.initial_allocation == original.initial_allocation
        assert recovered.controller == original.controller
        for original_service, recovered_service in zip(
            original.services, recovered.services
        ):
            assert recovered_service.name == original_service.name
            assert recovered_service.kind == original_service.kind
            assert recovered_service.constraints == original_service.constraints
            assert recovered_service.workload == original_service.workload

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "landscape.xml"
        save_landscape(paper_landscape(), path)
        recovered = load_landscape(path)
        assert recovered.name == "sap-medium"
        assert len(recovered.servers) == 19

    @given(
        st.integers(min_value=1, max_value=64),
        st.floats(min_value=0.5, max_value=16.0, allow_nan=False),
        st.integers(min_value=0, max_value=100_000),
        st.booleans(),
    )
    def test_generated_landscape_round_trips(self, cpus, index, users, exclusive):
        landscape = LandscapeSpec(
            name="generated",
            servers=[ServerSpec("H", performance_index=index, num_cpus=cpus)],
            services=[
                ServiceSpec(
                    "S",
                    kind=ServiceKind.DATABASE,
                    constraints=ServiceConstraints(exclusive=exclusive),
                    workload=WorkloadSpec(users=users),
                )
            ],
            initial_allocation=[("S", "H")],
            controller=ControllerSettings(),
        )
        recovered = landscape_from_xml(landscape_to_xml(landscape))
        assert recovered.servers == landscape.servers
        assert recovered.services[0].workload.users == users
        assert recovered.services[0].constraints.exclusive == exclusive
