"""Tests for semantic landscape validation."""

import dataclasses
import random

import pytest

from repro.analysis.landscape import analyze_feasibility
from repro.config.builtin import paper_landscape
from repro.config.model import (
    ControlDomainSpec,
    LandscapeSpec,
    ServerSpec,
    ServiceConstraints,
    ServiceSpec,
    WorkloadSpec,
)
from repro.config.validation import ValidationError, validate_landscape
from tests.analysis import feasibility_oracle


def tiny_landscape(**overrides):
    base = dict(
        name="tiny",
        servers=[
            ServerSpec("H1", performance_index=1.0, memory_mb=2048),
            ServerSpec("H2", performance_index=9.0, memory_mb=12288),
        ],
        services=[
            ServiceSpec(
                "APP",
                constraints=ServiceConstraints(min_instances=1),
                workload=WorkloadSpec(memory_per_instance_mb=1024),
            ),
            ServiceSpec(
                "DB",
                constraints=ServiceConstraints(
                    exclusive=True, min_performance_index=5.0, max_instances=1
                ),
                workload=WorkloadSpec(memory_per_instance_mb=6144),
            ),
        ],
        initial_allocation=[("APP", "H1"), ("DB", "H2")],
    )
    base.update(overrides)
    return LandscapeSpec(**base)


class TestValidLandscapes:
    def test_tiny_landscape_validates(self):
        validate_landscape(tiny_landscape())

    def test_paper_landscape_validates(self):
        validate_landscape(paper_landscape())


class TestProblems:
    def test_duplicate_server_names(self):
        landscape = tiny_landscape(
            servers=[ServerSpec("H1", 1.0), ServerSpec("H1", 2.0)],
            initial_allocation=[("APP", "H1")],
        )
        with pytest.raises(ValidationError, match="duplicate server"):
            validate_landscape(landscape)

    def test_duplicate_service_names(self):
        landscape = tiny_landscape()
        landscape.services.append(landscape.services[0])
        with pytest.raises(ValidationError, match="duplicate service"):
            validate_landscape(landscape)

    def test_unknown_service_in_allocation(self):
        landscape = tiny_landscape()
        landscape.initial_allocation.append(("GHOST", "H1"))
        with pytest.raises(ValidationError, match="unknown service"):
            validate_landscape(landscape)

    def test_unknown_server_in_allocation(self):
        landscape = tiny_landscape()
        landscape.initial_allocation.append(("APP", "GHOST"))
        with pytest.raises(ValidationError, match="unknown server"):
            validate_landscape(landscape)

    def test_min_performance_index_violated(self):
        landscape = tiny_landscape(initial_allocation=[("APP", "H1"), ("DB", "H1")])
        with pytest.raises(ValidationError, match="performance index"):
            validate_landscape(landscape)

    def test_exclusivity_violated(self):
        landscape = tiny_landscape(
            initial_allocation=[("APP", "H1"), ("APP", "H2"), ("DB", "H2")]
        )
        with pytest.raises(ValidationError, match="exclusive"):
            validate_landscape(landscape)

    def test_min_instances_violated(self):
        landscape = tiny_landscape(initial_allocation=[("DB", "H2")])
        with pytest.raises(ValidationError, match="at least"):
            validate_landscape(landscape)

    def test_max_instances_violated(self):
        landscape = tiny_landscape(
            initial_allocation=[
                ("APP", "H1"),
                ("DB", "H2"),
                ("DB", "H2"),
            ]
        )
        with pytest.raises(ValidationError, match="at most"):
            validate_landscape(landscape)

    def test_memory_overcommitted(self):
        big = ServiceSpec(
            "BIG",
            workload=WorkloadSpec(memory_per_instance_mb=4096),
        )
        landscape = tiny_landscape()
        landscape.services.append(big)
        landscape.initial_allocation.append(("BIG", "H1"))
        with pytest.raises(ValidationError, match="memory"):
            validate_landscape(landscape)

    def test_bad_rule_override(self):
        landscape = tiny_landscape()
        broken = dataclasses.replace(
            landscape.services[0],
            rule_overrides={"serviceOverloaded": "IF cpuLoad THEN boom"},
        )
        landscape.services[0] = broken
        with pytest.raises(ValidationError, match="serviceOverloaded"):
            validate_landscape(landscape)

    def test_override_with_undeclared_term_rejected(self):
        """Overrides that parse but reference unknown terms fail validation."""
        landscape = tiny_landscape()
        landscape.services[0] = dataclasses.replace(
            landscape.services[0],
            rule_overrides={
                "serviceOverloaded": (
                    "IF cpuLoad IS enormous THEN scaleOut IS applicable"
                )
            },
        )
        with pytest.raises(ValidationError, match="AG102"):
            validate_landscape(landscape)

    def test_override_with_unknown_trigger_rejected(self):
        landscape = tiny_landscape()
        landscape.services[0] = dataclasses.replace(
            landscape.services[0],
            rule_overrides={
                "serverExploded": "IF cpuLoad IS high THEN scaleOut IS applicable"
            },
        )
        with pytest.raises(ValidationError, match="AG109"):
            validate_landscape(landscape)

    def test_suppressed_code_is_not_a_problem(self):
        landscape = tiny_landscape()
        landscape.services[0] = dataclasses.replace(
            landscape.services[0],
            rule_overrides={
                "serviceOverloaded": (
                    "IF cpuLoad IS enormous THEN scaleOut IS applicable"
                )
            },
            lint_suppressions=frozenset({"AG102"}),
        )
        validate_landscape(landscape)

    def test_all_problems_collected(self):
        """Validation reports every problem at once, not just the first."""
        landscape = tiny_landscape(
            initial_allocation=[("GHOST", "H1"), ("APP", "NOWHERE")]
        )
        with pytest.raises(ValidationError) as excinfo:
            validate_landscape(landscape)
        # ghost service + ghost server + DB min-instances violation
        assert len(excinfo.value.problems) >= 3


def _problems(landscape):
    try:
        validate_landscape(landscape)
    except ValidationError as error:
        return error.problems
    return []


def quadratic_duplicate_problems(landscape):
    """The ``names.count`` scan validation used, kept as its oracle."""
    problems = []
    for kind, names in (
        ("server", [s.name for s in landscape.servers]),
        ("service", [s.name for s in landscape.services]),
    ):
        duplicates = {n for n in names if names.count(n) > 1}
        for name in sorted(duplicates):
            problems.append(f"duplicate {kind} name {name!r}")
    return problems


def _unallocated(name):
    return ServiceSpec(name, constraints=ServiceConstraints(min_instances=0))


class TestDuplicateNames:
    @pytest.fixture
    def landscape(self):
        return LandscapeSpec(
            name="dupes",
            servers=[ServerSpec(n, 1.0) for n in ("B", "A", "B", "C", "B", "A")],
            services=[_unallocated(n) for n in ("Y", "X", "Y", "Z", "X", "Y")],
        )

    def test_each_duplicate_reported_once_and_sorted(self, landscape):
        assert _problems(landscape) == [
            "duplicate server name 'A'",
            "duplicate server name 'B'",
            "duplicate service name 'X'",
            "duplicate service name 'Y'",
        ]

    def test_agrees_with_the_quadratic_oracle(self, landscape):
        assert _problems(landscape) == quadratic_duplicate_problems(landscape)

    def test_twenty_thousand_servers_validate(self):
        servers = [ServerSpec(f"H{i}", 1.0) for i in range(20_000)]
        landscape = LandscapeSpec(
            name="wide",
            servers=servers,
            services=[_unallocated("APP")],
            initial_allocation=[("APP", "H19999")],
        )
        validate_landscape(landscape)
        landscape.servers.append(ServerSpec("H7", 2.0))
        assert _problems(landscape) == ["duplicate server name 'H7'"]


def _lint_service(name, *, memory_mb=512, profile="fi", **constraints):
    return ServiceSpec(
        name,
        workload=WorkloadSpec(
            users=120, profile=profile, memory_per_instance_mb=memory_mb
        ),
        constraints=ServiceConstraints(**constraints),
    )


def mixed_landscape(exclusive_db_instances):
    """Exclusive databases on two strong hosts, two non-exclusive services
    of the databases' host class, one unsatisfiable minimum performance
    index and two domains one database straddles."""
    return LandscapeSpec(
        name="mixed",
        servers=[
            ServerSpec("D1", 6.0, memory_mb=8192),
            ServerSpec("D2", 6.0, memory_mb=8192),
            ServerSpec("B1", 1.0, memory_mb=2048),
            ServerSpec("B2", 1.0, memory_mb=2048),
            ServerSpec("B3", 1.0, memory_mb=2048),
        ],
        services=[
            _lint_service(
                "DB1", memory_mb=4096, exclusive=True, min_performance_index=5.0
            ),
            _lint_service(
                "DB2",
                memory_mb=4096,
                exclusive=True,
                min_performance_index=5.0,
                min_instances=exclusive_db_instances,
            ),
            _lint_service("CI1", memory_mb=4096, min_performance_index=5.0),
            _lint_service("CI2", memory_mb=4096, min_performance_index=5.0),
            _lint_service("APP1", min_instances=2),
            _lint_service("APP2", min_instances=4, profile="flat"),
            _lint_service("HUGE", min_performance_index=9.0),
        ],
        initial_allocation=[
            ("DB1", "D1"),
            ("DB1", "D2"),
            ("APP1", "B1"),
            ("APP1", "B2"),
            ("APP2", "B3"),
        ],
        domains=[
            ControlDomainSpec("left", ("D1", "B1")),
            ControlDomainSpec("right", ("D2", "B2", "B3")),
        ],
    )


def random_landscape(seed):
    """A small landscape of drawn constraints, names sometimes repeated."""
    draw = random.Random(seed)
    host_count, service_count = draw.randint(1, 10), draw.randint(1, 9)
    servers = [
        ServerSpec(
            f"H{draw.randint(0, host_count) if draw.random() < 0.1 else i}",
            draw.choice([0.5, 1.0, 2.0, 5.0, 6.0]),
            memory_mb=draw.choice([512, 2048, 4096]),
        )
        for i in range(host_count)
    ]
    services = []
    for j in range(service_count):
        minimum = draw.choice([0, 1, 1, 2, 3])
        services.append(
            ServiceSpec(
                f"S{draw.randint(0, service_count) if draw.random() < 0.1 else j}",
                workload=WorkloadSpec(
                    users=draw.randint(0, 300),
                    profile=draw.choice(["fi", "les", "flat", "workday"]),
                    memory_per_instance_mb=draw.choice([256, 1024, 3000]),
                ),
                constraints=ServiceConstraints(
                    exclusive=draw.random() < 0.35,
                    min_performance_index=draw.choice([0.0, 1.0, 5.0, 7.0]),
                    min_instances=minimum,
                ),
            )
        )
    hosts = [s.name for s in servers] + ["GHOST"]
    names = [s.name for s in services] + ["NOPE"]
    domains = [
        ControlDomainSpec(f"d{d}", tuple(draw.sample(hosts, draw.randint(0, 3))))
        for d in range(draw.choice([0, 0, 2, 3]))
    ]
    return LandscapeSpec(
        name=f"drawn-{seed}",
        servers=servers,
        services=services,
        initial_allocation=[
            (draw.choice(names), draw.choice(hosts))
            for __ in range(draw.randint(0, 12))
        ],
        domains=domains,
    )


def _feasibility(landscape):
    return [
        d.as_dict()
        for d in analyze_feasibility(landscape)
        if d.code in feasibility_oracle.CODES
    ]


class TestLintAgainstPerServiceScans:
    @pytest.mark.parametrize("db_instances", [1, 2])
    def test_mixed_landscape(self, db_instances):
        landscape = mixed_landscape(db_instances)
        found = _feasibility(landscape)
        assert found == [d.as_dict() for d in feasibility_oracle.feasibility(landscape)]
        codes = {(d["code"], d["severity"]) for d in found}
        assert {("AG202", "error"), ("AG212", "error")} <= codes
        crowded = ("AG201", "warning" if db_instances == 1 else "error")
        assert crowded in codes

    def test_shared_host_class_warns_for_every_member(self):
        warned = [
            d["service"]
            for d in _feasibility(mixed_landscape(1))
            if (d["code"], d["severity"]) == ("AG201", "warning")
        ]
        assert warned == ["CI1", "CI2"]

    @pytest.mark.parametrize("seed", range(60))
    def test_drawn_landscape(self, seed):
        landscape = random_landscape(seed)
        assert _feasibility(landscape) == [
            d.as_dict() for d in feasibility_oracle.feasibility(landscape)
        ]
        assert _problems(landscape)[: len(quadratic_duplicate_problems(landscape))] == (
            quadratic_duplicate_problems(landscape)
        )
