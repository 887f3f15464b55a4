"""Tests for the workload model and request-path propagation."""

from functools import partial

import numpy as np
import pytest

from repro.config.builtin import paper_landscape, partition_landscape, replicated_landscape
from repro.serviceglobe.platform import Platform
from repro.sim.clock import MINUTES_PER_DAY
from repro.sim.requests import RequestFlows
from repro.sim.runner import SimulationRunner
from repro.sim.scenarios import Scenario, default_chaos, scenario_landscape
from repro.sim.workload import NoiseParameters, WorkloadModel
from tests.sim import workload_oracle

NOON = 12 * 60
PEAK_MORNING = 9 * 60 + 0
NIGHT = 3 * 60

QUIET = NoiseParameters(sigma=0.0, burst_probability=0.0, derived_sigma=0.0)


@pytest.fixture
def platform():
    return Platform(scenario_landscape(paper_landscape(), Scenario.STATIC, 1.0))


@pytest.fixture
def workload(platform):
    model = WorkloadModel(platform, seed=3, noise=QUIET)
    model.initialize()
    return model


class TestInitialization:
    def test_table4_users_placed(self, platform, workload):
        assert platform.service("FI").total_users == 600
        assert platform.service("LES").total_users == 900
        assert workload.total_users() == 600 + 900 + 450 + 300 + 300 + 60

    def test_capacity_proportional_initial_placement(self, platform, workload):
        """FI's 600 users split 150/150/300 across PI 1/1/2 hosts."""
        by_host = {
            i.host_name: i.users
            for i in platform.service("FI").running_instances
        }
        assert by_host == {"Blade3": 150, "Blade5": 150, "Blade11": 300}


class TestApplicationDemand:
    def test_peak_load_near_75_percent(self, platform, workload):
        """The §5.1 dimensioning: blades run at 60-80% during main activity."""
        from repro.sim.loadcurves import profile_array

        peak_minute = int(profile_array("fi").argmax())
        workload.tick(peak_minute)
        load = platform.host_cpu_load("Blade3")
        assert 0.70 <= load <= 0.80

    def test_night_load_is_basic_only(self, platform, workload):
        workload.tick(NIGHT)
        fi_instance = platform.service("FI").running_instances[0]
        # profile is near zero at 3:00; only the basic load remains
        assert fi_instance.demand < 0.05

    def test_bw_peaks_at_night(self, platform, workload):
        workload.tick(NIGHT)
        night_load = platform.host_cpu_load("Blade9")
        workload.tick(NOON)
        day_load = platform.host_cpu_load("Blade9")
        assert night_load > 0.5
        assert day_load < 0.3

    def test_demand_deterministic_under_seed(self):
        loads = []
        for __ in range(2):
            platform = Platform(scenario_landscape(paper_landscape(), Scenario.STATIC, 1.0))
            model = WorkloadModel(platform, seed=42)
            model.initialize()
            for m in range(NOON, NOON + 30):
                model.tick(m)
            loads.append([platform.host_cpu_load(h) for h in sorted(platform.hosts)])
        assert loads[0] == loads[1]

    def test_noise_perturbs_demand(self, platform):
        noisy = WorkloadModel(platform, seed=1)  # default noise
        noisy.initialize()
        samples = []
        for m in range(PEAK_MORNING, PEAK_MORNING + 20):
            noisy.tick(m)
            samples.append(platform.host_cpu_load("Blade3"))
        assert len(set(round(s, 6) for s in samples)) > 5


class TestRequestPath:
    def test_subsystem_routing(self, platform):
        flows = RequestFlows(platform)
        assert flows.ci_service_of("ERP") == "CI-ERP"
        assert flows.db_service_of("BW") == "DB-BW"

    def test_database_demand_follows_users(self, platform, workload):
        """The course of a request: app server -> CI -> DB (Section 5.1)."""
        workload.tick(PEAK_MORNING)
        erp_db = platform.service("DB-ERP").running_instances[0]
        crm_db = platform.service("DB-CRM").running_instances[0]
        # ERP has 2250 users, CRM 300: the ERP database works much harder
        assert erp_db.demand > crm_db.demand * 3

    def test_ci_lighter_than_db(self, platform, workload):
        workload.tick(PEAK_MORNING)
        ci = platform.service("CI-ERP").running_instances[0]
        db = platform.service("DB-ERP").running_instances[0]
        assert ci.demand < db.demand

    def test_db_night_load_from_batch_jobs(self, platform, workload):
        """DBServer3 is heavily used by the BW database at night
        (the reason Figure 16's FI instance is stopped there)."""
        workload.tick(NIGHT)
        night = platform.host_cpu_load("DBServer3")
        workload.tick(NOON)
        day = platform.host_cpu_load("DBServer3")
        assert night > 0.4
        assert day < night

    def test_derived_demand_split_across_instances(self):
        from repro.config.model import Action

        platform = Platform(
            scenario_landscape(paper_landscape(), Scenario.FULL_MOBILITY, 1.0)
        )
        workload = WorkloadModel(platform, seed=3, noise=QUIET)
        workload.initialize()
        platform.execute(Action.SCALE_OUT, "DB-BW", target_host="DBServer2")
        workload.tick(NIGHT)
        first, second = platform.service("DB-BW").running_instances
        assert first.demand == pytest.approx(second.demand, rel=0.01)


class TestFluctuation:
    def test_users_conserved_over_time(self, platform):
        model = WorkloadModel(platform, seed=5)
        model.initialize()
        before = platform.service("LES").total_users
        for m in range(NOON, NOON + 60):
            model.tick(m)
        assert platform.service("LES").total_users == before

    def test_fluctuation_rebalances_after_imbalance(self, platform):
        model = WorkloadModel(platform, seed=5, noise=QUIET)
        model.initialize()
        instances = platform.service("LES").running_instances
        # pile every user onto the first instance
        total = sum(i.users for i in instances)
        for instance in instances:
            instance.users = 0
        instances[0].users = total
        for m in range(PEAK_MORNING, PEAK_MORNING + 240):
            model.tick(m)
        assert instances[0].users < total * 0.6
        assert sum(i.users for i in instances) == total


# -- the column pass against the per-object oracle -------------------------------------

AGGREGATES = (
    "host_demand", "host_mem_used", "host_running_instances", "host_distinct_services",
    "host_exclusive_services", "host_stamp", "service_running", "service_demand_sum",
    "service_load_sum", "service_capacity_sum",
)


def _bits(values):
    """A float column as bytes: equal means equal bit for bit, -0.0 included."""
    return np.asarray(values, dtype=np.float64).tobytes()


def _minute_record(runner):
    """Wrap the runner's demand pass to keep what it left after each minute."""
    model = runner.workload
    state = runner.platform.landscape_state
    tick = model.tick
    minutes = []

    def recorded(now):
        tick(now)
        minutes.append((
            now,
            _bits(state.inst_demand),
            list(state.inst_users),
            {iid: (b.remaining, _bits([b.amplitude])) for iid, b in model._bursts.items()},
            model._rng.bit_generator.state,
            [(name, getattr(state, name).tobytes()) for name in AGGREGATES],
            (state.refresh_seq, state.mutation_version, state.topology_version),
        ))

    model.tick = recorded
    return minutes


ORACLE_RUNS = {
    "chaos-day-3h": dict(
        scenario=Scenario.FULL_MOBILITY, user_factor=1.15, horizon=180,
        chaos=default_chaos(seed=115),
    ),
    "domains-4x-2h": dict(
        scenario=Scenario.FULL_MOBILITY, user_factor=1.15, horizon=120,
        chaos=default_chaos(seed=115),
        landscape=partition_landscape(replicated_landscape(4), 4),
    ),
    "replicated-3x-30m": dict(
        scenario=Scenario.FULL_MOBILITY, user_factor=1.0, horizon=30,
        landscape=replicated_landscape(3), lint="off",
    ),
}


@pytest.mark.parametrize("name", sorted(ORACLE_RUNS))
def test_column_pass_equals_the_per_object_oracle(name):
    """The same seed through the column pass and the oracle, minute by
    minute: demands, users, bursts, the random stream and every
    aggregate column stay equal bit for bit — through crashes, actions
    and the topology changes they make."""
    runs = []
    for oracle in (False, True):
        runner = SimulationRunner(seed=7, collect_host_series=False, **ORACLE_RUNS[name])
        if oracle:
            runner.workload.tick = partial(workload_oracle.tick, runner.workload)
        minutes = _minute_record(runner)
        runner.run()
        runs.append(minutes)
    columns, objects = runs
    assert len(columns) == len(objects) == ORACLE_RUNS[name]["horizon"]
    for ours, theirs in zip(columns, objects):
        assert ours == theirs, f"minute {ours[0]} differs"
    first, last = objects[0], objects[-1]
    assert first[2] != last[2], "no user moved: the run did not exercise fluctuation"
    assert first[6][2] != last[6][2], "the topology never moved"


def test_array_binomial_moves_the_stream_like_the_scalar_loop():
    """One ``binomial(users, rates)`` call over a column with empty
    instances in it draws what the scalar loop ``binomial(u, r) if u else
    0`` drew, and leaves the generator in the same state.  The fluctuation
    pass (and every seeded digest) rests on this; if numpy ever draws for
    ``n = 0`` or changes its array path, this test names the cause."""
    setup = np.random.default_rng(11)
    users = setup.integers(0, 400, size=500)
    users[setup.random(500) < 0.3] = 0
    rates = np.repeat([0.003, 0.01, 0.02, 0.5, 0.97], 100)
    scalar_rng, array_rng = np.random.default_rng(7), np.random.default_rng(7)
    scalar = [
        int(scalar_rng.binomial(int(u), float(r))) if u else 0 for u, r in zip(users, rates)
    ]
    drawn = array_rng.binomial(users, rates)
    assert drawn.tolist() == scalar
    assert array_rng.bit_generator.state == scalar_rng.bit_generator.state
