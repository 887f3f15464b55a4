"""The per-object demand pass, kept as the oracle of
:meth:`repro.sim.workload.WorkloadModel.tick`.

A minute of the demand model used to walk objects: a per-service
``Dispatcher.fluctuate`` over ``running_instances`` with one scalar
``binomial`` per connected instance and a ``least_loaded`` probe per
instance, the demands as ``(row, value)`` pairs built instance by
instance, and a write that re-summed every host and service of the
landscape state (``_resum_all``).  All of it is here verbatim, as
functions over a :class:`~repro.sim.workload.WorkloadModel`, whose
random stream and burst table it draws from in the same order.
"""

from repro.sim.loadcurves import profile_value
from repro.sim.workload import _BurstState


def tick(model, now):
    """One minute of the demand model, the per-object way."""
    _fluctuate(model)
    write_demands(
        model.platform.landscape_state,
        [*_application_demands(model, now), *_derived_demands(model, now)],
    )


def write_demands(state, demands):
    """Write ``(row, demand)`` pairs, then re-sum every host and service."""
    for row, value in demands:
        state.inst_demand[row] = value
    state.mutation_version += 1
    state._resum_all()


def least_loaded(instances, host_load):
    """The instance whose host currently has the lowest CPU load."""
    running = [i for i in instances if i.running]
    if not running:
        return None
    return min(running, key=lambda i: (host_load(i), i.instance_id))


def fluctuate(instances, rate, rng, host_load):
    """One minute of user fluctuation of one service; returns the users moved."""
    running = [i for i in instances if i.running]
    if len(running) < 2 or rate <= 0.0:
        return 0
    moved = 0
    departures = [
        int(rng.binomial(i.users, rate)) if i.users else 0 for i in running
    ]
    for instance, leaving in zip(running, departures):
        instance.users -= leaving
        moved += leaving
    if moved:
        target = least_loaded(running, host_load)
        assert target is not None
        target.users += moved
    return moved


def _fluctuate(model):
    platform = model.platform
    for spec in model._app_specs.values():
        rate = spec.workload.fluctuation_rate
        if rate <= 0.0:
            continue
        instances = platform.service(spec.name).running_instances
        fluctuate(
            instances, rate, model._rng, lambda i: platform.hosts[i.host_name].cpu_load
        )


def _noise_factor(model, instance):
    noise = model.noise
    factor = 1.0 + float(model._rng.normal(0.0, noise.sigma))
    factor = min(max(factor, 1.0 - 3 * noise.sigma), 1.0 + 3 * noise.sigma)
    state = model._bursts.get(instance.instance_id)
    if state is None:
        state = _BurstState()
        model._bursts[instance.instance_id] = state
    if state.remaining > 0:
        state.remaining -= 1
        factor *= 1.0 + state.amplitude
    elif float(model._rng.random()) < noise.burst_probability:
        low, high = noise.burst_minutes
        state.remaining = int(model._rng.integers(low, high + 1))
        state.amplitude = float(model._rng.uniform(*noise.burst_amplitude))
    return factor


def _derived_noise(model):
    sigma = model.noise.derived_sigma
    factor = 1.0 + float(model._rng.normal(0.0, sigma))
    return min(max(factor, 1.0 - 3 * sigma), 1.0 + 3 * sigma)


def _application_demands(model, now):
    for spec in model._app_specs.values():
        workload = spec.workload
        activity = profile_value(workload.profile, now)
        for instance in model.platform.service(spec.name).running_instances:
            base = workload.basic_load
            user_demand = instance.users * workload.load_per_user * activity
            yield instance.state_id, base + user_demand * _noise_factor(model, instance)


def derived_demands(flows, now):
    """Total demand forwarded to each CI and DB service this minute."""
    ci_demand = {name: 0.0 for name in flows._ci_of.values()}
    db_demand = {name: 0.0 for name in flows._db_of.values()}
    for spec in flows._apps:
        served_users = flows._platform.service(spec.name).total_users
        if served_users == 0:
            continue
        activity = profile_value(spec.workload.profile, now)
        if activity <= 0.0:
            continue
        ci_name = flows._ci_of.get(spec.subsystem)
        db_name = flows._db_of.get(spec.subsystem)
        if ci_name is not None:
            ci_demand[ci_name] += served_users * spec.workload.ci_cost_per_user * activity
        if db_name is not None:
            db_demand[db_name] += served_users * spec.workload.db_cost_per_user * activity
    combined = dict(ci_demand)
    combined.update(db_demand)
    return combined


def _derived_demands(model, now):
    derived = derived_demands(model.flows, now)
    for service_name, demand in derived.items():
        spec = model._derived_specs[service_name]
        instances = model.platform.service(service_name).running_instances
        if not instances:
            continue
        share = demand / len(instances)
        for instance in instances:
            yield instance.state_id, spec.workload.basic_load + share * _derived_noise(model)
