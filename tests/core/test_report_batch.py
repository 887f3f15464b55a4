"""A tick's load samples are one column from the sweep to the file.

The controller's report batch is a series layout plus a float64 array;
its encoding is still the ``(subject, metric, time, value)`` rows each
monitor once appended to a per-tick buffer.  :func:`tuple_rows` is that
builder, over the deleted monitor objects kept as the oracle: the JSON
and pickle bytes of a batch must equal those of its rows, for a plain
tick, a tick with a blind host and a tick with a relocated instance on
a host outside the domain.
"""

import json
import pickle

import numpy as np
import pytest

from repro.config.model import Action
from repro.core.autoglobe import AutoGlobeController
from repro.serviceglobe.platform import DomainView, Platform
from repro.telemetry.records import LoadReportBatch, record_payload, record_to_dict
from tests.core.conftest import build_landscape, set_demand
from tests.monitoring.advisor_oracle import AdvisorShadow


def tuple_rows(shadow, now, blind):
    """The sweep's rows as the per-tick report buffer held them: one
    tuple per sample, built from the monitor object that pushed it (the
    deleted monitors, rebuilt by the oracle's shadow of the controller)."""
    return shadow.tick(now, blind)


def encodings(payload):
    return json.dumps(payload), pickle.dumps(payload, 5)


@pytest.fixture
def sweeps(monkeypatch):
    """A domain controller whose every sweep is paired with the oracle's
    rows of the same state."""
    platform = Platform(build_landscape())
    view = DomainView(platform, "d1", ["Weak1", "Strong1", "Big1"], ["APP", "DB"])
    controller = AutoGlobeController(view, enabled=False)
    shadow = AdvisorShadow(controller, [])
    pairs = []
    report_layout = controller._report_layout
    sample = controller._sample

    def layout(blind):
        pairs.append(tuple_rows(shadow, controller.platform.current_time, blind))
        return report_layout(blind)

    def paired(now, layout):
        sampled = sample(now, layout)
        pairs[-1] = (pairs[-1], sampled[2])
        return sampled

    monkeypatch.setattr(controller, "_report_layout", layout)
    monkeypatch.setattr(controller, "_sample", paired)
    set_demand(platform, "Weak1", 0.7)
    set_demand(platform, "Big1", 2.9)
    return platform, controller, pairs


def assert_rows_encoded(rows, batch):
    assert isinstance(batch, LoadReportBatch) and batch.domain == "d1"
    assert not batch.values.flags.writeable
    old = {"type": "LoadReportBatch", "time": batch.time, "rows": rows,
           "domain": batch.domain}
    assert encodings(record_payload(batch)) == encodings(old)
    assert all(type(value) is float for *__, value in record_payload(batch)["rows"])
    listed = dict(old, rows=[list(row) for row in rows])
    assert record_to_dict(batch) == listed
    assert json.dumps(record_to_dict(batch)) == json.dumps(listed)


def test_a_plain_tick_encodes_as_its_rows(sweeps):
    platform, controller, pairs = sweeps
    controller.tick(0)
    controller.tick(1)
    (rows, first), (__, second) = pairs
    assert len(rows) == len(first.series) == 3 + 3 + 2 + 2
    assert second.series is first.series  # one layout, shared
    assert_rows_encoded(rows, first)
    assert [envelope.record for envelope in platform.bus.tail("reports")] == [
        first, second,
    ]


def test_a_blind_hosts_entries_are_left_out(sweeps):
    platform, controller, pairs = sweeps
    controller.tick(0)
    controller.degrade_monitoring("Weak1", until=2)
    controller.tick(1)
    controller.tick(2)
    controller.tick(3)
    (__, seeing), (rows, blind), (__, blind_again), (__, seeing_again) = pairs
    (instance,) = platform.service("APP").running_instances
    assert instance.host_name == "Weak1"
    assert not any({"Weak1", instance.instance_id} & set(row) for row in rows)
    assert len(blind.series) == len(seeing.series) - 3
    assert blind_again.series is blind.series
    assert seeing_again.series is seeing.series
    assert_rows_encoded(rows, blind)


def test_a_relocated_instance_reports_its_foreign_host(sweeps):
    platform, controller, pairs = sweeps
    controller.tick(0)
    (instance,) = platform.service("APP").running_instances
    platform.execute(
        Action.MOVE, "APP", instance.instance_id, "Weak2", enforce_allowed=False
    )
    set_demand(platform, "Weak2", 0.65)
    controller.tick(1)
    rows, batch = pairs[-1]
    assert "Weak2" not in controller.platform.hosts
    assert (instance.instance_id, "cpu", 1, 0.65) in rows
    assert batch.series is not pairs[0][1].series
    assert_rows_encoded(rows, batch)


def test_a_batch_holds_one_value_per_series():
    with pytest.raises(ValueError, match="2 series"):
        LoadReportBatch(0, (("A", "cpu"), ("B", "cpu")), np.array([0.5]))
