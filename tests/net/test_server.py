"""The federation server against peers that are hostile, outdated or gone.

Acceptance: a well-framed message with a wrong-typed field gets a
``reject`` and the connection keeps being read; whatever passes
``validate_message`` goes through the coordinator without an exception
escaping the server's loop; a ``hello`` from the previous protocol
revision, or for a domain the run does not have, is refused at the
handshake; and ``stop()`` wakes its own loop instead of waiting out
a timeout.
"""

import time

import pytest
from hypothesis import HealthCheck, given, settings

import repro.net.coordinator
from repro.net.protocol import PROTOCOL_VERSION, ProtocolError, make_message, validate_message
from repro.net.server import FederationServer
from repro.net.transport import loopback_pair
from tests.net.test_protocol import json_objects

START = 12 * 60
DOMAINS = ["domain-1", "domain-2"]


@pytest.fixture
def server(tmp_path, monkeypatch):
    # no peer ever answers an escrow_reserve here: do not wait for one
    monkeypatch.setattr(repro.net.coordinator, "RESERVE_SECONDS", 0.0)
    server = FederationServer(DOMAINS, tmp_path / "state", START, 60)
    server.start()
    yield server
    server.stop()
    server.coordinator.close()  # leases a test reopened on its own thread


def _connect(server):
    client, server_side = loopback_pair()
    server.serve_endpoint(server_side)
    return client


def _hello(domain="domain-1", **overrides):
    message = make_message("hello", 1, domain=domain, incarnation=1, minute=START)
    return dict(message, **overrides)


def test_a_wrong_typed_field_is_rejected_and_the_connection_lives(server):
    client = _connect(server)
    client.send(_hello())
    assert client.recv(timeout=5.0)["kind"] == "welcome"
    heartbeat = make_message("heartbeat", 2, domain="domain-1", minute=START + 1)
    client.send(dict(heartbeat, minute="soon"))
    refusal = client.recv(timeout=5.0)
    assert refusal["kind"] == "reject"
    assert "'heartbeat'" in refusal["reason"] and "'minute'" in refusal["reason"]
    client.send(heartbeat)
    assert client.recv(timeout=5.0)["kind"] == "heartbeat_ack"


def test_a_hello_from_the_previous_revision_is_refused_by_version(server):
    client = _connect(server)
    client.send(_hello(schema_version=PROTOCOL_VERSION - 1))
    refusal = client.recv(timeout=5.0)
    assert refusal["kind"] == "reject"
    assert f"schema_version {PROTOCOL_VERSION - 1}" in refusal["reason"]
    assert f"protocol version {PROTOCOL_VERSION}" in refusal["reason"]
    assert server.sessions.sessions == {}


def test_a_hello_for_a_domain_the_run_does_not_have_is_refused(server, tmp_path):
    client = _connect(server)
    client.send(_hello(domain="../elsewhere"))
    assert client.recv(timeout=5.0)["kind"] == "reject"
    assert server.sessions.sessions == {}
    assert not (tmp_path / "elsewhere").exists()


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(message=json_objects)
def test_whatever_validates_is_dispatched_without_an_exception(server, message):
    """One server for every example on purpose: sessions, escrow ledger
    and reply caches accumulate, so later messages meet earlier state."""
    try:
        validate_message(message)
    except ProtocolError:
        return
    # the loop owns the coordinator: take it over for the example
    server.stop()
    coordinator = server.coordinator
    now = time.monotonic()
    for domain in DOMAINS:  # no session is the least interesting state
        if domain not in server.sessions.sessions:
            coordinator.receive(0, _hello(domain), now)
    coordinator.receive(0, message, now)
    coordinator.poll(now)


def test_stop_wakes_the_acceptor(tmp_path):
    """A stop right after ``listen()`` returns at once: the loop waits on
    the listener and a wakeup socket, never on a timeout."""
    server = FederationServer(DOMAINS, tmp_path / "state", START, 60)
    server.start()
    server.listen()
    loop = server._thread
    began = time.monotonic()
    server.stop()
    assert time.monotonic() - began < 0.2
    assert not loop.is_alive()
