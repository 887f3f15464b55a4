"""The reserve fan-out against scripted peers over loopback.

Acceptance: two escrows requested at the same instant both prepare at
once (no reply waits behind a peer's own escrow); a silent peer costs
an escrow one deadline, shorter than the agent's own wait, and never a
willing peer's reservation; and when every peer answers, the first
willing one in sorted order wins and the other is released.
"""

import threading
import time

import pytest

from repro.net.agent import PREPARE_SECONDS
from repro.net.coordinator import RESERVE_SECONDS
from repro.net.protocol import make_message
from repro.net.server import FederationServer
from repro.net.transport import loopback_pair

START = 12 * 60


class Peer:
    """A scripted agent: handshakes, then answers every ``escrow_reserve``
    after ``delay`` seconds (``None``: never) and records the rest."""

    def __init__(self, server, domain, delay=0.0):
        self.domain = domain
        self.delay = delay
        self.client, server_side = loopback_pair()
        server.serve_endpoint(server_side)
        self.client.send(
            make_message("hello", 1, domain=domain, incarnation=1, minute=START)
        )
        welcome = self.client.recv(timeout=5.0)
        assert welcome["kind"] == "welcome", welcome
        self.token = welcome["token"]
        #: kind -> [(seconds since request(), message)]
        self.seen = {}
        self.requested = None
        self._answer_at = []
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def request(self, escrow_id):
        self.requested = time.monotonic()
        self.client.send(
            make_message(
                "escrow_request", 2, escrow_id=escrow_id, domain=self.domain,
                service={"name": "svc"}, users=5, minute=START, token=self.token,
            )
        )

    def wait_for(self, kind, timeout=5.0):
        deadline = time.monotonic() + timeout
        while kind not in self.seen and time.monotonic() < deadline:
            time.sleep(0.005)
        return self.seen[kind][0]

    def _serve(self):
        while True:
            try:
                message = self.client.recv(timeout=0.005)
            except OSError:
                return
            now = time.monotonic()
            if message is not None:
                since = now - (self.requested or now)
                self.seen.setdefault(message["kind"], []).append((since, message))
                if message["kind"] == "escrow_reserve" and self.delay is not None:
                    self._answer_at.append((now + self.delay, message))
            for due, reserve in list(self._answer_at):
                if due <= now:
                    self._answer_at.remove((due, reserve))
                    self.client.send(
                        make_message(
                            "escrow_reserved", 3, escrow_id=reserve["escrow_id"],
                            ok=True, host=f"{self.domain}-host", note="",
                        )
                    )

    def close(self):
        self.client.close()


@pytest.fixture
def federation(tmp_path):
    servers, peers = [], []

    def build(delays):
        domains = sorted(delays)
        server = FederationServer(domains, tmp_path / "state", START, 60)
        server.start()
        servers.append(server)
        peers.extend(Peer(server, d, delays[d]) for d in domains)
        return peers

    yield build
    for peer in peers:
        peer.close()
    for server in servers:
        server.stop()


def test_two_escrows_requested_at_once_both_prepare_at_once(federation):
    """Before the coordinator, each request blocked its connection's
    reader on its own reserve, so each peer's answer to the other's sat
    unread: both prepared at 2.0 s, and domain-1's was refused with
    "domain-2: no answer"."""
    one, two = federation({"domain-1": 0.0, "domain-2": 0.0})
    one.request("domain-1-esc-00001")
    two.request("domain-2-esc-00001")
    for peer, other in ((one, two), (two, one)):
        since, prepared = peer.wait_for("escrow_prepared")
        assert prepared["ok"] is True, prepared
        assert prepared["target_domain"] == other.domain
        assert since < 0.2


def test_a_silent_peer_costs_one_deadline_not_the_willing_peers_escrow(federation):
    """Before, the server waited 2.0 s on each target in turn: the
    prepare on domain-3 arrived after the agent's own wait had ended,
    and the agent aborted what domain-3 had reserved."""
    assert RESERVE_SECONDS < PREPARE_SECONDS - 0.25
    source, silent, willing = federation(
        {"domain-1": 0.0, "domain-2": None, "domain-3": 0.0}
    )
    source.request("domain-1-esc-00001")
    since, prepared = source.wait_for("escrow_prepared")
    assert prepared["ok"] is True, prepared
    assert prepared["target_domain"] == "domain-3"
    assert prepared["target_host"] == "domain-3-host"
    assert since < PREPARE_SECONDS
    # the silent peer was asked too, and told to let go of the escrow
    assert silent.wait_for("escrow_release")[1]["escrow_id"] == "domain-1-esc-00001"
    assert "escrow_release" not in willing.seen


def test_when_every_peer_answers_the_first_willing_one_in_sorted_order_wins(
    federation,
):
    source, slow, fast = federation(
        {"domain-1": 0.0, "domain-2": 0.05, "domain-3": 0.0}
    )
    source.request("domain-1-esc-00001")
    since, prepared = source.wait_for("escrow_prepared")
    assert prepared["ok"] is True
    assert prepared["target_domain"] == "domain-2"
    assert since < 0.5
    # domain-3 reserved in vain: released
    assert fast.wait_for("escrow_release")[1]["escrow_id"] == "domain-1-esc-00001"
    assert "escrow_release" not in slow.seen
