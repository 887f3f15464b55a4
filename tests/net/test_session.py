"""Server-side heartbeat sessions over the per-domain lease store.

Acceptance: a silent agent is deposed and its token fenced exactly like
a LeaseStore takeover; a live reconnect keeps its token; the global
pacing floor never moves until every expected domain has shown up.
"""

from repro.core.state import LeaseStore
from repro.net.session import SessionManager


class FakeWall:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def manager(tmp_path):
    """The module's timing: a 30-minute sim TTL, 10 s wall TTL, 2 s grace."""
    return SessionManager(tmp_path, start_minute=720), FakeWall()


class TestHandshake:
    def test_first_contact_grants_token_one(self, tmp_path):
        sessions, wall = manager(tmp_path)
        granted = sessions.handshake("domain-1", incarnation=1, minute=720, now=wall.now)
        assert granted.token == 1
        assert sessions.current_token("domain-1") == 1
        sessions.close()

    def test_live_reconnect_keeps_the_token(self, tmp_path):
        sessions, wall = manager(tmp_path)
        first = sessions.handshake("domain-1", 1, 720, now=wall.now)
        again = sessions.handshake("domain-1", 1, 730, now=wall.now)
        assert again.token == first.token
        assert again.minute == 730
        sessions.close()

    def test_new_incarnation_bumps_the_token(self, tmp_path):
        sessions, wall = manager(tmp_path)
        first = sessions.handshake("domain-1", 1, 720, now=wall.now)
        # the crashed agent's replacement must fence the old epoch
        second = sessions.handshake("domain-1", 2, 725, now=wall.now)
        assert second.token > first.token
        sessions.close()

    def test_token_survives_server_restart(self, tmp_path):
        sessions, wall = manager(tmp_path)
        first = sessions.handshake("domain-1", 1, 720, now=wall.now)
        sessions.close()
        reborn, wall = manager(tmp_path)
        second = reborn.handshake("domain-1", 1, 730, now=wall.now)
        # the new server has no session record, so this is a re-grant:
        # monotonicity must come from the shared state.db on disk
        assert second.token > first.token
        reborn.close()

    def test_foreign_lease_is_forced_over(self, tmp_path):
        # a single-process run's supervisor once owned this store
        (tmp_path / "domain-1").mkdir()
        lease = LeaseStore(tmp_path / "domain-1" / "state.db")
        assert lease.acquire("controller-1", now=720, ttl=6000) == 1
        lease.close()
        sessions, wall = manager(tmp_path)
        granted = sessions.handshake("domain-1", 1, 720, now=wall.now)
        assert granted.token == 2
        sessions.close()


class TestExpiry:
    def test_wall_silence_deposes(self, tmp_path):
        sessions, wall = manager(tmp_path)
        sessions.handshake("domain-1", 1, 720, now=wall.now)
        sessions.handshake("domain-2", 1, 720, now=wall.now)
        wall.now += 5.0
        assert sessions.heartbeat("domain-2", 740, now=wall.now) == "ok"
        assert sessions.sweep(wall.now) == []
        wall.now += 6.0  # domain-1 now silent for 11s > wall_ttl 10s
        deposed = sessions.sweep(wall.now)
        assert [s.domain for s in deposed] == ["domain-1"]
        assert sessions.deposed_count == 1
        assert sessions.current_token("domain-1") is None
        assert sessions.heartbeat("domain-1", 745, now=wall.now) == "deposed"
        sessions.close()

    def test_deposed_resurrection_gets_a_fenced_token(self, tmp_path):
        sessions, wall = manager(tmp_path)
        first = sessions.handshake("domain-1", 1, 720, now=wall.now)
        wall.now += 11.0
        sessions.sweep(wall.now)
        back = sessions.handshake("domain-1", 1, 730, now=wall.now)
        assert back.token > first.token
        assert not back.deposed
        sessions.close()

    def test_sim_lag_deposes_only_after_wall_grace(self, tmp_path):
        sessions, wall = manager(tmp_path)
        sessions.handshake("domain-1", 1, 720, now=wall.now)
        sessions.handshake("domain-2", 1, 720, now=wall.now)
        sessions.heartbeat("domain-2", 760, now=wall.now)  # domain-1 lags 40 > sim_ttl 30
        assert sessions.sweep(wall.now) == []  # but it is not wall-silent yet
        wall.now += 3.0
        sessions.heartbeat("domain-2", 761, now=wall.now)
        deposed = sessions.sweep(wall.now)
        assert [s.domain for s in deposed] == ["domain-1"]
        sessions.close()

    def test_completed_sessions_are_never_deposed(self, tmp_path):
        sessions, wall = manager(tmp_path)
        sessions.handshake("domain-1", 1, 720, now=wall.now)
        sessions.complete("domain-1")
        wall.now += 60.0
        assert sessions.sweep(wall.now) == []
        sessions.close()


class TestPacingFloor:
    def test_floor_pins_at_start_until_everyone_connects(self, tmp_path):
        sessions, wall = manager(tmp_path)
        expected = ["domain-1", "domain-2"]
        sessions.handshake("domain-1", 1, 720, now=wall.now)
        sessions.heartbeat("domain-1", 745, now=wall.now)
        assert sessions.global_min_minute(expected) == 720
        sessions.handshake("domain-2", 1, 722, now=wall.now)
        assert sessions.global_min_minute(expected) == 722
        sessions.close()

    def test_deposed_and_completed_agents_do_not_hold_the_floor(self, tmp_path):
        sessions, wall = manager(tmp_path)
        expected = ["domain-1", "domain-2", "domain-3"]
        sessions.handshake("domain-1", 1, 720, now=wall.now)
        sessions.handshake("domain-2", 1, 720, now=wall.now)
        sessions.handshake("domain-3", 1, 720, now=wall.now)
        sessions.heartbeat("domain-2", 750, now=wall.now)
        sessions.heartbeat("domain-3", 755, now=wall.now)
        wall.now += 11.0
        sessions.heartbeat("domain-2", 750, now=wall.now)
        sessions.heartbeat("domain-3", 755, now=wall.now)
        sessions.sweep(wall.now)  # deposes silent domain-1
        assert sessions.global_min_minute(expected) == 750
        sessions.complete("domain-2")
        assert sessions.global_min_minute(expected) == 755
        sessions.close()
