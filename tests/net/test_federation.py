"""In-process federation: agents over loopback endpoints.

Acceptance: a two-domain federated run over the wire protocol produces
AG3xx-clean merged traces; the wire carries control only (the census)
and ``finalize`` reads the agents' domain directories; offline replay
of the per-agent event logs (each domain's ``state.db``) reproduces the
server-side verifier's report verbatim (satellite: trace-replay
equivalence); and a sustained one-way partition drives the victim agent
through degraded mode — it keeps administering its own domain
autonomously and resyncs on heal.
"""

import json
import shutil
import sqlite3
import threading
from types import SimpleNamespace

import pytest

import repro.net.agent_session
import repro.net.session
import repro.net.transport
from repro.analysis import verify_traces
from repro.net.agent import DomainAgent
from repro.net.chaos import LinkFaults, NetChaosProfile, PartitionWindow
from repro.net.protocol import encode_frame
from repro.net.server import FederationServer
from repro.net.transport import loopback_pair
from repro.ops.store import read_store
from repro.sim.scenarios import Scenario
from repro.telemetry.trace import read_trace

START = 12 * 60
HORIZON = 120
DOMAINS = ["domain-1", "domain-2"]
SESSION_KINDS = {
    "hello", "welcome", "reject", "heartbeat", "heartbeat_ack",
    "deregister", "deregister_ack",
}


def _run_agents(server, state_dir, join_timeout=240.0, **agent_kwargs):
    """Run one agent thread per domain against ``server`` via loopback.

    Agents are constructed *inside* their threads: their sqlite handles
    (journal, archive) must belong to the thread that uses them.
    """
    errors = {}

    def worker(domain):
        def factory():
            client, server_side = loopback_pair()
            server.serve_endpoint(server_side)
            return client

        try:
            agent = DomainAgent(
                domain,
                len(DOMAINS),
                factory,
                state_dir,
                scenario=Scenario.FULL_MOBILITY,
                user_factor=1.15,
                horizon=HORIZON,
                seed=7,
                start_minute=START,
                **agent_kwargs,
            )
            agent.run()
        except Exception as exc:  # surfaced by the caller
            errors[domain] = exc

    threads = [
        threading.Thread(target=worker, args=(domain,), daemon=True)
        for domain in DOMAINS
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=join_timeout)
    assert not any(thread.is_alive() for thread in threads), "agents hung"
    assert errors == {}
    summaries = {
        domain: json.loads(
            (state_dir / domain / "summary.json").read_text(encoding="utf-8")
        )
        for domain in DOMAINS
    }
    trace_paths = {domain: state_dir / domain / "state.db" for domain in DOMAINS}
    return summaries, trace_paths


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """One clean (fault-free) two-domain loopback run, finalized from
    the agents' domain directories, with every frame either side
    encoded counted from outside: kind -> [messages, bytes]."""
    base = tmp_path_factory.mktemp("federation")
    state_dir = base / "state"
    census = {}
    counting = threading.Lock()

    def counting_encode(message):
        frame = encode_frame(message)
        with counting:
            entry = census.setdefault(message["kind"], [0, 0])
            entry[0] += 1
            entry[1] += len(frame)
        return frame

    server = FederationServer(DOMAINS, state_dir, START, HORIZON)
    server.start()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repro.net.transport, "encode_frame", counting_encode)
            summaries, trace_paths = _run_agents(server, state_dir)
        report, summary, merged_path = server.finalize(base / "out")
    finally:
        server.stop()
    return SimpleNamespace(
        # taken now: a later read-only reader leaves -wal/-shm behind
        listing={
            domain: sorted(p.name for p in (state_dir / domain).iterdir())
            for domain in DOMAINS
        },
        state_dir=state_dir,
        base=base,
        summaries=summaries,
        trace_paths=trace_paths,
        census=census,
        server_summaries=server.domain_summaries,
        report=report,
        summary=summary,
        merged_path=merged_path,
    )


class TestCleanFederatedRun:
    def test_merged_trace_is_invariant_clean(self, clean_run):
        assert clean_run.report.errors == ()
        assert clean_run.report.warnings == ()

    def test_every_agent_completed_its_horizon(self, clean_run):
        for domain, summary in clean_run.summaries.items():
            assert summary["net"]["partial"] is False, domain
            assert summary["horizon_minutes"] == HORIZON

    def test_each_domain_directory_holds_one_state_file(self, clean_run):
        # agent (journal, snapshots, archive, events) and server (lease)
        # shared the file; both closed it, so SQLite's -wal/-shm are
        # gone too, and the finalize that read it left nothing behind
        for domain in DOMAINS:
            assert clean_run.listing[domain] == ["state.db", "summary.json"]

    def test_a_used_state_directory_needs_resume(self, clean_run):
        directory = clean_run.state_dir / "domain-1"
        before = {
            name: (directory / name).read_bytes()
            for name in clean_run.listing["domain-1"]
        }
        with pytest.raises(ValueError, match="domain-1 holds an earlier run"):
            DomainAgent(
                "domain-1", len(DOMAINS), lambda: None, clean_run.state_dir,
                horizon=HORIZON, start_minute=START,
            )
        assert {
            name: (directory / name).read_bytes() for name in before
        } == before

    def test_each_agents_event_log_is_complete_and_stamped(self, clean_run):
        for domain in DOMAINS:
            header, events = read_store(clean_run.trace_paths[domain])
            assert header.complete is True
            assert [event.seq for event in events] == list(range(1, len(events) + 1))
            clocks = [event.clock for event in events]
            assert clocks == sorted(clocks) and None not in clocks

    def test_merged_summary_sums_the_domains(self, clean_run):
        total = sum(
            s["action_count"] for s in clean_run.summaries.values()
        )
        assert clean_run.summary["action_count"] == total
        assert clean_run.summary["schema"] == "multiproc-merged"
        assert clean_run.summary["domains"] == DOMAINS
        # what finalize merged is what the agents wrote to their directories
        assert clean_run.server_summaries == clean_run.summaries

    def test_merged_trace_is_causally_ordered(self, clean_run):
        header, events = read_trace(clean_run.merged_path)
        assert header.complete
        clocks = [event.clock for event in events]
        assert clocks == sorted(clocks)
        assert [event.seq for event in events] == list(
            range(1, len(events) + 1)
        )

    def test_offline_replay_matches_the_live_verifier(self, clean_run):
        """Satellite: the per-agent logs replayed through `autoglobe
        verify` reproduce the report ``finalize`` returned."""
        offline = verify_traces(
            [clean_run.trace_paths[d] for d in DOMAINS],
            summary_path=clean_run.base / "out" / "summary.json",
            name="multiproc",
        )
        assert offline.render("json") == clean_run.report.render("json")

    def test_the_merged_store_replaces_what_an_earlier_run_left(
        self, clean_run, tmp_path
    ):
        """A store is an output: ``finalize`` clears the merged store it
        writes, as it opens the JSONL beside it with ``"w"``."""
        from repro.ops.store import TelemetryStore

        store_path = tmp_path / "store.db"
        with TelemetryStore(store_path) as earlier:
            earlier.insert_events(
                "domain-9", [(1, "alerts", {"type": "AlertEvent", "time": 1}, 1)]
            )
            earlier.insert_events(
                "domain-1", [(1, "alerts", {"type": "AlertEvent", "time": 1}, 1)]
            )
            earlier.mark_complete(True)
        server = FederationServer(DOMAINS, clean_run.state_dir, START, HORIZON)
        try:
            _, _, merged_path = server.finalize(
                tmp_path / "out", store_path=store_path
            )
        finally:
            server.stop()
        header, from_store = read_store(store_path)
        _, from_trace = read_trace(merged_path)
        assert header.complete is True
        assert from_store == from_trace

    def test_the_wire_carries_control_messages_only(self, clean_run):
        """The census: sessions and escrow, a few kilobytes — an event
        or a summary on the wire would be megabytes (at the parent
        515,842 B in 598 messages, 93 % of the bytes ``telemetry``)."""
        census = clean_run.census
        assert all(
            kind in SESSION_KINDS or kind.startswith("escrow_") for kind in census
        ), census
        assert {"hello", "welcome", "heartbeat", "deregister"} <= set(census)
        assert sum(size for _, size in census.values()) < 50_000, census
        assert census["deregister"][1] / census["deregister"][0] < 200, census

    def test_finalize_wants_every_domains_summary(self, clean_run, tmp_path):
        state_dir = tmp_path / "state"
        shutil.copytree(clean_run.state_dir, state_dir)
        missing = state_dir / "domain-2" / "summary.json"
        missing.unlink()
        server = FederationServer(DOMAINS, state_dir, START, HORIZON)
        try:
            with pytest.raises(RuntimeError) as refusal:
                server.finalize(tmp_path / "out")
        finally:
            server.stop()
        assert "domain-2" in str(refusal.value)
        assert str(missing) in str(refusal.value)

    def test_finalize_reads_summary_and_completeness_from_the_directories(
        self, clean_run, tmp_path
    ):
        state_dir = tmp_path / "state"
        shutil.copytree(clean_run.state_dir, state_dir)
        summary_path = state_dir / "domain-1" / "summary.json"
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        summary["action_count"] += 1
        summary_path.write_text(json.dumps(summary), encoding="utf-8")

        def finalize(out):
            server = FederationServer(DOMAINS, state_dir, START, HORIZON)
            try:
                report, merged, merged_path = server.finalize(
                    out, store_path=out / "store.db"
                )
            finally:
                server.stop()
            assert merged["action_count"] == clean_run.summary["action_count"] + 1
            return (
                [d.code for d in report.errors],
                read_trace(merged_path)[0].complete,
                read_store(out / "store.db")[0].complete,
            )

        # a complete trace is reconciled with the summary on disk ...
        assert finalize(tmp_path / "complete") == (["AG305"], True, True)
        with sqlite3.connect(state_dir / "domain-2" / "state.db") as connection:
            connection.execute("UPDATE meta SET value = '0' WHERE key = 'complete'")
        # ... one agent's incomplete log makes the whole merge incomplete
        assert finalize(tmp_path / "partial") == ([], False, False)


class TestDegradedMode:
    def test_partitioned_agent_degrades_then_resyncs(self, tmp_path, monkeypatch):
        """A sustained one-way (agent->server) partition: the victim
        keeps administering autonomously, the server deposes it for
        silence, and on heal it re-handshakes under a bumped fencing
        token and records the resync."""
        victim = "domain-2"
        window = PartitionWindow("in", START + 15, START + 70)
        profile = NetChaosProfile(
            seed=3, links={victim: LinkFaults(partitions=(window,))}
        )
        state_dir = tmp_path / "state"
        monkeypatch.setattr(repro.net.session, "WALL_TTL_SECONDS", 2.0)
        monkeypatch.setattr(repro.net.session, "WALL_GRACE_SECONDS", 0.5)
        monkeypatch.setattr(repro.net.agent_session, "ACK_TIMEOUT_SECONDS", 0.25)
        server = FederationServer(
            DOMAINS, state_dir, START, HORIZON, net_chaos=profile
        )
        server.start()
        try:
            summaries, trace_paths = _run_agents(server, state_dir)
            report, merged_summary, _ = server.finalize(tmp_path / "out")
        finally:
            server.stop()
        net = summaries[victim]["net"]
        assert net["degraded_count"] >= 1
        assert net["partial"] is False  # it still completed its horizon
        # local administration continued: the victim still acted alone
        assert summaries[victim]["action_count"] >= 1
        assert server.injector.stats["partition_blocked"] > 0
        # the outage and the heal are on the record (the resync may land
        # mid-run or during deregistration, but it always lands: the
        # partition is over by the time the agent deregisters)
        _, events = read_store(trace_paths[victim])
        kind_values = [
            event.record.get("kind")
            for event in events
            if event.topic == "supervision"
        ]
        assert "net-degraded" in kind_values
        assert "net-resynced" in kind_values
        # fencing history is intact: the merged trace verifies clean
        assert report.errors == ()
