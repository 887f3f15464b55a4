"""Multi-process federation orchestration (``autoglobe run --multiproc``).

Runs the :class:`~repro.net.server.FederationServer` in-process and one
:mod:`repro.net.agent` OS process per control domain, then merges the
per-domain artifacts into a single verified run:

* agents are spawned with ``sys.executable -m repro.net.agent`` and the
  run's full parameter set, so every process deterministically rebuilds
  its own shard of the landscape;
* a crashed agent (``--kill-agent`` chaos, or any abnormal exit) is
  respawned with ``--resume``: it restores from its durable snapshot,
  re-handshakes under a new incarnation (bumping the fencing token) and
  continues its own event log;
* at the end :meth:`FederationServer.finalize` reads each domain's
  directory under the state directory the server was built on —
  ``summary.json`` and the ``events`` table of ``state.db``, the
  agent's own log, whole even when a partition swallowed the agent's
  final deregister — for the merged summary, the merged trace
  (``telemetry.jsonl`` and ``store.db`` under ``out_dir``) and the
  AG3xx verification report.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro
from repro.net.chaos import NetChaosProfile
from repro.net.server import FederationServer
from repro.sim.clock import PAPER_HORIZON_MINUTES
from repro.sim.scenarios import Scenario

__all__ = ["MultiprocResult", "run_multiproc"]


@dataclass
class MultiprocResult:
    """Everything a ``--multiproc`` run produces."""

    #: AG3xx verification report over the merged trace
    report: object
    #: merged run summary (``schema: multiproc-merged``)
    summary: Dict[str, object]
    #: path of the merged, causally ordered trace file
    trace_path: Path
    #: per-domain summaries as read back from disk
    domain_summaries: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: domain -> number of crash respawns performed
    respawns: Dict[str, int] = field(default_factory=dict)
    #: wire chaos delivery statistics (empty without --net-chaos)
    net_stats: Dict[str, int] = field(default_factory=dict)
    #: sessions the server deposed for silence
    deposed_count: int = 0


def _agent_command(
    domain: str,
    domains: int,
    port: int,
    host: str,
    state_dir: Path,
    scenario: Scenario,
    user_factor: float,
    horizon: int,
    seed: int,
    start_minute: int,
    landscape_kind: str,
    chaos_seed: Optional[int],
    snapshot_interval: int,
    kill_at: Optional[int],
    resume: bool,
) -> List[str]:
    command = [
        sys.executable,
        "-m",
        "repro.net.agent",
        "--domain", domain,
        "--domains", str(domains),
        "--landscape", landscape_kind,
        "--scenario", scenario.value,
        "--users", str(user_factor),
        "--minutes", str(horizon),
        "--seed", str(seed),
        "--start", str(start_minute),
        "--state-dir", str(state_dir),
        "--server-host", host,
        "--server-port", str(port),
        "--snapshot-interval", str(snapshot_interval),
    ]
    if chaos_seed is not None:
        command += ["--chaos", "--chaos-seed", str(chaos_seed)]
    if kill_at is not None:
        command += ["--kill-at", str(kill_at)]
    if resume:
        command.append("--resume")
    return command


def _agent_environment() -> Dict[str, str]:
    """Child env with this build's ``src`` tree on PYTHONPATH."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src + os.pathsep + existing if existing else src
        )
    return env


def run_multiproc(
    domains: int,
    state_dir: Path,
    out_dir: Path,
    scenario: Scenario = Scenario.FULL_MOBILITY,
    user_factor: float = 1.0,
    horizon: int = PAPER_HORIZON_MINUTES,
    seed: int = 7,
    start_minute: int = 12 * 60,
    landscape_kind: str = "paper",
    chaos_seed: Optional[int] = None,
    net_chaos_seed: Optional[int] = None,
    kill_agent: Optional[Tuple[str, int]] = None,
    snapshot_interval: int = 10,
    ignore: Tuple[str, ...] = (),
    host: str = "127.0.0.1",
    max_respawns: int = 3,
    wall_timeout: float = 1800.0,
) -> MultiprocResult:
    """Run one multi-process federated simulation end to end.

    ``kill_agent`` is ``(domain, minute)``: that agent SIGKILLs itself
    right after the given simulated minute and is respawned with
    ``--resume``.  ``net_chaos_seed`` enables the standard wire-chaos
    mix (drop/duplicate/delay everywhere plus one seeded one-way
    partition).  Raises ``ValueError`` for a ``kill_agent`` that names
    no domain or a minute before the first snapshot, and ``RuntimeError``
    when an agent fails terminally (out of respawns, or exit code 2: it
    refused to start), finishes without a summary, or the wall timeout
    expires.
    """
    if domains < 2:
        raise ValueError("a multi-process federation needs at least 2 domains")
    state_dir = Path(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    domain_names = [f"domain-{index + 1}" for index in range(domains)]
    if kill_agent is not None:
        first_snapshot = start_minute + snapshot_interval - 1
        if kill_agent[0] not in domain_names:
            raise ValueError(
                f"--kill-agent domain {kill_agent[0]!r} is not one of "
                f"{domain_names}"
            )
        if kill_agent[1] < first_snapshot:
            raise ValueError(
                f"--kill-agent minute {kill_agent[1]} is before the first "
                f"snapshot (minute {first_snapshot}): there would be nothing "
                "to resume"
            )
    profile = None
    if net_chaos_seed is not None:
        profile = NetChaosProfile.seeded(
            net_chaos_seed, domain_names, start_minute, horizon
        )
    server = FederationServer(
        domain_names, state_dir, start_minute, horizon, net_chaos=profile
    )
    server.start()
    port = server.listen(host)
    env = _agent_environment()
    respawns = {name: 0 for name in domain_names}
    processes: Dict[str, subprocess.Popen] = {}

    def spawn(domain: str, resume: bool) -> None:
        kill_at = None
        if not resume and kill_agent is not None and kill_agent[0] == domain:
            kill_at = kill_agent[1]
        command = _agent_command(
            domain, domains, port, host, state_dir, scenario, user_factor,
            horizon, seed, start_minute, landscape_kind, chaos_seed,
            snapshot_interval, kill_at, resume,
        )
        processes[domain] = subprocess.Popen(command, env=env)

    try:
        for name in domain_names:
            spawn(name, resume=False)
        deadline = time.monotonic() + wall_timeout
        pending = set(domain_names)
        while pending:
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"multiproc run timed out; still running: {sorted(pending)}"
                )
            time.sleep(0.1)
            for name in sorted(pending):
                code = processes[name].poll()
                if code is None:
                    continue
                if code == 0:
                    pending.discard(name)
                    continue
                # exit 2 is the agent refusing to start (its one stderr
                # line says why); a respawn would be refused the same way
                if code == 2 or respawns[name] >= max_respawns:
                    raise RuntimeError(
                        f"agent {name} exited with {code} after "
                        f"{respawns[name]} respawns"
                    )
                # crashed (kill_at SIGKILL lands here as -9): resume it
                respawns[name] += 1
                spawn(name, resume=True)
        report, merged_summary, trace_path = server.finalize(
            Path(out_dir), ignore=ignore, store_path=Path(out_dir) / "store.db"
        )
        return MultiprocResult(
            report=report,
            summary=merged_summary,
            trace_path=trace_path,
            domain_summaries=server.domain_summaries,
            respawns=respawns,
            net_stats=dict(server.injector.stats) if server.injector else {},
            deposed_count=server.sessions.deposed_count,
        )
    finally:
        for process in processes.values():
            if process.poll() is None:
                process.terminate()
                try:
                    process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    process.kill()
        server.stop()
