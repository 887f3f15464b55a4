"""Command-line front end for the AutoGlobe reproduction.

Subcommands::

    autoglobe run --scenario full-mobility --users 1.15 [--hours 80]
        Run one simulation and print the result summary plus the
        controller's action log.  With --chaos, additionally inject
        instance/host crashes, hangs, monitoring outages and flaky
        actions (seeded via --chaos-seed) and report availability/MTTR;
        --no-controller runs the chaos baseline without self-healing.

    autoglobe capacity [--scenario X] [--hours 80]
        Run the Table 7 capacity sweep (all scenarios by default).

    autoglobe console --scenario constrained-mobility --users 1.15
        Run a short simulation and render the controller console: the
        server, service and message views, open situations and pending
        approvals (the same frame --connect renders from a live run).

    autoglobe landscape [--design] [--out FILE]
        Print (or write) the built-in Section 5.1 landscape as XML;
        with --design, first optimize the initial allocation with the
        landscape designer.

    autoglobe rebalance [--apply]
        Plan (and optionally apply, in memory) the migration from the
        Figure 11 allocation to the landscape designer's optimized one.

    autoglobe profiles
        Print the daily load profiles as text charts (Figure 10).

    autoglobe lint [LANDSCAPE.xml] [--format json] [--strict]
        Statically analyze a landscape description: lint every fuzzy
        rule base (built-in and per-service overrides), check the
        landscape's feasibility and run the AG306/AG307 controller
        oscillation pass.  Exits 0 when clean, 1 on warnings, 2 on
        errors (with --strict, warnings also exit 2).

    autoglobe run ... --verify
        Additionally attach the temporal-invariant sanitizer to the
        telemetry bus: every event is checked live against the AG3xx
        invariants (fencing safety, escrow ordering, exactly-once,
        compensation completeness, accounting consistency) and the
        findings fold into the exit code like lint findings.

    autoglobe verify TRACE [--summary summary.json] [--strict]
        Replay a run's events — a SQLite event store (--store, the
        store.db of an --export directory, a domain agent's state.db)
        or a JSONL trace rendered from one — through the same invariant
        checkers offline.  For the same run, the offline report is
        byte-identical to the live sanitizer's.

    autoglobe run ... --store store.db --serve 127.0.0.1:8642
        Additionally persist every telemetry event to a crash-tolerant
        SQLite store and expose the live ops API: landscape, situation
        and approval snapshots over HTTP, an /events WebSocket, and
        POST approve/reject verdicts (the live half of the paper's
        semi-automatic mode; enable it with --semi-automatic).

    autoglobe console --connect 127.0.0.1:8642 [--once]
        Attach to a live run's ops API: render the landscape, open
        situations and pending approvals, then tail the event stream.

    autoglobe tail STORE.db [--topic T] [--since-seq N] [--follow]
        Print events from a telemetry store; --follow keeps polling
        for new rows, tail -f style, while a run is still writing.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.sim.clock import MINUTES_PER_DAY, format_minute
from repro.sim.scenarios import Scenario

__all__ = ["main", "build_parser"]


def _clock_time(text: str) -> int:
    from repro.sim.clock import parse_clock_time

    try:
        return parse_clock_time(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _positive_domains(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid domain count {text!r}: expected a positive integer"
        )
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"invalid domain count {count}: need at least one domain"
        )
    return count


def _kill_agent(text: str) -> "tuple":
    domain, _, minute = text.partition(":")
    try:
        return (domain, int(minute))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid kill spec {text!r}: expected DOMAIN:MINUTE "
            "(e.g. domain-2:760)"
        )


def _serve_addr(text: str) -> "tuple":
    host, _, port = text.rpartition(":")
    if not port.isdecimal() or int(port) > 65535:
        raise argparse.ArgumentTypeError(
            f"invalid serve address {text!r}: expected HOST:PORT with a port "
            "in 0-65535 (e.g. 127.0.0.1:8642; port 0 binds an ephemeral port)"
        )
    return (host or "127.0.0.1", int(port))


def _connect_addr(text: str) -> "tuple":
    address = _serve_addr(text)
    if address[1] == 0:
        raise argparse.ArgumentTypeError(
            f"invalid connect address {text!r}: port 0 is an ephemeral "
            "bind, not a port to dial"
        )
    return address


def _scenario(name: str) -> Scenario:
    for scenario in Scenario:
        if scenario.value == name:
            return scenario
    raise argparse.ArgumentTypeError(
        f"unknown scenario {name!r}; choose from "
        f"{', '.join(s.value for s in Scenario)}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autoglobe",
        description="AutoGlobe (ICDE 2006) reproduction: fuzzy-controller "
        "based self-organizing infrastructure.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="run one simulation")
    run.add_argument("--scenario", type=_scenario, default=Scenario.FULL_MOBILITY)
    run.add_argument("--users", type=float, default=1.15,
                     help="relative user population (1.0 = Table 4)")
    run.add_argument("--hours", type=float, default=80.0)
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--start", type=_clock_time, default=None, metavar="HH:MM",
                     help="wall-clock start time of day (default 12:00)")
    run.add_argument("--domains", type=_positive_domains, default=None,
                     metavar="N",
                     help="partition the landscape into N control domains, "
                          "each with its own controller, coordinated by the "
                          "federation layer")
    run.add_argument("--actions", action="store_true",
                     help="print the controller action log")
    run.add_argument("--export", default=None, metavar="DIR",
                     help="export summary/series/action CSVs to a "
                          "directory, with the run's event store "
                          "(store.db, unless --store names another "
                          "place) and telemetry.jsonl rendered from it")
    run.add_argument("--explain", action="store_true",
                     help="explain the controller's most recent decisions")
    run.add_argument("--chaos", action="store_true",
                     help="inject faults: instance/host crashes, hangs, "
                          "monitoring outages and flaky actions")
    run.add_argument("--chaos-seed", type=int, default=115,
                     help="fault-injection RNG seed (default 115)")
    run.add_argument("--no-controller", action="store_true",
                     help="disable the controller (chaos baseline)")
    run.add_argument("--chaos-controller", action="store_true",
                     help="additionally crash the controller and partition "
                          "the leader (implies the supervised controller)")
    run.add_argument("--state-dir", default=None, metavar="PATH",
                     help="keep the run's state.db (journal, snapshots, "
                          "lease, load archive) here; enables crash "
                          "recovery; a used directory needs --resume")
    run.add_argument("--resume", action="store_true",
                     help="continue from the last snapshot in --state-dir")
    run.add_argument("--standby", action="store_true",
                     help="keep a hot-standby controller (fast failover "
                          "with fencing instead of a restart wait)")
    run.add_argument("--kill-at", type=int, default=None, metavar="MINUTE",
                     help="SIGKILL the process after this absolute minute "
                          "(crash-recovery testing; requires --state-dir)")
    run.add_argument("--verify", action="store_true",
                     help="attach the AG3xx temporal-invariant sanitizer "
                          "to the telemetry bus and fold its findings "
                          "into the exit code")
    run.add_argument("--strict", action="store_true",
                     help="with --verify: treat warnings as errors (exit 2)")
    run.add_argument("--ignore", action="append", default=[], metavar="CODE",
                     help="with --verify: suppress a diagnostic code "
                          "(repeatable)")
    run.add_argument("--store", default=None, metavar="STORE.db",
                     help="keep the run's event log in this SQLite file "
                          "instead of --state-dir's state.db (a run with "
                          "neither keeps none); verifiable with "
                          "'autoglobe verify', tailable with "
                          "'autoglobe tail'; a --resume needs the log "
                          "the run was started with")
    run.add_argument("--serve", type=_serve_addr, default=None,
                     metavar="HOST:PORT",
                     help="expose the live ops API while the run "
                          "executes: HTTP snapshots, /events WebSocket "
                          "and POST approve/reject verdicts")
    run.add_argument("--pace", type=float, default=0.0, metavar="SECONDS",
                     help="sleep this many real seconds per simulated "
                          "minute (gives --serve clients time to react)")
    run.add_argument("--semi-automatic", action="store_true",
                     help="run the controller in the paper's "
                          "semi-automatic mode: actions wait for "
                          "administrator approval")
    run.add_argument("--multiproc", action="store_true",
                     help="run each control domain as its own agent "
                          "process coordinated by a federation server "
                          "(requires --domains >= 2 and --state-dir)")
    run.add_argument("--net-chaos", action="store_true",
                     help="with --multiproc: inject wire faults (drop/"
                          "duplicate/delay plus one seeded one-way "
                          "partition)")
    run.add_argument("--net-chaos-seed", type=int, default=115,
                     help="wire-fault RNG seed (default 115)")
    run.add_argument("--kill-agent", type=_kill_agent, default=None,
                     metavar="DOMAIN:MINUTE",
                     help="with --multiproc: SIGKILL that domain's agent "
                          "after the given absolute minute; it is "
                          "respawned with --resume")

    capacity = subparsers.add_parser("capacity", help="Table 7 capacity sweep")
    capacity.add_argument("--scenario", type=_scenario, default=None,
                          help="single scenario (default: all three)")
    capacity.add_argument("--hours", type=float, default=80.0)
    capacity.add_argument("--seed", type=int, default=7)

    console = subparsers.add_parser("console", help="render the controller console")
    console.add_argument("--scenario", type=_scenario,
                         default=Scenario.CONSTRAINED_MOBILITY)
    console.add_argument("--users", type=float, default=1.15)
    console.add_argument("--hours", type=float, default=26.0)
    console.add_argument("--seed", type=int, default=7)
    console.add_argument("--connect", type=_connect_addr, default=None,
                         metavar="HOST:PORT",
                         help="attach to a live run's ops API instead of "
                              "simulating locally")
    console.add_argument("--once", action="store_true",
                         help="with --connect: print one snapshot and "
                              "exit instead of tailing the event stream")
    console.add_argument("--max-events", type=int, default=None, metavar="N",
                         help="with --connect: stop after N streamed "
                              "events (default: until interrupted)")

    landscape = subparsers.add_parser("landscape", help="emit the landscape XML")
    landscape.add_argument("--design", action="store_true",
                           help="optimize the initial allocation first")
    landscape.add_argument("--out", default=None, help="write to file")

    rebalance = subparsers.add_parser(
        "rebalance",
        help="plan (and optionally apply) a migration to the designer's "
             "optimized allocation",
    )
    rebalance.add_argument("--apply", action="store_true",
                           help="execute the plan on an in-memory platform")

    subparsers.add_parser("profiles", help="show the daily load profiles")

    lint = subparsers.add_parser(
        "lint",
        help="statically analyze rule bases and landscape feasibility",
    )
    lint.add_argument(
        "landscape", nargs="?", default=None, metavar="LANDSCAPE.xml",
        help="landscape XML file (default: the built-in Section 5.1 landscape)",
    )
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      dest="format_", metavar="FORMAT",
                      help="report format: text (default) or json")
    lint.add_argument("--strict", action="store_true",
                      help="treat warnings as errors (exit 2)")
    lint.add_argument("--ignore", action="append", default=[], metavar="CODE",
                      help="suppress a diagnostic code globally (repeatable)")
    lint.add_argument("--no-rules", action="store_true",
                      help="skip the rule-base linter")
    lint.add_argument("--no-feasibility", action="store_true",
                      help="skip the landscape feasibility analyzer")
    lint.add_argument("--no-oscillation", action="store_true",
                      help="skip the AG306/AG307 controller-oscillation pass")

    tail = subparsers.add_parser(
        "tail",
        help="print events from a telemetry event store",
    )
    tail.add_argument("store", metavar="STORE.db",
                      help="SQLite event store written by "
                           "'autoglobe run --store'")
    tail.add_argument("--topic", default=None,
                      help="only events on this bus topic")
    tail.add_argument("--since-seq", type=int, default=0, metavar="N",
                      help="skip events with sequence number <= N")
    tail.add_argument("--follow", action="store_true",
                      help="keep polling for new rows (tail -f) until "
                           "interrupted")
    tail.add_argument("--max-events", type=int, default=None, metavar="N",
                      help="stop after printing N events")

    verify = subparsers.add_parser(
        "verify",
        help="check a run's events (trace or store) against the AG3xx "
             "temporal invariants",
    )
    verify.add_argument(
        "trace", metavar="TRACE", nargs="+",
        help="trace or store: a SQLite event store (--store, an "
             "--export directory's store.db, a domain agent's "
             "state.db) or the telemetry.jsonl rendered from one; "
             "several per-agent files from a --multiproc run are "
             "merged by Lamport clock before verification",
    )
    verify.add_argument(
        "--summary", default=None, metavar="SUMMARY.json",
        help="run summary for accounting reconciliation (default: a "
             "summary.json next to the trace, when present)",
    )
    verify.add_argument("--format", choices=("text", "json"), default="text",
                        dest="format_", metavar="FORMAT",
                        help="report format: text (default) or json")
    verify.add_argument("--strict", action="store_true",
                        help="treat warnings as errors (exit 2)")
    verify.add_argument("--ignore", action="append", default=[],
                        metavar="CODE",
                        help="suppress a diagnostic code globally "
                             "(repeatable)")
    return parser


def _cmd_run(args) -> int:
    from repro.analysis import EXIT_ERRORS
    from repro.core.state import StateCorruptError
    from repro.sim.runner import SimulationRunner

    if args.multiproc:
        return _cmd_run_multiproc(args)
    chaos = None
    if args.chaos_controller:
        from repro.sim.scenarios import controller_chaos

        chaos = controller_chaos(seed=args.chaos_seed)
    elif args.chaos:
        from repro.sim.scenarios import default_chaos

        chaos = default_chaos(seed=args.chaos_seed)
    landscape = None
    if args.domains is not None and args.domains > 1:
        from repro.config.builtin import paper_landscape, partition_landscape

        landscape = partition_landscape(paper_landscape(), args.domains)
    horizon = int(args.hours * 60)
    start_minute = args.start if args.start is not None else 12 * 60
    # fail fast on a negative --hours before building the platform
    refusal = None
    if start_minute + horizon < 0:
        refusal = "clock horizon cannot be negative"
    elif horizon < 0:
        refusal = (
            f"clock start minute {start_minute} lies beyond the "
            f"{start_minute + horizon}-minute horizon"
        )
    if refusal is not None:
        print(f"autoglobe run: {refusal}", file=sys.stderr)
        return EXIT_ERRORS
    store_path = args.store
    if args.export and store_path is None:
        # the exported trace is rendered from the run's store: complete
        # for any run length, and across a --kill-at and a --resume
        from repro.sim.export import export_directory

        base = export_directory(args.export, args.scenario.value, args.users)
        base.mkdir(parents=True, exist_ok=True)
        store_path = base / "store.db"
    try:
        runner = SimulationRunner(
            args.scenario,
            user_factor=args.users,
            horizon=horizon,
            seed=args.seed,
            start_minute=start_minute,
            landscape=landscape,
            collect_host_series=args.export is not None,
            controller_enabled=False if args.no_controller else None,
            chaos=chaos,
            state_dir=args.state_dir,
            resume=args.resume,
            standby=args.standby,
            kill_at=args.kill_at,
            verify=args.verify,
            store_path=store_path,
            serve=args.serve,
            pace=args.pace,
            semi_automatic=args.semi_automatic,
        )
        if runner.ops_server is not None:
            print(f"ops API listening on http://{runner.ops_server.host}:"
                  f"{runner.ops_server.port}", file=sys.stderr)
        result = runner.run()
    except (StateCorruptError, ValueError) as exc:
        # a damaged state file or one of another format, a used state
        # directory, a resume without a snapshot or with a log shorter
        # than it: one line, exit 2
        print(f"autoglobe run: {exc}", file=sys.stderr)
        return EXIT_ERRORS
    print(result.summary())
    plane = runner.controller
    if len(plane.shards) > 1:
        requests = plane.relocation_requests
        moved = sum(1 for request in requests if request.status == "moved")
        print(f"  control domains: {len(plane.shards)}; "
              f"cross-domain relocations: {moved} moved / "
              f"{len(requests)} requested")
    if runner.injector is not None:
        print(f"  {_injected_faults(result)}")
        worst = sorted(
            (a for a in result.availability.values() if a.down_minutes),
            key=lambda a: a.availability,
        )[:3]
        for record in worst:
            print(f"  {record}")
    counts = result.action_counts()
    if counts:
        rendered = ", ".join(
            f"{action.value}: {count}" for action, count in sorted(
                counts.items(), key=lambda kv: -kv[1]
            )
        )
        print(f"  action breakdown: {rendered}")
    print(f"  SLA verdict: {'OVERLOADED' if result.violates() else 'ok'}")
    if args.actions:
        for action in result.actions:
            print(f"  {format_minute(action.time)}  {action}")
    if args.export:
        from repro.sim.export import export_all, export_store_jsonl

        target = export_all(result, args.export)
        exported = export_store_jsonl(store_path, target / "telemetry.jsonl")
        print(f"  exported to {target} ({exported} telemetry records)")
    if args.explain:
        from repro.core.explain import explain_last_decisions

        print("\nmost recent decisions:")
        print(explain_last_decisions(plane.decision_records))
    if args.verify:
        report = runner.verification_report(result)
        if args.ignore:
            report = report.without_codes(args.ignore)
        print()
        print(report.render("text"))
        return report.exit_code(strict=args.strict)
    return 0


def _injected_faults(result) -> str:
    """The chaos line of ``run``: the run's fault records the injector
    raised, by kind (supervision outcomes such as recoveries left out)."""
    from collections import Counter

    from repro.telemetry.records import SupervisionEventKind

    supervision = {kind.value for kind in SupervisionEventKind if kind.creates_fault_record}
    counts = Counter(
        record.kind for record in result.fault_records if record.kind not in supervision
    )
    parts = [
        f"crashes: {counts['crash']}",
        f"hangs: {counts['hang']}",
        f"host crashes: {counts['host-crash']}",
        f"monitor outages: {counts['monitor-outage']}",
    ]
    if counts["controller-crash"] or counts["leader-partition"]:
        parts.append(f"controller crashes: {counts['controller-crash']}")
        parts.append(f"leader partitions: {counts['leader-partition']}")
    return f"injected faults: {sum(counts.values())} ({', '.join(parts)})"


def _cmd_run_multiproc(args) -> int:
    from pathlib import Path

    from repro.analysis import EXIT_ERRORS

    if args.domains is None or args.domains < 2:
        print("autoglobe run: --multiproc requires --domains N (N >= 2)",
              file=sys.stderr)
        return EXIT_ERRORS
    if args.state_dir is None:
        print("autoglobe run: --multiproc requires --state-dir (agents "
              "journal and snapshot there)", file=sys.stderr)
        return EXIT_ERRORS
    for flag, name in (
        (args.chaos_controller, "--chaos-controller"),
        (args.no_controller, "--no-controller"),
        (args.standby, "--standby"),
        (args.resume, "--resume"),
        (args.kill_at is not None, "--kill-at"),
        (args.serve is not None, "--serve"),
        (args.store is not None, "--store"),
        (args.pace > 0, "--pace"),
        (args.semi_automatic, "--semi-automatic"),
    ):
        if flag:
            print(f"autoglobe run: {name} is not supported with "
                  "--multiproc (use --kill-agent for crash chaos)",
                  file=sys.stderr)
            return EXIT_ERRORS
    from repro.core.state import StateCorruptError
    from repro.net.orchestrator import run_multiproc

    state_dir = Path(args.state_dir)
    out_dir = Path(args.export) if args.export else state_dir / "merged"
    start_minute = args.start if args.start is not None else 12 * 60
    try:
        result = run_multiproc(
            args.domains,
            state_dir,
            out_dir,
            scenario=args.scenario,
            user_factor=args.users,
            horizon=int(args.hours * 60),
            seed=args.seed,
            start_minute=start_minute,
            chaos_seed=args.chaos_seed if args.chaos else None,
            net_chaos_seed=args.net_chaos_seed if args.net_chaos else None,
            kill_agent=args.kill_agent,
            ignore=tuple(args.ignore),
        )
    except (RuntimeError, ValueError, StateCorruptError) as exc:
        # an agent out of respawns or without a summary; a --kill-agent
        # that cannot be honoured; a damaged state.db or one without an
        # event log (TraceSchemaError, a ValueError)
        print(f"autoglobe run: {exc}", file=sys.stderr)
        return EXIT_ERRORS
    summary = result.summary
    print(f"{args.scenario.value} x{args.users:.2f}: "
          f"{args.domains} agent processes, "
          f"{summary.get('action_count', 0)} actions, "
          f"horizon {summary.get('horizon_minutes', int(args.hours * 60))} min")
    for domain in sorted(result.domain_summaries):
        payload = result.domain_summaries[domain]
        net = payload.get("net", {})
        perf = payload.get("perf", {})
        print(f"  {domain}: actions {payload.get('action_count', 0)}, "
              f"respawns {result.respawns.get(domain, 0)}, "
              f"degraded {net.get('degraded_count', 0)}x, "
              f"escrow out/in {net.get('escrow_out', 0)}/"
              f"{net.get('escrow_in', 0)}, "
              f"tick {perf.get('controller_tick_seconds', 0.0) * 1000 / max(perf.get('ticks', 1), 1):.2f} ms")
    if result.net_stats:
        rendered = ", ".join(
            f"{key}: {value}" for key, value in sorted(result.net_stats.items())
        )
        print(f"  wire chaos: {rendered}")
    if result.deposed_count:
        print(f"  sessions deposed for silence: {result.deposed_count}")
    print(f"  merged trace: {result.trace_path}")
    if args.verify:
        print()
        print(result.report.render("text"))
        return result.report.exit_code(strict=args.strict)
    return 0


def _cmd_capacity(args) -> int:
    from repro.sim.capacity import capacity_search

    scenarios = [args.scenario] if args.scenario else list(Scenario)
    print("Table 7 — maximum possible, relative number of users")
    for scenario in scenarios:
        result = capacity_search(
            scenario, horizon=int(args.hours * 60), seed=args.seed
        )
        print(result.summary())
    return 0


def _cmd_console(args) -> int:
    if args.connect is not None:
        from repro.ops.console import run_console

        host, port = args.connect
        return run_console(
            host, port, once=args.once, max_events=args.max_events
        )
    from repro.ops.api import OpsBridge
    from repro.ops.console import render_snapshot
    from repro.sim.runner import SimulationRunner

    runner = SimulationRunner(
        args.scenario,
        user_factor=args.users,
        horizon=int(args.hours * 60),
        seed=args.seed,
        collect_host_series=False,
    )
    # the message view is the alerts the bridge sees: attached before the run
    bridge = OpsBridge(runner.platform, runner.controller, collector=runner.collector)
    bridge.attach(runner.platform.bus)
    runner.run()
    bridge.refresh(runner.start_minute + runner.horizon - 1)
    print(render_snapshot(*map(bridge.snapshot, ("landscape", "situations", "approvals"))))
    return 0


def _cmd_landscape(args) -> int:
    from repro.config.builtin import paper_landscape
    from repro.config.xml_writer import landscape_to_xml

    landscape = paper_landscape()
    if args.design:
        from repro.allocation.designer import LandscapeDesigner

        designed = LandscapeDesigner(landscape).design()
        landscape = designed.as_landscape(landscape)
        print(
            f"# designed allocation, predicted worst peak "
            f"{designed.predicted_peak_load:.0%}",
            file=sys.stderr,
        )
    xml = landscape_to_xml(landscape)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(xml)
        print(f"wrote {args.out}")
    else:
        print(xml)
    return 0


def _cmd_rebalance(args) -> int:
    from repro.allocation.designer import LandscapeDesigner
    from repro.allocation.migration import Migrator
    from repro.config.builtin import paper_landscape
    from repro.serviceglobe.platform import Platform

    landscape = paper_landscape()
    platform = Platform(landscape)
    designed = LandscapeDesigner(landscape).design()
    migrator = Migrator(platform)
    plan = migrator.plan(designed.assignment)
    print(f"designed allocation predicted worst host peak: "
          f"{designed.predicted_peak_load:.0%}")
    print(plan)
    if args.apply and not plan.is_noop:
        executed = migrator.execute(plan)
        print(f"applied {len(executed)} steps; final placement:")
        for instance in sorted(
            platform.all_instances(), key=lambda i: (i.host_name, i.service_name)
        ):
            print(f"  {instance.host_name}: {instance.service_name}")
    return 0


def _cmd_profiles(args) -> int:
    from repro.sim.loadcurves import available_profiles, profile_value

    width = 48
    for name in available_profiles():
        if name == "flat":
            continue
        print(f"\n{name}")
        for hour in range(0, 24, 2):
            value = profile_value(name, hour * 60)
            bar = "#" * round(value * width)
            print(f"  {hour:02d}:00 |{bar:<{width}}| {value:4.0%}")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import EXIT_ERRORS, analyze_landscape

    if args.landscape:
        from repro.config.xml_loader import LandscapeParseError, load_landscape

        try:
            landscape = load_landscape(args.landscape)
        except (OSError, LandscapeParseError) as exc:
            print(f"autoglobe lint: {args.landscape}: {exc}", file=sys.stderr)
            return EXIT_ERRORS
    else:
        from repro.config.builtin import paper_landscape

        landscape = paper_landscape()
    report = analyze_landscape(
        landscape,
        include_rule_bases=not args.no_rules,
        include_feasibility=not args.no_feasibility,
        include_oscillation=not args.no_oscillation,
        ignore=args.ignore,
    )
    print(report.render(args.format_))
    return report.exit_code(strict=args.strict)


def _unreadable(command: str, target, exc: Exception) -> int:
    """A run file the command cannot read: one line on stderr, exit 2."""
    from repro.analysis import EXIT_ERRORS
    from repro.core.state import StateCorruptError

    reason = str(exc)
    if isinstance(exc, StateCorruptError):
        reason = f"{exc.path}: corrupt ({exc.detail})"
    if not reason.startswith(f"{target}: "):  # store errors name their file
        reason = f"{target}: {reason}"
    print(f"autoglobe {command}: {reason}", file=sys.stderr)
    return EXIT_ERRORS


def _cmd_tail(args) -> int:
    from repro.analysis import EXIT_ERRORS
    from repro.core.state import StateCorruptError
    from repro.ops.store import is_store_file, tail_store

    from pathlib import Path

    store = Path(args.store)
    if not store.exists():
        print(f"autoglobe tail: {store}: no such file", file=sys.stderr)
        return EXIT_ERRORS
    if not is_store_file(store):
        print(f"autoglobe tail: {store}: not a telemetry event store "
              "(expected SQLite written by 'autoglobe run --store')",
              file=sys.stderr)
        return EXIT_ERRORS
    printed = 0
    try:
        for source, event in tail_store(
            store,
            topic=args.topic,
            since_seq=args.since_seq,
            follow=args.follow,
        ):
            origin = f"{source}/" if source else ""
            clock = f" clock={event.clock}" if event.clock is not None else ""
            record = event.record
            print(f"#{origin}{event.seq:<7}[{event.topic}]{clock} "
                  f"{record.get('type')} t={record.get('time')} "
                  f"{_tail_detail(record)}")
            printed += 1
            if args.max_events is not None and printed >= args.max_events:
                break
    except (StateCorruptError, ValueError) as exc:
        return _unreadable("tail", store, exc)
    except KeyboardInterrupt:
        pass
    except BrokenPipeError:
        # tail | head: the consumer closed the pipe, which is how these
        # pipelines end — swap in /dev/null so interpreter shutdown does
        # not trip over the final stdout flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return 0


def _tail_detail(record: dict) -> str:
    """The interesting non-key fields of one record, compactly."""
    skip = {"type", "time", "schema"}
    parts = [
        f"{key}={value}"
        for key, value in record.items()
        if key not in skip and value not in ("", None, [], {})
    ]
    return " ".join(parts[:6])


def _cmd_verify(args) -> int:
    from repro.analysis import verify_traces
    from repro.core.state import StateCorruptError

    try:
        report = verify_traces(
            args.trace, summary_path=args.summary, ignore=args.ignore
        )
    except (OSError, StateCorruptError, ValueError) as exc:
        target = args.trace[0] if len(args.trace) == 1 else args.trace
        return _unreadable("verify", target, exc)
    print(report.render(args.format_))
    return report.exit_code(strict=args.strict)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "capacity": _cmd_capacity,
        "console": _cmd_console,
        "landscape": _cmd_landscape,
        "rebalance": _cmd_rebalance,
        "profiles": _cmd_profiles,
        "lint": _cmd_lint,
        "tail": _cmd_tail,
        "verify": _cmd_verify,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
