"""Tests for the command-line front end (fast horizons only)."""

import pytest

from repro.cli import build_parser, main
from tests.config.test_xml_roundtrip import HOSTILE_NUMBERS


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scenario_parsing(self):
        args = build_parser().parse_args(["run", "--scenario", "full-mobility"])
        assert args.scenario.value == "full-mobility"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scenario", "chaos"])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.users == pytest.approx(1.15)
        assert args.hours == pytest.approx(80.0)


class TestCommands:
    def test_run_command(self, capsys):
        exit_code = main(
            ["run", "--scenario", "static", "--users", "1.0", "--hours", "2"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "scenario=static" in out
        assert "SLA verdict" in out

    def test_run_command_with_actions(self, capsys):
        exit_code = main(
            [
                "run",
                "--scenario",
                "constrained-mobility",
                "--users",
                "1.3",
                "--hours",
                "8",
                "--actions",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "controller actions" in out

    def test_run_command_with_domains(self, capsys):
        exit_code = main(
            ["run", "--scenario", "full-mobility", "--hours", "2",
             "--domains", "4"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "control domains: 4" in out
        assert "cross-domain relocations" in out

    def test_run_command_with_start_time(self, capsys):
        exit_code = main(
            ["run", "--scenario", "static", "--users", "1.0", "--hours", "1",
             "--start", "08:30"]
        )
        assert exit_code == 0
        assert "scenario=static" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--start", "25:00"],
            ["run", "--start", "nope"],
            ["run", "--domains", "0"],
            ["run", "--domains", "many"],
        ],
    )
    def test_run_command_rejects_bad_start_and_domains(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "invalid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--hours", "0.1", "--serve", "127.0.0.1:70000"],
            ["run", "--hours", "0.1", "--serve", "127.0.0.1:-1"],
            ["console", "--connect", "127.0.0.1:65536"],
            ["console", "--connect", "127.0.0.1:0"],
        ],
    )
    def test_ports_outside_the_dialable_range_are_refused_at_parse_time(
        self, argv, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid" in err and "Traceback" not in err

    def test_port_bounds_are_accepted(self):
        parser = build_parser()
        assert parser.parse_args(["run", "--serve", "127.0.0.1:0"]).serve[1] == 0
        assert parser.parse_args(["run", "--serve", ":65535"]).serve == (
            "127.0.0.1", 65535)
        assert parser.parse_args(["console", "--connect", "h:1"]).connect == ("h", 1)

    def test_console_command(self, capsys):
        exit_code = main(
            ["console", "--scenario", "static", "--users", "1.0", "--hours", "1"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "== Servers ==" in out and "Blade1" in out

    def test_landscape_command(self, capsys):
        assert main(["landscape"]) == 0
        out = capsys.readouterr().out
        assert "<landscape" in out and "DBServer3" in out

    def test_landscape_to_file(self, tmp_path, capsys):
        target = tmp_path / "landscape.xml"
        assert main(["landscape", "--out", str(target)]) == 0
        from repro.config.xml_loader import load_landscape

        assert len(load_landscape(target).servers) == 19

    def test_landscape_designed(self, capsys):
        assert main(["landscape", "--design"]) == 0
        out = capsys.readouterr().out
        assert "<landscape" in out

    def test_profiles_command(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "les" in out and "bw-batch" in out and "08:00" in out

    def test_rebalance_plan(self, capsys):
        assert main(["rebalance"]) == 0
        out = capsys.readouterr().out
        assert "migration plan" in out
        assert "predicted worst host peak" in out

    def test_rebalance_apply(self, capsys):
        assert main(["rebalance", "--apply"]) == 0
        out = capsys.readouterr().out
        assert "applied" in out and "final placement" in out

    def test_run_with_export(self, tmp_path, capsys):
        assert main([
            "run", "--scenario", "static", "--users", "1.0",
            "--hours", "1", "--export", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "exported to" in out
        assert (tmp_path / "static_100" / "summary.json").exists()
        assert (tmp_path / "static_100" / "host_loads.csv").exists()

    def test_run_with_explain(self, capsys):
        assert main([
            "run", "--scenario", "constrained-mobility", "--users", "1.3",
            "--hours", "6", "--explain",
        ]) == 0
        out = capsys.readouterr().out
        assert "most recent decisions" in out
        assert "situation:" in out

    def test_capacity_command_with_tiny_horizon(self, capsys):
        exit_code = main(
            ["capacity", "--scenario", "static", "--hours", "4"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Table 7" in out and "static" in out


class TestLintRefusesAHostileNumber:
    @pytest.mark.parametrize("edit, message", HOSTILE_NUMBERS)
    def test_one_line_and_exit_2(self, edit, message, tmp_path, capsys):
        from repro.config.builtin import paper_landscape_xml

        path = tmp_path / "landscape.xml"
        path.write_text(paper_landscape_xml().replace(*edit, 1))
        assert main(["lint", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"autoglobe lint: {path}: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1


class TestRunRefusesAStateFileOfAnotherFormat:
    def test_resume_is_one_line_and_exit_2(self, tmp_path, capsys):
        """A state directory from before the load archive packed one row
        per minute (format 0), from before every run's snapshot held
        a plane of domains (format 3), from before the result
        collector held the run's history (format 4), or from before the
        run's event log alone held it (format 5): refused, never
        resumed."""
        import sqlite3

        for version in (0, 3, 4, 5):
            directory = tmp_path / f"format-{version}"
            directory.mkdir()
            with sqlite3.connect(directory / "state.db") as parent:
                parent.execute("CREATE TABLE journal (seq INTEGER PRIMARY KEY)")
                parent.execute(f"PRAGMA user_version = {version}")
            assert main(["run", "--hours", "1", "--state-dir", str(directory),
                         "--resume"]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("autoglobe run: state database ")
            assert f"state format {version}," in captured.err
            assert captured.err.count("\n") == 1


class TestRunValidatesTheClock:
    """``--start``/``--hours`` are checked before anything is built."""

    def test_start_beyond_the_horizon_is_rejected(self, capsys):
        assert main(["run", "--start", "12:00", "--hours", "-1"]) == 2
        assert capsys.readouterr().err == (
            "autoglobe run: clock start minute 720 lies beyond the "
            "660-minute horizon\n"
        )

    def test_negative_horizon_is_rejected(self, capsys):
        assert main(["run", "--start", "00:30", "--hours", "-1"]) == 2
        assert capsys.readouterr().err == (
            "autoglobe run: clock horizon cannot be negative\n"
        )

    def test_negative_start_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["run", "--start=-1:00", "--hours", "1"])
        assert caught.value.code == 2
        assert "invalid clock time" in capsys.readouterr().err
