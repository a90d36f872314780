"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_analyse_takes_spec(self):
        args = build_parser().parse_args(["analyse", "1-3-5", "--p", "0.8"])
        assert args.spec == "1-3-5"
        assert args.p == 0.8

    def test_tune_defaults(self):
        args = build_parser().parse_args(["tune"])
        assert args.n == 48 and args.read_fraction == 0.5

    @pytest.mark.parametrize("argv, expected", [
        (["simulate"], dict(operations=2000, reshape_at=0.0,
                            reshape_online=True)),
        (["shard"], dict(operations=2000, zipf_s=0.0, drop=0.0)),
        (["chaos"], dict(operations=1000, max_attempts=4, chaos="all",
                         chaos_horizon=1000.0, check_invariants=True)),
        (["reconfigure"], dict(operations=1000, max_attempts=4, chaos=None,
                               reshape_at=200.0, reshape_spec=None,
                               reshape_online=True, check_invariants=True)),
        (["reconfigure", "--stop-the-world"], dict(reshape_online=False)),
        (["simulate", "--reshape-stop-the-world"],
         dict(reshape_online=False)),
        (["trace"], dict(operations=500, max_attempts=3, trace=True)),
        (["report"], dict(operations=500, max_attempts=3, trace=True)),
    ])
    def test_simulation_defaults_per_subcommand(self, argv, expected):
        args = vars(build_parser().parse_args(argv))
        assert {name: args[name] for name in expected} == expected


class TestCommands:
    def test_example_prints_table1(self, capsys):
        assert main(["example"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert "0.9706" in output      # RD_availability(0.7)
        assert "0.7733" in output     # E[L_WR] (paper rounds to 0.775)

    def test_fig2(self, capsys):
        assert main(["fig2", "--p", "0.7"]) == 0
        output = capsys.readouterr().out
        assert "read_cost" in output and "MOSTLY-READ" in output

    def test_fig3_and_fig4(self, capsys):
        assert main(["fig3"]) == 0
        assert "read_load" in capsys.readouterr().out
        assert main(["fig4"]) == 0
        assert "write_load" in capsys.readouterr().out

    def test_survey(self, capsys):
        assert main(["survey", "--n", "121"]) == 0
        output = capsys.readouterr().out
        assert "HQC" in output and "ROWA" in output

    def test_analyse(self, capsys):
        assert main(["analyse", "1-3-5", "--p", "0.7"]) == 0
        output = capsys.readouterr().out
        assert "0.4534" in output      # write availability

    def test_tune(self, capsys):
        assert main(["tune", "--n", "24", "--read-fraction", "1.0"]) == 0
        output = capsys.readouterr().out
        assert "1-24" in output        # pure reads -> one wide level

    def test_simulate(self, capsys):
        assert main([
            "simulate", "1-3-5", "--operations", "200", "--seed", "1",
        ]) == 0
        output = capsys.readouterr().out
        assert "simulated" in output
        assert "messages" in output

    def test_simulate_with_failures(self, capsys):
        assert main([
            "simulate", "1-3-5", "--operations", "300", "--p", "0.8",
        ]) == 0
        assert "availability" in capsys.readouterr().out


class TestInvalidSimulationInputs:
    """Options that parse but describe no valid run are usage errors."""

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--p", "1.5"], "p must be in [0, 1]"),
        (["chaos", "--p", "-0.5"], "p must be in [0, 1]"),
        (["simulate", "--read-fraction", "1.5"],
         "read_fraction must be in [0, 1]"),
        (["simulate", "--backoff", "base=abc"], "'abc' is not a number"),
        (["simulate", "--backoff", "speed=2"], "invalid --backoff component"),
        (["shard", "--p", "1.5"], "p must be in [0, 1]"),
        (["shard", "--drop", "1.5"], "drop probability must be in [0, 1]"),
        (["shard", "--service-time", "-1"], "service time cannot be negative"),
        (["shard", "--batch-window", "-1"], "batch window cannot be negative"),
        (["simulate", "--batch-window", "-1"],
         "batch window cannot be negative"),
        (["shard", "--regions", "-2"], "regions cannot be negative"),
    ])
    def test_exits_2_with_one_line(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro {argv[0]}: error: ")
        assert message in lines[0]

    @pytest.mark.parametrize("argv, option", [
        (["shard", "--jobs", "0", "--repeats", "2"], "--jobs"),
        (["simulate", "--repeats", "0"], "--repeats"),
    ])
    def test_counts_below_one_are_argument_errors(self, argv, option, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"repro {argv[0]}: error: argument {option}: must be at least 1, "
            "got 0"
        )

    def test_build_sim_config_rejects_p_outside_unit_interval(self):
        from repro.runner import SimParams, build_sim_config

        for p in (1.5, -0.5):
            with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
                build_sim_config(SimParams(p=p))
