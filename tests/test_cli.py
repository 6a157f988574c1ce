"""Tests for the rtlfixer command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main

GOOD = "module m(input a, output y);\nassign y = a;\nendmodule\n"
BROKEN = (
    "module top_module(input [7:0] in, output reg [7:0] out);\n"
    "always @(posedge clk) out <= in;\nendmodule\n"
)


@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "good.v"
    path.write_text(GOOD)
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.v"
    path.write_text(BROKEN)
    return str(path)


class TestCompileCommand:
    def test_ok_file(self, good_file, capsys):
        assert main(["compile", good_file]) == 0
        assert "compile OK" in capsys.readouterr().out

    def test_broken_file(self, broken_file, capsys):
        assert main(["compile", broken_file]) == 1
        assert "clk" in capsys.readouterr().out

    def test_quartus_flavor(self, broken_file, capsys):
        assert main(["compile", broken_file, "--compiler", "quartus"]) == 1
        assert "Error (10161)" in capsys.readouterr().out


class TestFixCommand:
    def test_fixes_broken_file(self, broken_file, capsys):
        code = main(["fix", broken_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "fixed in" in out
        assert "endmodule" in out

    def test_transcript_flag(self, broken_file, capsys):
        main(["fix", broken_file, "--transcript"])
        out = capsys.readouterr().out
        assert "Thought 1:" in out

    def test_oneshot_mode(self, good_file):
        assert main(["fix", good_file, "--prompting", "oneshot", "--no-rag"]) == 0

    @pytest.mark.parametrize(
        "option",
        [
            ["--step-timeout", "0"],
            ["--step-timeout", "nan"],
            ["--max-retries", "-1"],
            ["--llm-escalate-after", "-1"],
            ["--llm-pool", "x=gpt-3.5-sim,x=gpt-4-sim"],
        ],
    )
    def test_bad_option_value_is_a_usage_error(self, broken_file, capsys, option):
        assert main(["fix", broken_file, *option]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


class TestReportCommand:
    def test_bad_llm_pool_rejected_before_any_work(self, capsys):
        assert main(["report", "--llm-pool", "x=gpt-3.5-sim,x=gpt-4-sim"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: duplicate backend names in pool: ['x', 'x']\n"
        )


class TestServeCommand:
    def test_bad_llm_pool_rejected_at_startup(self, capsys, monkeypatch):
        from repro.service.server import RepairServer

        monkeypatch.setattr(
            RepairServer, "run", lambda self: pytest.fail("server started")
        )
        assert main(
            ["serve", "--port", "0", "--llm-pool", "x=gpt-3.5-sim,x=gpt-4-sim"]
        ) == 2
        captured = capsys.readouterr()
        assert "SERVING" not in captured.out
        assert captured.err == (
            "error: duplicate backend names in pool: ['x', 'x']\n"
        )

    def test_bad_max_retries_rejected_at_startup(self, capsys, monkeypatch):
        from repro.service.server import RepairServer

        monkeypatch.setattr(
            RepairServer, "run", lambda self: pytest.fail("server started")
        )
        assert main(["serve", "--port", "0", "--max-retries", "-1"]) == 2
        captured = capsys.readouterr()
        assert "SERVING" not in captured.out
        assert captured.err == (
            "error: max_retries must be >= 0 (0 disables retries)\n"
        )


class TestDatasetCommand:
    def test_builds_and_saves(self, tmp_path, capsys):
        out_path = str(tmp_path / "ds.json")
        assert main(["dataset", out_path, "--samples", "4", "--size", "20"]) == 0
        out = capsys.readouterr().out
        assert "wrote 20 entries" in out
        from repro.dataset import SyntaxDataset

        assert len(SyntaxDataset.load(out_path)) == 20


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_flavor_rejected(self, good_file):
        with pytest.raises(SystemExit):
            main(["compile", good_file, "--compiler", "vcs"])


#: Option values with a documented meaning: (command, option, value) ->
#: the meaning.  Every other 0, -1, nan and inf must be a usage error.
DOCUMENTED = {
    **{(command, "--seed", value): "any integer names a seed"
       for command in ("fix", "dataset", "fuzz") for value in ("0", "-1")},
    **{(command, "--max-retries", "0"): "0 disables the retry layer"
       for command in ("fix", "serve")},
    **{(command, "--llm-escalate-after", "0"): "0 never escalates"
       for command in ("fix", "report")},
    **{(command, "--breaker-threshold", "0"): "0 disables the breaker"
       for command in ("report", "serve")},
    ("report", "--jobs", "0"): "0 uses every CPU",
    ("serve", "--port", "0"): "0 picks a free port",
    ("serve", "--tenant-rate", "0"): "0 is an unlimited quota",
    ("serve", "--work-delay", "0"): "0 disables the artificial work",
    ("fuzz", "--chaos-rate", "0"): "0 disables fault injection",
}


def _numeric_options() -> list:
    """Every (command, option) whose value argparse reads as a number."""
    parser = build_parser()
    [commands] = [action for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    found = []
    for command, subparser in commands.choices.items():
        for action in subparser._actions:
            if action.option_strings and (
                action.type in (int, float)
                or type(action.default) in (int, float)
            ):
                found.append((command, action.option_strings[-1]))
    return found


BAD_VALUE_CASES = [
    (command, [option, value])
    for command, option in _numeric_options()
    for value in ("0", "-1", "nan", "inf")
] + [
    ("fix", ["--tier", "bogus"]),
    ("fuzz", ["--chaos-rate", "2"]),
    ("serve", ["--port", "70000"]),
    ("serve", ["--weight", "a=nan"]),
    ("serve", ["--weight", "a=inf"]),
    ("serve", ["--weight", "a=0"]),
    ("serve", ["--weight", "a"]),
    ("serve", ["--chaos-outage", "-1:2"]),
]


class _WorkStarted(Exception):
    """Raised by the stubbed work: every option object was built."""


class TestOptionValues:
    @pytest.fixture
    def stub_work(self, monkeypatch):
        """Stop each command where its work starts, after its option
        objects are built, so every case runs in milliseconds."""
        from repro.core import RTLFixer
        from repro.service.server import RepairServer

        def started(*args, **kwargs):
            raise _WorkStarted

        monkeypatch.setattr(RTLFixer, "fix", started)
        monkeypatch.setattr(RepairServer, "run", started)
        monkeypatch.setattr("repro.dataset.build_syntax_dataset", started)
        monkeypatch.setattr("repro.eval.report.run_full_report", started)
        monkeypatch.setattr("repro.runtime.fuzz.run_fuzz", started)

    def test_walk_finds_every_command(self):
        commands = {command for command, _ in _numeric_options()}
        assert commands == {"fix", "dataset", "report", "serve", "fuzz"}

    @pytest.mark.parametrize(
        "command, option", BAD_VALUE_CASES,
        ids=[" ".join([c, *o]) for c, o in BAD_VALUE_CASES],
    )
    def test_value_is_documented_or_a_usage_error(
        self, command, option, stub_work, broken_file, tmp_path, capsys
    ):
        positional = {"fix": [broken_file],
                      "dataset": [str(tmp_path / "ds.json")]}
        argv = [command, *positional.get(command, []), *option]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the text
            code = exc.code
        except _WorkStarted:
            code = 0
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        if command == "serve":
            assert "SERVING" not in out
        if (command, *option) in DOCUMENTED:
            assert code == 0, err
            return
        assert code == 2, f"{' '.join(argv)} exited {code}, not 2"
        assert "error:" in err.strip().splitlines()[-1]
