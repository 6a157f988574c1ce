"""Tests for the rtlfixer command-line interface."""

import pytest

from repro.cli import main

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
