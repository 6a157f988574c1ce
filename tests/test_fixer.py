"""Tests for the RTLFixer public API and its configuration."""

import pytest

from repro.core import RTLFixer, RTLFixerConfig
from repro.diagnostics import compile_source
from repro.rag import GuidanceDatabase

BROKEN = (
    "module top_module(input [7:0] in, output [7:0] out);\n"
    "assign out[8] = in[0];\nendmodule\n"
)
GOOD = "module m(input a, output y);\nassign y = a;\nendmodule\n"


class TestConfig:
    def test_defaults_match_paper_best(self):
        config = RTLFixerConfig()
        assert config.prompting == "react"
        assert config.compiler == "quartus"
        assert config.use_rag is True
        assert config.max_iterations == 10
        assert config.temperature == 0.4

    def test_invalid_prompting(self):
        with pytest.raises(ValueError):
            RTLFixerConfig(prompting="chain")

    def test_invalid_compiler(self):
        with pytest.raises(ValueError):
            RTLFixerConfig(compiler="vcs")

    def test_simple_plus_rag_rejected(self):
        with pytest.raises(ValueError):
            RTLFixerConfig(compiler="simple", use_rag=True)

    @pytest.mark.parametrize("knob", ["deadline_s", "step_timeout"])
    def test_non_finite_budgets_rejected(self, knob):
        for value in (float("nan"), float("inf"), 0.0):
            with pytest.raises(ValueError, match=knob):
                RTLFixerConfig(**{knob: value})
        assert getattr(RTLFixerConfig(**{knob: 2.5}), knob) == 2.5

    def test_simple_without_rag_ok(self):
        assert RTLFixerConfig(compiler="simple", use_rag=False)

    def test_label(self):
        assert "react" in RTLFixerConfig().label()


class TestRTLFixer:
    def test_default_construction(self):
        fixer = RTLFixer()
        result = fixer.fix(GOOD)
        assert result.success

    def test_overrides(self):
        fixer = RTLFixer(prompting="oneshot", compiler="iverilog", use_rag=False)
        assert fixer.config.prompting == "oneshot"
        assert fixer.retriever is None

    def test_config_and_overrides_mutually_exclusive(self):
        with pytest.raises(ValueError):
            RTLFixer(config=RTLFixerConfig(), prompting="oneshot")

    def test_fixes_index_error(self):
        wins = sum(RTLFixer(seed=s).fix(BROKEN).success for s in range(6))
        assert wins >= 1  # index arithmetic is the hard category
        for s in range(6):
            result = RTLFixer(seed=s).fix(BROKEN)
            if result.success:
                assert compile_source(result.final_code).ok

    def test_empty_database_is_kept(self):
        empty = GuidanceDatabase(entries=[])
        fixer = RTLFixer(database=empty, use_rag=False)
        assert fixer.database is empty
        assert fixer.fix(BROKEN).iterations >= 1

    def test_with_seed_changes_outcome_stream(self):
        base = RTLFixer()
        reseeded = base.with_seed(99)
        assert reseeded.config.seed == 99
        assert reseeded.config.prompting == base.config.prompting
        assert reseeded.database is base.database

    def test_markdown_input_handled(self):
        raw = f"Sure!\n```verilog\n{GOOD}```\n"
        assert RTLFixer().fix(raw).success

    def test_rule_fix_can_be_disabled(self):
        raw = f"Sure!\n```verilog\n{GOOD}```\n"
        fixer = RTLFixer(apply_rule_fix=False, prompting="oneshot")
        # Without extraction the prose makes the input unfixable garbage
        # for a single-shot attempt (the prose is not valid Verilog).
        result = fixer.fix(raw)
        assert result.iterations >= 1

    def test_custom_tier(self):
        fixer = RTLFixer(tier="gpt-4-sim")
        assert fixer.model.tier == "gpt-4-sim"
