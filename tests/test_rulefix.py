"""Tests for the rule-based pre-fixer (markdown extraction, timescale
hoisting, module validation)."""

from repro.core import extract_code, rule_fix, validate_module_text
from repro.core.rulefix import strip_non_ascii

MOD = "module m(input a, output y);\nassign y = a;\nendmodule"


class TestExtractCode:
    def test_plain_code_unchanged(self):
        code, was_md = extract_code(MOD)
        assert code == MOD
        assert was_md is False

    def test_fenced_block(self):
        code, was_md = extract_code(f"Sure! Here it is:\n\n```verilog\n{MOD}\n```\n")
        assert code.strip() == MOD
        assert was_md is True

    def test_fence_without_language(self):
        code, was_md = extract_code(f"```\n{MOD}\n```")
        assert code.strip() == MOD
        assert was_md

    def test_prose_around_bare_code(self):
        raw = f"The module below reverses bits.\n{MOD}\nHope this helps!"
        code, was_md = extract_code(raw)
        assert code.strip() == MOD
        assert not was_md

    def test_prefers_fence_containing_module(self):
        raw = f"```\nnot verilog at all\n```\n```verilog\n{MOD}\n```"
        code, _ = extract_code(raw)
        assert "top" not in code and "assign y" in code

    def test_no_module_returns_input(self):
        code, _ = extract_code("I cannot help with that.")
        assert "cannot help" in code


class TestRuleFix:
    def test_has_module_flag(self):
        assert rule_fix(MOD).has_module
        assert not rule_fix("no verilog here").has_module

    def test_timescale_before_module_kept(self):
        result = rule_fix(f"`timescale 1ns/1ps\n{MOD}")
        assert result.moved_timescale is False
        assert result.code.startswith("`timescale")

    def test_timescale_inside_module_hoisted(self):
        broken = MOD.replace(
            "assign y = a;", "`timescale 1ns/1ps\nassign y = a;"
        )
        result = rule_fix(broken)
        assert result.moved_timescale is True
        assert result.code.lstrip().startswith("`timescale")
        # And the result actually compiles.
        from repro.diagnostics import compile_source

        assert compile_source(result.code).ok

    def test_strips_non_ascii(self):
        result = rule_fix(MOD.replace("assign", "assign⁠"))
        assert "⁠" not in result.code

    def test_trailing_newline_ensured(self):
        assert rule_fix(MOD).code.endswith("\n")

    def test_markdown_flag_surfaces(self):
        assert rule_fix(f"```verilog\n{MOD}\n```").extracted_from_markdown


class TestValidateModuleText:
    def test_valid(self):
        assert validate_module_text(MOD)

    def test_empty_body_rejected(self):
        assert not validate_module_text("module m(input a);\nendmodule")
        assert not validate_module_text("module m(input a);\n\n  \nendmodule")

    def test_missing_endmodule_rejected(self):
        assert not validate_module_text("module m(input a);\nassign x = a;")

    def test_prose_rejected(self):
        assert not validate_module_text("this module is great")


class TestStripNonAscii:
    def test_keeps_exactly_the_ascii_characters(self):
        # Latin-1, BMP, astral and lone-surrogate characters all go;
        # every ASCII character, NUL and DEL included, stays in order.
        raw = (
            "mod\u00e9ule m\u4e2d(\x00a\x7f);\ud800 // \U0001f600 ok"
            "\udfff\u00a0\n"
        )
        assert strip_non_ascii(raw) == "module m(\x00a\x7f); //  ok\n"
        assert strip_non_ascii("") == ""
