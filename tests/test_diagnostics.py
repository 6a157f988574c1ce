"""Tests for diagnostic rendering in both compiler flavours."""

import pytest

from repro.diagnostics import (
    IVERILOG_CATEGORIES,
    QUARTUS_CATEGORIES,
    QUARTUS_TAG_TO_CATEGORY,
    SIMPLE_FEEDBACK,
    Compiler,
    ErrorCategory,
    compile_source,
    quartus_tag,
)

FIG5_CODE = (
    "module top_module(input [99:0] in, output reg [99:0] out);\n"
    "always @(posedge clk) begin\n"
    "  out <= in;\n"
    "end\nendmodule"
)


class TestCatalog:
    def test_seven_iverilog_categories(self):
        # Paper §3.3: 7 common error categories for iverilog.
        assert len(IVERILOG_CATEGORIES) == 7

    def test_eleven_quartus_categories(self):
        # Paper §3.3: 11 common error categories for Quartus.
        assert len(QUARTUS_CATEGORIES) == 11

    def test_tags_unique(self):
        tags = [quartus_tag(c) for c in QUARTUS_CATEGORIES]
        assert len(set(tags)) == len(tags)

    def test_tag_roundtrip(self):
        for category in QUARTUS_CATEGORIES:
            assert QUARTUS_TAG_TO_CATEGORY[quartus_tag(category)] is category

    def test_known_real_quartus_tags(self):
        assert quartus_tag(ErrorCategory.UNDECLARED_ID) == 10161
        assert quartus_tag(ErrorCategory.INDEX_RANGE) == 10232
        assert quartus_tag(ErrorCategory.SYNTAX_NEAR) == 10170


class TestIverilogStyle:
    def test_undeclared_clk_matches_fig5(self):
        log = compile_source(FIG5_CODE, flavor="iverilog").log
        assert "Unable to bind wire/reg/memory `clk'" in log
        assert "Failed to evaluate event expression." in log

    def test_index_out_of_range_message(self):
        log = compile_source(
            "module m(input [7:0] a, output [7:0] out);\n"
            "assign out[8] = a[0];\nendmodule",
            flavor="iverilog",
        ).log
        assert "Index out[8] is out of range." in log

    def test_lvalue_message(self):
        log = compile_source(
            "module m(input a, output out);\nalways @(*) out = a;\nendmodule",
            flavor="iverilog",
        ).log
        assert "out is not a valid l-value" in log

    def test_terse_categories_collapse_to_syntax_error(self):
        log = compile_source(
            "module m(output reg [3:0] q);\ninteger i;\n"
            "initial for (i = 0; i < 4; i++) q[i] = 0;\nendmodule",
            flavor="iverilog",
        ).log
        assert "syntax error" in log
        assert "++" not in log  # no hint about what went wrong

    def test_i_give_up_on_unbalanced(self):
        log = compile_source(
            "module m(input a, output reg b);\nalways @(*) begin\nb = a;\nendmodule",
            flavor="iverilog",
        ).log
        assert "I give up." in log

    def test_elaboration_error_count_line(self):
        log = compile_source(FIG5_CODE, flavor="iverilog").log
        assert "error(s) during elaboration." in log

    def test_location_prefix(self):
        log = compile_source(FIG5_CODE, flavor="iverilog").log
        assert log.startswith("main.v:2:")


class TestQuartusStyle:
    def test_undeclared_clk_matches_fig5(self):
        log = compile_source(FIG5_CODE, flavor="quartus").log
        assert 'Error (10161): Verilog HDL error at main.v(2): object "clk" is not declared.' in log
        assert "declare the object" in log
        assert "Quartus Prime Analysis & Synthesis was unsuccessful" in log

    def test_index_range_message_matches_fig6(self):
        log = compile_source(
            "module m(input [255:0] q, output y);\nassign y = q[300];\nendmodule",
            flavor="quartus",
        ).log
        assert "Error (10232)" in log
        assert "index 300 cannot fall outside the declared range [255:0]" in log

    def test_c_style_gets_specific_hint(self):
        log = compile_source(
            "module m(output reg [3:0] q);\ninteger i;\n"
            "initial for (i = 0; i < 4; i++) q[i] = 0;\nendmodule",
            flavor="quartus",
        ).log
        assert "Error (10173)" in log
        assert "i = i + 1" in log

    def test_missing_semicolon_distinct(self):
        log = compile_source(
            "module m(input a, output y);\nassign y = a\nendmodule",
            flavor="quartus",
        ).log
        assert "Error (10201)" in log
        assert 'missing ";"' in log

    def test_error_and_warning_counts_in_footer(self):
        log = compile_source(FIG5_CODE, flavor="quartus").log
        assert "1 error, 0 warnings" in log


class TestCompilerFacade:
    def test_ok_result_has_empty_log(self):
        result = compile_source("module m(input a, output y);\nassign y = a;\nendmodule")
        assert result.ok
        assert result.log == ""

    def test_simple_flavor_returns_fixed_instruction(self):
        result = compile_source(FIG5_CODE, flavor="simple")
        assert not result.ok
        assert result.log == SIMPLE_FEEDBACK

    def test_categories_property_ordered_and_deduped(self):
        result = compile_source(
            "module m(input a, output y);\n"
            "assign y = ghost1;\nassign y = ghost2;\nassign q = a\nendmodule"
        )
        cats = result.categories
        assert cats[0] is ErrorCategory.UNDECLARED_ID
        assert len([c for c in cats if c is ErrorCategory.UNDECLARED_ID]) == 1

    def test_compiler_class_flavor_validation(self):
        with pytest.raises(ValueError):
            Compiler(flavor="vcs")  # type: ignore[arg-type]

    def test_compiler_class_reusable(self):
        compiler = Compiler(flavor="quartus")
        assert compiler.compile("module m; endmodule").ok
        assert not compiler.compile("module m; assign x = 1; endmodule").ok

    def test_empty_input_not_ok(self):
        assert not compile_source("").ok
