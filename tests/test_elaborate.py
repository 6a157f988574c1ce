"""Unit tests for semantic elaboration and its checks."""

import hashlib
from pathlib import Path

from repro.diagnostics import ErrorCategory, compile_source


def cats(code: str) -> list[ErrorCategory]:
    return [d.category for d in compile_source(code).errors]


def compile_ok(code: str):
    result = compile_source(code)
    assert result.ok, result.log
    return result


class TestSymbolResolution:
    def test_clean_module_has_no_errors(self):
        compile_ok(
            "module top_module(input [7:0] in, output [7:0] out);\n"
            "assign out = in;\nendmodule"
        )

    def test_undeclared_in_rhs(self):
        assert cats(
            "module m(output y);\nassign y = nothere;\nendmodule"
        ) == [ErrorCategory.UNDECLARED_ID]

    def test_undeclared_lvalue(self):
        assert ErrorCategory.UNDECLARED_ID in cats(
            "module m(input a);\nassign ghost = a;\nendmodule"
        )

    def test_undeclared_clk_in_sensitivity(self):
        # Fig. 5 of the paper: posedge of an undeclared clock.
        result = compile_source(
            "module top_module(input [99:0] in, output reg [99:0] out);\n"
            "always @(posedge clk) out <= in;\nendmodule"
        )
        assert not result.ok
        assert result.errors[0].category is ErrorCategory.UNDECLARED_ID
        assert result.errors[0].args["name"] == "clk"

    def test_parameter_usable_in_range(self):
        compile_ok(
            "module m #(parameter W = 8)(input [W-1:0] d, output [W-1:0] q);\n"
            "assign q = d;\nendmodule"
        )

    def test_localparam_in_expression(self):
        compile_ok(
            "module m(output [7:0] y);\nlocalparam V = 42;\n"
            "assign y = V;\nendmodule"
        )

    def test_function_locals_scoped(self):
        compile_ok(
            "module m(input [7:0] a, output [7:0] y);\n"
            "function [7:0] inc(input [7:0] x);\n"
            "  integer t;\n"
            "  begin t = x; inc = t + 1; end\n"
            "endfunction\n"
            "assign y = inc(a);\nendmodule"
        )

    def test_genvar_loop_expansion(self):
        compile_ok(
            "module m(input [3:0] a, output [3:0] y);\n"
            "genvar g;\n"
            "generate for (g = 0; g < 4; g = g + 1) begin : blk\n"
            "  assign y[g] = ~a[g];\n"
            "end endgenerate\nendmodule"
        )

    def test_generate_index_out_of_range_caught(self):
        assert ErrorCategory.INDEX_RANGE in cats(
            "module m(input [3:0] a, output [3:0] y);\n"
            "genvar g;\n"
            "generate for (g = 0; g < 5; g = g + 1) begin : blk\n"
            "  assign y[g] = ~a[g];\n"
            "end endgenerate\nendmodule"
        )


class TestIndexRange:
    def test_constant_index_out_of_range(self):
        # Fig. 2a of the paper: out[8] on an 8-bit vector.
        result = compile_source(
            "module top_module(input [7:0] in, output [7:0] out);\n"
            "assign {out[0],out[1],out[2],out[3],out[4],out[5],out[6],out[8]} = in;\n"
            "endmodule"
        )
        assert [d.category for d in result.errors] == [ErrorCategory.INDEX_RANGE]
        assert result.errors[0].args["index"] == 8

    def test_part_select_out_of_range(self):
        assert ErrorCategory.INDEX_RANGE in cats(
            "module m(input [7:0] a, output [7:0] y);\nassign y = a[9:2];\nendmodule"
        )

    def test_in_range_constant_ok(self):
        compile_ok(
            "module m(input [7:0] a, output y);\nassign y = a[7];\nendmodule"
        )

    def test_dynamic_index_not_flagged(self):
        compile_ok(
            "module m(input [7:0] a, input [2:0] s, output y);\n"
            "assign y = a[s];\nendmodule"
        )

    def test_unrolled_for_loop_negative_index(self):
        # Fig. 6 of the paper: the loop's first iteration indexes q[-17].
        result = compile_source(
            "module m(input [255:0] q, output reg [255:0] next);\n"
            "integer i, j;\n"
            "always @(*) begin\n"
            "  for (i = 0; i < 16; i = i + 1)\n"
            "    for (j = 0; j < 16; j = j + 1)\n"
            "      next[i*16 + j] = q[(i-1)*16 + (j-1)];\n"
            "end\nendmodule"
        )
        assert any(
            d.category is ErrorCategory.INDEX_RANGE and d.args["index"] == -17
            for d in result.errors
        )

    def test_unrolled_for_loop_in_range_ok(self):
        compile_ok(
            "module m(input [7:0] a, output reg [7:0] y);\n"
            "integer i;\n"
            "always @(*) for (i = 0; i < 8; i = i + 1) y[i] = a[7 - i];\n"
            "endmodule"
        )

    def test_memory_word_index_checked(self):
        assert ErrorCategory.INDEX_RANGE in cats(
            "module m(output reg [7:0] y);\n"
            "reg [7:0] mem [0:15];\n"
            "always @(*) y = mem[16];\nendmodule"
        )


class TestLValues:
    def test_procedural_assign_to_wire(self):
        result = compile_source(
            "module m(input a, output out);\n"
            "always @(*) out = a;\nendmodule"
        )
        assert [d.category for d in result.errors] == [ErrorCategory.INVALID_LVALUE]
        assert result.errors[0].args["name"] == "out"

    def test_procedural_assign_to_reg_ok(self):
        compile_ok(
            "module m(input a, output reg out);\nalways @(*) out = a;\nendmodule"
        )

    def test_assign_to_input(self):
        assert ErrorCategory.INVALID_LVALUE in cats(
            "module m(input a, input b, output y);\n"
            "assign a = b;\nassign y = a;\nendmodule"
        )

    def test_continuous_assign_to_reg(self):
        assert ErrorCategory.INVALID_LVALUE in cats(
            "module m(input a, output reg y);\nassign y = a;\nendmodule"
        )

    def test_nonansi_output_then_reg_is_legal(self):
        compile_ok(
            "module m(a, q);\ninput a;\noutput q;\nreg q;\n"
            "always @(*) q = a;\nendmodule"
        )

    def test_concat_lvalue_checked_per_part(self):
        assert ErrorCategory.INVALID_LVALUE in cats(
            "module m(input [1:0] a, output reg x, output y);\n"
            "always @(*) {x, y} = a;\nendmodule"
        )


class TestDuplicates:
    def test_duplicate_net(self):
        assert ErrorCategory.DUPLICATE_DECL in cats(
            "module m(input a);\nwire t;\nwire t;\nendmodule"
        )

    def test_duplicate_port(self):
        assert ErrorCategory.DUPLICATE_DECL in cats(
            "module m(input a, input a);\nendmodule"
        )

    def test_port_conflicting_redeclaration(self):
        assert ErrorCategory.DUPLICATE_DECL in cats(
            "module m(input a, output reg q);\nreg q;\n"
            "always @(*) q = a;\nendmodule"
        )


class TestInstances:
    def test_unknown_module(self):
        assert ErrorCategory.UNDECLARED_ID in cats(
            "module top(input a, output y);\nmystery u1 (.x(a), .y(y));\nendmodule"
        )

    def test_bad_port_name(self):
        result = compile_source(
            "module top(input a, output y);\nsub u1 (.nope(a), .out(y));\nendmodule\n"
            "module sub(input in, output out);\nassign out = in;\nendmodule"
        )
        assert any(d.category is ErrorCategory.PORT_MISMATCH for d in result.errors)
        bad = [d for d in result.errors if d.category is ErrorCategory.PORT_MISMATCH][0]
        assert bad.args["port"] == "nope"

    def test_too_many_positional(self):
        assert ErrorCategory.PORT_MISMATCH in cats(
            "module top(input a, input b, output y);\nsub u1 (a, b, y);\nendmodule\n"
            "module sub(input i, output o);\nassign o = i;\nendmodule"
        )

    def test_good_instance_ok(self):
        result = compile_ok(
            "module top(input a, output y);\nsub u1 (.in(a), .out(y));\nendmodule\n"
            "module sub(input in, output out);\nassign out = in;\nendmodule"
        )
        inst = result.elaborated.modules["top"].instances[0]
        assert set(inst.port_map) == {"in", "out"}


class TestConstEval:
    def test_arithmetic(self):
        from repro.verilog import SourceFile, const_eval, parse

        design = parse(SourceFile("t.v", "module m; localparam X = (3 + 4) * 2 ** 2; endmodule"))
        item = design.top_module().items[0]
        assert const_eval(item.value) == 28

    def test_clog2(self):
        from repro.verilog import SourceFile, const_eval, parse

        design = parse(SourceFile("t.v", "module m; localparam X = $clog2(256); endmodule"))
        assert const_eval(design.top_module().items[0].value) == 8

    def test_nonconstant_returns_none(self):
        from repro.verilog import SourceFile, const_eval, parse

        design = parse(SourceFile("t.v", "module m; localparam X = y + 1; endmodule"))
        assert const_eval(design.top_module().items[0].value) is None

    def test_huge_power_is_not_constant(self):
        assert _localparam_value("7 ** 30000000") is None

    def test_huge_shifts_are_not_constant(self):
        assert _localparam_value("1 << 4000000000") is None
        assert _localparam_value("1 <<< 4000000000") is None

    def test_products_of_capped_values_stay_capped(self):
        from repro.verilog.elaborate import MAX_CONST_BITS

        big = f"(1 << {MAX_CONST_BITS - 1})"
        assert _localparam_value(f"{big} * {big}") is None

    def test_results_at_the_cap_still_evaluate(self):
        from repro.verilog.elaborate import MAX_CONST_BITS

        cap = MAX_CONST_BITS
        for text, expected in (
            (f"1 << {cap - 1}", 1 << (cap - 1)),
            (f"2 ** {cap - 1}", 2 ** (cap - 1)),
            ("3 ** 40000", 3 ** 40000),  # about 63.4k bits
            ("1 ** 4000000000", 1),
            ("0 << 4000000000", 0),
        ):
            assert _localparam_value(text) == expected, text


def _localparam_value(text: str):
    from repro.verilog import SourceFile, const_eval, parse

    design = parse(SourceFile("t.v", f"module m; localparam P = {text}; endmodule"))
    return const_eval(design.top_module().items[0].value)


def _runaway_mutants() -> tuple[str, str]:
    """Two Table-4 mutants whose loop step never reaches the bound: the
    unrolled-index check used to walk their bodies to the unroll budget."""
    from repro.dataset.corpus import verilogeval

    problems = verilogeval()
    ones = problems.get("ones_positions").reference
    prio = problems.get("priority_encoder8").reference
    return (
        ones.replace("i = i + 1", "i = i - 1"),
        prio.replace("i = i - 1", "i = i + 1"),
    )


class _CountIndexWalks:
    """Counts ``Elaborator._check_indices_in_env`` calls (one per
    statement visited by the unrolled-index check)."""

    def __init__(self, monkeypatch):
        from repro.verilog.elaborate import Elaborator

        self.calls = 0
        original = Elaborator._check_indices_in_env

        def counted(elaborator, *args, **kwargs):
            self.calls += 1
            return original(elaborator, *args, **kwargs)

        monkeypatch.setattr(Elaborator, "_check_indices_in_env", counted)


class TestUnrolledIndexEarlyExit:
    #: Diagnostics of the runaway mutants, captured before the early exit.
    EXPECTED = (
        {
            "iverilog": "main.v:10: error: Index in[-1] is out of range.\n"
            "1 error(s) during elaboration.",
            "quartus": "Error (10232): Verilog HDL error at main.v(10): index -1 "
            "cannot fall outside the declared range [7:0] for vector \"in\". "
            "Check the index expression and the vector declaration. "
            "File: /tmp/work/main.v Line: 10\n"
            "Error: Quartus Prime Analysis & Synthesis was unsuccessful. "
            "1 error, 0 warnings",
        },
        {
            "iverilog": "main.v:9: error: Index in[8] is out of range.\n"
            "1 error(s) during elaboration.",
            "quartus": "Error (10232): Verilog HDL error at main.v(9): index 8 "
            "cannot fall outside the declared range [7:0] for vector \"in\". "
            "Check the index expression and the vector declaration. "
            "File: /tmp/work/main.v Line: 9\n"
            "Error: Quartus Prime Analysis & Synthesis was unsuccessful. "
            "1 error, 0 warnings",
        },
    )

    def test_runaway_mutants_keep_their_diagnostics(self, monkeypatch):
        counter = _CountIndexWalks(monkeypatch)
        for code, expected in zip(_runaway_mutants(), self.EXPECTED):
            for flavor, log in expected.items():
                result = compile_source(code, flavor=flavor)
                assert not result.ok
                assert result.categories == [ErrorCategory.INDEX_RANGE]
                assert result.log == log
        # Four compiles, each walking a three-statement body for two
        # iterations (24 calls), not for the 4096-iteration unroll
        # budget (49152 calls).
        assert counter.calls <= 48

    def test_select_out_of_range_on_a_late_iteration(self, monkeypatch):
        counter = _CountIndexWalks(monkeypatch)
        result = compile_source(
            "module m(input [7:0] q, input [3:0] r, output reg y);\n"
            "integer i;\n"
            "always @(*) begin\n"
            "  y = 0;\n"
            "  for (i = 0; i < 10; i = i + 1) y = y ^ q[i] ^ r[i] ^ q[7:0];\n"
            "end\nendmodule\n"
        )
        # r[4] is reported first; the check must still reach q[8].
        assert [(d.args["name"], d.args["index"]) for d in result.errors] == [
            ("r", 4), ("q", 8),
        ]
        # One walk per iteration i = 0..8; i = 9 is never walked.
        assert counter.calls == 9

    def test_nested_loops_share_the_budget(self):
        # Each outer iteration costs 1 + 100 of the 4096-iteration
        # budget, so the walk stops inside i = 40: r[31] is reported,
        # q[41] is never reached.
        result = compile_source(
            "module m(input [40:0] q, input [30:0] r, output reg y);\n"
            "integer i, j;\n"
            "always @(*) begin\n"
            "  y = 0;\n"
            "  for (i = 0; i < 100; i = i + 1)\n"
            "    for (j = 0; j < 100; j = j + 1) y = y ^ q[i] ^ r[i];\n"
            "end\nendmodule\n"
        )
        assert [(d.args["name"], d.args["index"]) for d in result.errors] == [
            ("r", 31),
        ]

    def test_loop_without_reportable_selects_is_not_unrolled(self, monkeypatch):
        counter = _CountIndexWalks(monkeypatch)
        compile_ok(
            "module m(input [7:0] a, output reg [7:0] y);\n"
            "localparam [7:0] K = 8'h5a;\n"
            "integer i;\n"
            "always @(*) for (i = 0; i < 8; i = i - 1) y = a ^ K[i];\n"
            "endmodule\n"
        )
        assert counter.calls == 0


#: sha256 over ``ok``, the categories and both flavours' rendered logs
#: of every corpus reference and every template edit of it.
DIAGNOSTICS_DIGEST = Path(__file__).parent / "data" / "diagnostics_digest.sha256"


def diagnostics_digest() -> str:
    from repro.dataset.corpus import verilogeval
    from repro.repair.templates import TEMPLATES

    hasher = hashlib.sha256()
    for problem in verilogeval():
        sources = [problem.reference]
        for template in TEMPLATES:
            sources += [edit.code for edit in template(problem.reference)]
        for code in sources:
            for flavor in ("iverilog", "quartus"):
                result = compile_source(code, flavor=flavor)
                names = ",".join(category.name for category in result.categories)
                hasher.update(f"{result.ok}|{names}|{result.log}".encode())
                hasher.update(b"\x00")
    return hasher.hexdigest()


def test_frozen_diagnostics_digest():
    """The corpus's diagnostics are frozen: an elaborator speed-up must
    not move a single rendered byte.  Regenerate the data file only for
    an intended diagnostics change, by writing ``diagnostics_digest()``."""
    assert diagnostics_digest() == DIAGNOSTICS_DIGEST.read_text().strip()
