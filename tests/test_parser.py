"""Unit tests for the Verilog parser."""

import hashlib
from dataclasses import fields, is_dataclass
from pathlib import Path

from repro.diagnostics import ErrorCategory
from repro.verilog import SourceFile, parse
from repro.verilog import ast
from repro.verilog.limits import LimitTracker, ResourceLimits
from repro.verilog.source import Span


def parse_ok(code: str):
    sink = []
    design = parse(SourceFile("t.v", code), sink)
    assert sink == [], f"unexpected diagnostics: {[str(d) for d in sink]}"
    return design


def parse_err(code: str):
    sink = []
    design = parse(SourceFile("t.v", code), sink)
    return design, [d.category for d in sink]


TOP = """
module top_module (
    input [7:0] in,
    output [7:0] out
);
assign out = in;
endmodule
"""


class TestModuleStructure:
    def test_simple_module(self):
        design = parse_ok(TOP)
        mod = design.top_module()
        assert mod.name == "top_module"
        assert [p.name for p in mod.ports] == ["in", "out"]
        assert mod.ports[0].direction == "input"
        assert len(mod.items) == 1

    def test_ansi_ports_with_reg(self):
        design = parse_ok(
            "module m(input clk, output reg [3:0] q);\nendmodule"
        )
        ports = design.top_module().ports
        assert ports[1].net_kind == "reg"
        assert ports[1].range is not None

    def test_non_ansi_ports(self):
        design = parse_ok(
            "module m(a, b);\ninput [1:0] a;\noutput b;\nendmodule"
        )
        mod = design.top_module()
        assert mod.port_order == ["a", "b"]
        assert {p.name for p in mod.ports} == {"a", "b"}

    def test_parameter_port_list(self):
        design = parse_ok(
            "module m #(parameter W = 8)(input [W-1:0] d);\nendmodule"
        )
        params = [i for i in design.top_module().items if isinstance(i, ast.ParamDecl)]
        assert params and params[0].name == "W"

    def test_two_modules(self):
        design = parse_ok(
            "module a; endmodule\nmodule b; endmodule"
        )
        assert set(design.modules) == {"a", "b"}
        assert design.top == "a"

    def test_missing_endmodule_reports_unbalanced(self):
        _, cats = parse_err("module m(input a);\nassign x = a;\n")
        assert ErrorCategory.UNBALANCED_BLOCK in cats


class TestDeclarations:
    def test_wire_and_reg_decls(self):
        design = parse_ok(
            "module m;\nwire [7:0] a, b;\nreg signed [3:0] c;\nendmodule"
        )
        items = design.top_module().items
        decls = [i for i in items if isinstance(i, ast.NetDecl)]
        assert decls[0].name == "a"
        assert decls[0].__dict__["_siblings"][0].name == "b"
        assert decls[1].signed is True

    def test_memory_decl(self):
        design = parse_ok("module m;\nreg [7:0] mem [0:255];\nendmodule")
        decl = design.top_module().items[0]
        assert decl.array_range is not None

    def test_wire_with_init(self):
        design = parse_ok("module m;\nwire x = 1'b1;\nendmodule")
        assert design.top_module().items[0].init is not None

    def test_localparam(self):
        design = parse_ok("module m;\nlocalparam N = 4, M = 2;\nendmodule")
        decl = design.top_module().items[0]
        assert decl.local is True
        assert decl.__dict__["_siblings"][0].name == "M"


class TestStatements:
    def test_always_ff_with_nonblocking(self):
        design = parse_ok(
            "module m(input clk, input d, output reg q);\n"
            "always @(posedge clk) q <= d;\nendmodule"
        )
        always = design.top_module().items[0]
        assert always.sensitivity.items[0].edge == "posedge"
        assert isinstance(always.body, ast.ProcAssign)
        assert always.body.blocking is False

    def test_always_star(self):
        design = parse_ok(
            "module m(input a, output reg y);\nalways @(*) y = a;\nendmodule"
        )
        assert design.top_module().items[0].sensitivity.star is True

    def test_sensitivity_or_list(self):
        design = parse_ok(
            "module m(input a, input b, output reg y);\n"
            "always @(a or b) y = a & b;\nendmodule"
        )
        sens = design.top_module().items[0].sensitivity
        assert len(sens.items) == 2

    def test_if_else_chain(self):
        design = parse_ok(
            "module m(input [1:0] s, output reg y);\n"
            "always @(*) begin\n"
            "  if (s == 2'd0) y = 0;\n"
            "  else if (s == 2'd1) y = 1;\n"
            "  else y = 0;\n"
            "end\nendmodule"
        )
        block = design.top_module().items[0].body
        assert isinstance(block.stmts[0], ast.If)
        assert isinstance(block.stmts[0].other, ast.If)

    def test_case_with_default(self):
        design = parse_ok(
            "module m(input [1:0] s, output reg [1:0] y);\n"
            "always @(*) case (s)\n"
            "  2'd0: y = 2'd3;\n"
            "  2'd1, 2'd2: y = 2'd1;\n"
            "  default: y = 2'd0;\n"
            "endcase\nendmodule"
        )
        case = design.top_module().items[0].body
        assert isinstance(case, ast.Case)
        assert len(case.items) == 3
        assert case.items[1].labels and len(case.items[1].labels) == 2
        assert case.items[2].labels == []

    def test_for_loop(self):
        design = parse_ok(
            "module m(input [7:0] in, output reg [7:0] out);\n"
            "integer i;\n"
            "always @(*) for (i = 0; i < 8; i = i + 1) out[i] = in[7 - i];\n"
            "endmodule"
        )
        always = [i for i in design.top_module().items if isinstance(i, ast.AlwaysBlock)][0]
        assert isinstance(always.body, ast.For)

    def test_sv_for_with_int_decl(self):
        design = parse_ok(
            "module m(input [7:0] in, output reg [7:0] out);\n"
            "always @(*) for (int i = 0; i < 8; i = i + 1) out[i] = in[i];\n"
            "endmodule"
        )
        loop = design.top_module().items[0].body
        assert loop.inline_decl == "i"

    def test_named_block(self):
        design = parse_ok(
            "module m(output reg q);\ninitial begin : blk\nq = 0;\nend\nendmodule"
        )
        assert design.top_module().items[0].body.name == "blk"

    def test_system_task_call(self):
        design = parse_ok(
            'module m;\ninitial $display("hi", 1);\nendmodule'
        )
        task = design.top_module().items[0].body
        assert isinstance(task, ast.TaskCall)
        assert task.name == "$display"


class TestExpressions:
    def expr_of(self, text: str):
        design = parse_ok(
            f"module m(input [7:0] a, input [7:0] b, input c, output [7:0] y);\n"
            f"assign y = {text};\nendmodule"
        )
        items = [i for i in design.top_module().items if isinstance(i, ast.ContinuousAssign)]
        return items[0].rhs

    def test_precedence_mul_over_add(self):
        expr = self.expr_of("a + b * 2")
        assert isinstance(expr, ast.Binary) and expr.op == "+"
        assert isinstance(expr.rhs, ast.Binary) and expr.rhs.op == "*"

    def test_ternary(self):
        expr = self.expr_of("c ? a : b")
        assert isinstance(expr, ast.Ternary)

    def test_nested_ternary_right_assoc(self):
        expr = self.expr_of("c ? a : c ? b : a")
        assert isinstance(expr.other, ast.Ternary)

    def test_concat_and_replicate(self):
        expr = self.expr_of("{a[3:0], {2{b[1:0]}}}")
        assert isinstance(expr, ast.Concat)
        assert isinstance(expr.parts[1], ast.Replicate)

    def test_reduction_unary(self):
        expr = self.expr_of("&a ^ |b")
        assert isinstance(expr, ast.Binary) and expr.op == "^"
        assert isinstance(expr.lhs, ast.Unary) and expr.lhs.op == "&"

    def test_part_selects(self):
        assert isinstance(self.expr_of("a[7:4]"), ast.RangeSelect)
        assert isinstance(self.expr_of("a[c]"), ast.Select)
        idx = self.expr_of("a[0 +: 4]")
        assert isinstance(idx, ast.IndexedSelect) and idx.ascending

    def test_system_call_expr(self):
        expr = self.expr_of("$signed(a) >>> 1")
        assert isinstance(expr, ast.Binary)
        assert isinstance(expr.lhs, ast.SystemCall)

    def test_power_right_assoc(self):
        expr = self.expr_of("2 ** 3 ** 2")
        assert expr.op == "**"
        assert isinstance(expr.rhs, ast.Binary) and expr.rhs.op == "**"


class TestErrorDetection:
    def test_missing_semicolon(self):
        _, cats = parse_err(
            "module m(input a, output b);\nassign b = a\nendmodule"
        )
        assert cats == [ErrorCategory.MISSING_SEMICOLON]

    def test_unbalanced_begin_end(self):
        _, cats = parse_err(
            "module m(input a, output reg b);\n"
            "always @(*) begin\nb = a;\nendmodule"
        )
        assert ErrorCategory.UNBALANCED_BLOCK in cats

    def test_missing_endcase(self):
        _, cats = parse_err(
            "module m(input a, output reg b);\n"
            "always @(*) case (a) 1'b0: b = 0; \nendmodule"
        )
        assert ErrorCategory.UNBALANCED_BLOCK in cats

    def test_c_style_increment(self):
        _, cats = parse_err(
            "module m(output reg [7:0] q);\ninteger i;\n"
            "initial for (i = 0; i < 8; i++) q[i] = 0;\nendmodule"
        )
        assert cats == [ErrorCategory.C_STYLE_SYNTAX]

    def test_c_style_compound_assign(self):
        _, cats = parse_err(
            "module m(output reg [7:0] q);\ninitial q += 1;\nendmodule"
        )
        assert cats == [ErrorCategory.C_STYLE_SYNTAX]

    def test_c_style_recovers_to_equivalent_assign(self):
        design, _ = parse_err(
            "module m(output reg [7:0] q);\ninteger i;\n"
            "initial for (i = 0; i < 8; i++) q[i] = 0;\nendmodule"
        )
        loop = design.top_module().items[-1].body
        assert isinstance(loop.step, ast.ProcAssign)
        assert isinstance(loop.step.rhs, ast.Binary)

    def test_empty_event_control(self):
        _, cats = parse_err(
            "module m(output reg q);\nalways @() q = 0;\nendmodule"
        )
        assert ErrorCategory.EVENT_EXPR in cats

    def test_posedge_without_signal(self):
        _, cats = parse_err(
            "module m(input clk, output reg q);\nalways @(posedge) q = 0;\nendmodule"
        )
        assert ErrorCategory.EVENT_EXPR in cats

    def test_always_without_event_control(self):
        _, cats = parse_err(
            "module m(output reg q);\nalways q = 0;\nendmodule"
        )
        assert ErrorCategory.EVENT_EXPR in cats

    def test_garbage_reports_syntax_near(self):
        _, cats = parse_err("module m(input a); ??? endmodule")
        assert ErrorCategory.SYNTAX_NEAR in cats

    def test_multiple_independent_errors_reported(self):
        _, cats = parse_err(
            "module m(input a, output b, output reg c);\n"
            "assign b = a\n"
            "initial c += 1;\n"
            "endmodule"
        )
        assert ErrorCategory.MISSING_SEMICOLON in cats
        assert ErrorCategory.C_STYLE_SYNTAX in cats


class TestInstantiation:
    def test_named_connections(self):
        design = parse_ok(
            "module top(input a, output y);\n"
            "sub u1 (.in(a), .out(y));\nendmodule\n"
            "module sub(input in, output out);\nassign out = in;\nendmodule"
        )
        inst = design.modules["top"].items[0]
        assert isinstance(inst, ast.Instantiation)
        assert inst.connections[0].name == "in"

    def test_positional_connections(self):
        design = parse_ok(
            "module top(input a, output y);\nsub u1 (a, y);\nendmodule\n"
            "module sub(input i, output o);\nendmodule"
        )
        inst = design.modules["top"].items[0]
        assert inst.connections[0].name is None

    def test_parameter_override(self):
        design = parse_ok(
            "module top(output [7:0] y);\nsub #(.W(8)) u1 (.out(y));\nendmodule\n"
            "module sub #(parameter W = 4)(output [W-1:0] out);\nendmodule"
        )
        inst = design.modules["top"].items[0]
        assert inst.param_overrides[0].name == "W"


class TestFunctions:
    def test_function_decl_and_call(self):
        design = parse_ok(
            "module m(input [7:0] a, output [7:0] y);\n"
            "function [7:0] double(input [7:0] x);\n"
            "  double = x << 1;\n"
            "endfunction\n"
            "assign y = double(a);\nendmodule"
        )
        items = design.top_module().items
        fn = [i for i in items if isinstance(i, ast.FunctionDecl)][0]
        assert fn.name == "double"
        assert len(fn.inputs) == 1

    def test_generate_for(self):
        design = parse_ok(
            "module m(input [3:0] a, output [3:0] y);\n"
            "genvar g;\n"
            "generate for (g = 0; g < 4; g = g + 1) begin : blk\n"
            "  assign y[g] = ~a[g];\n"
            "end endgenerate\nendmodule"
        )
        gen = [i for i in design.top_module().items if isinstance(i, ast.GenerateFor)]
        assert gen and gen[0].genvar == "g"
        assert len(gen[0].items) == 1


#: sha256 over a canonical walk of the AST, the diagnostics and
#: ``tracker.spent`` of every source in ``token_digest_sources()``
#: under five parse-depth budgets.
PARSE_DIGEST = Path(__file__).parent / "data" / "parse_digest.sha256"

#: The default, the fuzz preset, then budgets that trip inside the
#: references, inside most statements and at the first expression.
PARSE_DEPTHS = (160, 64, 21, 8, 3)


def _ast_lines(design: ast.Design):
    """Yield one line per node, field and span of ``design``, depth
    first; iterative, since a long left-associative operator chain nests
    deeper than Python's recursion limit."""
    yield f"top={design.top!r}"
    stack = [(name, module) for name, module in reversed(design.modules.items())]
    while stack:
        label, node = stack.pop()
        if isinstance(node, Span):
            yield f"{label}=@{node.start}:{node.end}"
        elif isinstance(node, list):
            yield f"{label}=[{len(node)}]"
            stack.extend((f"{label}.{i}", item) for i, item in reversed(list(enumerate(node))))
        elif is_dataclass(node):
            yield f"{label}={type(node).__name__}"
            children = [(f.name, getattr(node, f.name)) for f in fields(node)]
            if "_siblings" in node.__dict__:
                children.append(("_siblings", node.__dict__["_siblings"]))
            stack.extend((f"{label}.{name}", value) for name, value in reversed(children))
        else:
            yield f"{label}={node!r}"


def parse_digest() -> str:
    from .test_lexer import token_digest_sources

    hasher = hashlib.sha256()
    for code in token_digest_sources():
        for depth in PARSE_DEPTHS:
            sink = []
            tracker = LimitTracker(ResourceLimits(max_parse_depth=depth))
            design = parse(SourceFile("t.v", code), sink, tracker=tracker)
            for line in _ast_lines(design):
                hasher.update(f"{line}\n".encode())
            for d in sink:
                args = sorted(d.args.items())
                hasher.update(
                    f"{d.category.name}|{d.span.start}|{d.span.end}|{args}\n".encode()
                )
            hasher.update(f"{sorted(tracker.spent.items())}\0".encode())
    return hasher.hexdigest()


def test_frozen_parse_digest():
    """The parser's output is frozen: a parser speed-up must not move a
    node, a span, a diagnostic or the token on which the nesting-depth
    budget fires.  Regenerate the data file only for an intended parser
    change, by writing ``parse_digest()``."""
    assert parse_digest() == PARSE_DIGEST.read_text().strip()
