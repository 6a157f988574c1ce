"""Tests for the LLM layer: feedback parsing, repair strategies, and the
simulated model."""

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

from repro.diagnostics import ErrorCategory, compile_source
from repro.llm import (
    ParsedError,
    SimulatedLLM,
    apply_strategy,
    build_repair_messages,
    detect_flavor,
    parse_feedback,
)
from repro.llm.repair.strategies import declared_names

FIG5 = (
    "module top_module(input [99:0] in, output reg [99:0] out);\n"
    "always @(posedge clk) out <= in;\nendmodule"
)


class TestDetectFlavor:
    def test_quartus(self):
        log = compile_source(FIG5, flavor="quartus").log
        assert detect_flavor(log) == "quartus"

    def test_iverilog(self):
        log = compile_source(FIG5, flavor="iverilog").log
        assert detect_flavor(log) == "iverilog"

    def test_simple(self):
        assert detect_flavor("Correct the syntax error in the code.") == "simple"


class TestParseFeedback:
    def test_quartus_categories_and_details(self):
        log = compile_source(FIG5, flavor="quartus").log
        errors = parse_feedback(log)
        assert errors[0].category is ErrorCategory.UNDECLARED_ID
        assert errors[0].details["name"] == "clk"
        assert errors[0].line == 2

    def test_quartus_index_details(self):
        code = "module m(input [7:0] a, output y);\nassign y = a[12];\nendmodule"
        errors = parse_feedback(compile_source(code, flavor="quartus").log)
        assert errors[0].category is ErrorCategory.INDEX_RANGE
        assert errors[0].details["index"] == 12
        assert errors[0].details["range"] == "[7:0]"

    def test_iverilog_specific(self):
        log = compile_source(FIG5, flavor="iverilog").log
        errors = parse_feedback(log)
        assert errors[0].category is ErrorCategory.UNDECLARED_ID
        assert errors[0].details["name"] == "clk"

    def test_iverilog_ambiguous_has_no_category(self):
        code = "module m(input a, output y);\nassign y = a\nendmodule"
        errors = parse_feedback(compile_source(code, flavor="iverilog").log)
        assert errors
        assert errors[0].category is None  # bare "syntax error"

    def test_simple_feedback_yields_nothing(self):
        assert parse_feedback("Correct the syntax error in the code.") == []


def fixed_ok(code: str, category: ErrorCategory, **details) -> bool:
    """Apply the correct strategy and check the result compiles."""
    result = compile_source(code)
    diag = next(d for d in result.errors if d.category is category)
    error = ParsedError(category=category, line=diag.line, details=dict(diag.args))
    fixed = apply_strategy(code, error, random.Random(0))
    return fixed is not None and compile_source(fixed).ok


class TestStrategies:
    def test_fix_undeclared_clk_adds_port(self):
        assert fixed_ok(FIG5, ErrorCategory.UNDECLARED_ID)

    def test_fix_misspelled_signal(self):
        code = (
            "module m(input a, output y);\nwire stage;\n"
            "assign stage = a;\nassign y = stagee;\nendmodule"
        )
        assert fixed_ok(code, ErrorCategory.UNDECLARED_ID)

    def test_fix_index_overflow(self):
        code = "module m(input [7:0] a, output [7:0] y);\nassign y[8] = a[0];\nendmodule"
        assert fixed_ok(code, ErrorCategory.INDEX_RANGE)

    def test_fix_loop_bound(self):
        code = (
            "module m(input [7:0] a, output reg [7:0] y);\ninteger i;\n"
            "always @(*) for (i = 0; i <= 8; i = i + 1) y[i] = a[i];\nendmodule"
        )
        assert fixed_ok(code, ErrorCategory.INDEX_RANGE)

    def test_fix_output_reg(self):
        code = "module m(input a, output y);\nalways @(*) y = a;\nendmodule"
        assert fixed_ok(code, ErrorCategory.INVALID_LVALUE)

    def test_fix_assign_to_input(self):
        code = (
            "module m(input a, input b, output y);\n"
            "assign y = a;\nassign b = a;\nendmodule"
        )
        assert fixed_ok(code, ErrorCategory.INVALID_LVALUE)

    def test_fix_missing_semicolon(self):
        code = "module m(input a, output y);\nassign y = a\nendmodule"
        result = compile_source(code)
        diag = result.errors[0]
        error = ParsedError(category=diag.category, line=diag.line, details=dict(diag.args))
        fixed = apply_strategy(code, error, random.Random(0))
        assert fixed is not None and compile_source(fixed).ok

    def test_fix_unbalanced(self):
        code = (
            "module m(input a, output reg y);\n"
            "always @(*) begin\ny = a;\nendmodule"
        )
        assert fixed_ok(code, ErrorCategory.UNBALANCED_BLOCK)

    def test_fix_bad_literal(self):
        code = "module m(output [3:0] y);\nassign y = 4'b0021;\nendmodule"
        assert fixed_ok(code, ErrorCategory.BAD_LITERAL)

    def test_fix_port_mismatch(self):
        code = (
            "module top(input a, output y);\nsub u1 (.inp(a), .out(y));\nendmodule\n"
            "module sub(input in, output out);\nassign out = in;\nendmodule"
        )
        assert fixed_ok(code, ErrorCategory.PORT_MISMATCH)

    def test_fix_duplicate(self):
        code = (
            "module m(input a, output y);\nwire t;\nwire t;\n"
            "assign t = a;\nassign y = t;\nendmodule"
        )
        assert fixed_ok(code, ErrorCategory.DUPLICATE_DECL)

    def test_fix_c_style(self):
        code = (
            "module m(output reg [3:0] q);\ninteger i;\n"
            "initial for (i = 0; i < 4; i++) q[i] = 0;\nendmodule"
        )
        assert fixed_ok(code, ErrorCategory.C_STYLE_SYNTAX)

    def test_fix_event_expr(self):
        code = "module m(input clk, input d, output reg q);\nalways @(posedge) q <= d;\nendmodule"
        assert fixed_ok(code, ErrorCategory.EVENT_EXPR)

    def test_fix_misspelled_assign(self):
        code = "module m(input a, output y);\nasign y = a;\nendmodule"
        result = compile_source(code)
        error = ParsedError(
            category=ErrorCategory.SYNTAX_NEAR,
            line=result.errors[0].line,
            details=dict(result.errors[0].args),
        )
        fixed = apply_strategy(code, error, random.Random(0))
        assert fixed is not None and compile_source(fixed).ok

    def test_botch_path_differs_from_correct(self):
        error = ParsedError(
            category=ErrorCategory.UNDECLARED_ID, line=2, details={"name": "clk"}
        )
        correct = apply_strategy(FIG5, error, random.Random(0), botch=False)
        botched = apply_strategy(FIG5, error, random.Random(0), botch=True)
        assert correct != botched
        # The botch (reg clk) compiles but is functionally dead.
        assert compile_source(botched).ok

    def test_declared_names_scrapes_ports_and_nets(self):
        names = declared_names(
            "module m(input a, output [3:0] y);\nwire t;\nreg [1:0] s;\nendmodule"
        )
        assert {"a", "y", "t", "s"} <= set(names)


class TestSimulatedLLM:
    def test_deterministic_sessions(self):
        llm = SimulatedLLM(seed=1)
        code = FIG5
        log = compile_source(code, flavor="quartus").log
        a = llm.start(code, "quartus", True).step(code, log, [])
        b = llm.start(code, "quartus", True).step(code, log, [])
        assert a.code == b.code
        assert a.thought == b.thought

    def test_thought_mentions_error(self):
        llm = SimulatedLLM(seed=1)
        log = compile_source(FIG5, flavor="quartus").log
        step = llm.start(FIG5, "quartus", True).step(FIG5, log, [])
        assert "undeclared" in step.thought or "clk" in step.thought

    def test_gpt4_fixes_more_than_gpt35(self):
        from repro.dataset import build_syntax_dataset, verilogeval
        ds = build_syntax_dataset(verilogeval(), samples_per_problem=4, seed=2, target_size=40)
        from repro.core import RTLFixer

        weak = RTLFixer(prompting="oneshot", compiler="quartus", use_rag=False)
        strong = RTLFixer(prompting="oneshot", compiler="quartus", use_rag=False, tier="gpt-4-sim")
        weak_wins = sum(weak.fix(e.code).success for e in ds)
        strong_wins = sum(strong.fix(e.code).success for e in ds)
        assert strong_wins > weak_wins

    def test_model_compiles_hit_the_compile_cache(self, monkeypatch):
        """The model's own (iverilog) compiles go through the compile
        cache, like the agent's: fixing the same entry at a second trial
        seed compiles none of the first fix's sources cold again.  The
        two compile under different file names, so a source is keyed by
        ``(code, name)``."""
        import repro.diagnostics.compiler as compiler
        from repro.core import RTLFixer
        from repro.dataset import build_syntax_dataset, verilogeval
        from repro.runtime import CompileCache
        from repro.scope import scoped

        cold, requested = [], []
        compile_cold = compiler.compile_source

        def spy_cold(code, **kwargs):
            cold.append((code, kwargs["name"]))
            return compile_cold(code, **kwargs)

        class RecordingCache(CompileCache):
            def compile(self, code, **kwargs):
                requested.append((code, kwargs["name"]))
                return super().compile(code, **kwargs)

        entry = build_syntax_dataset(
            verilogeval(), samples_per_problem=4, target_size=20
        ).entries[0]
        monkeypatch.setattr(compiler, "compile_source", spy_cold)
        cache = RecordingCache()
        fixer = RTLFixer()
        with scoped(compile_cache=cache):
            fixer.with_seed(10).fix(entry.code)
            first = set(cold)
            misses = Counter(cold)
            del cold[:], requested[:]
            fixer.with_seed(11).fix(entry.code)
        assert first, "the model compiled nothing"
        assert first & set(requested), "the second fix re-read nothing"
        assert not first & set(cold)
        assert set(misses.values()) == {1}

    def test_capability_coin_stable(self):
        llm = SimulatedLLM(seed=0)
        a = llm.start(FIG5, "quartus", False)
        b = llm.start(FIG5, "quartus", False)
        assert a.capable == b.capable


class TestOpenAIStub:
    def test_prompt_contains_code_and_feedback(self):
        messages = build_repair_messages("module m; endmodule", "some error", [])
        assert any("module m" in m.content for m in messages)
        assert any("some error" in m.content for m in messages)


#: sha256 over the stand-in model's parsing and editing layer alone:
#: ``detect_flavor`` / ``parse_feedback`` of every compiler log the
#: ReAct agent sees on the 48-entry curated syntax set (Quartus and
#: iverilog), ``apply_strategy`` (correct and botched, fixed RNG) on
#: each parsed error, and a few edge cases.  The repair digests pin the
#: same code only through whole transcripts; this pins it layer by
#: layer.  Rewrite it only for an intended parsing or editing change.
STANDIN_DIGEST = Path(__file__).parent / "data" / "standin_digest.sha256"

#: Sources and logs the corpus does not reach.
EDGE_CODE = (
    # ``--`` and ``++`` inside a ``//`` comment, not in code.
    "module m(input clk, output reg [3:0] q);\n"
    "  // counts down: q-- (was q++)\n"
    "  always @(posedge clk) q <= q - 1;\nendmodule\n",
    # A `timescale in a comment, one in the body, one at the top.
    "module m(input a, output b);\n// `timescale 1ns/1ps\n"
    "assign b = a;\nendmodule\n",
    "module m(input a, output b);\n  `timescale 1ns/1ps\n"
    "assign b = a;\nendmodule\n",
    "`timescale 1ns/1ps\nmodule m(input a, output b);\n"
    "assign b = a;\nendmodule\n",
    # A compound assignment and a fenced answer with prose around it.
    "module m(input clk, output reg [7:0] q);\n"
    "always @(posedge clk) q += 8'd2;\nendmodule\n",
    "Here is the fix:\n```verilog\nmodule m(input a, output b);\n"
    "assign b = ~a;\nendmodule\n```\nThis compiles.\n",
)
EDGE_LOGS = (
    "",
    "Error: something went wrong\n",
    "Error (10161): Verilog HDL error at main.v(3): object is missing\n",
    "Error (99999): Verilog HDL error at main.v(7): unknown tag "
    'near text "q". File: main.v Line: 7\n',
    "main.v:4: syntax error\nI give up.\n",
    "main.v:2: error: port ``d'' is not a port of sub.\n",
)


def _parsed(errors) -> list:
    return [
        [e.category.value if e.category else None, e.line,
         sorted(e.details.items())]
        for e in errors
    ]


def standin_records() -> list[str]:
    from repro.agents import ReActAgent
    from repro.core.rulefix import rule_fix
    from repro.dataset import build_syntax_dataset, verilogeval
    from repro.diagnostics import Compiler
    from repro.llm.repair.strategies import STRATEGIES
    from repro.rag import ExactTagRetriever, build_default_database
    from repro.runtime import CompileCache
    from repro.scope import scoped

    class Recording(Compiler):
        def compile(self, code):
            result = super().compile(code)
            seen.setdefault((code, result.log), None)
            return result

    seen: dict = {}
    dataset = build_syntax_dataset(
        verilogeval(), samples_per_problem=4, target_size=48
    )
    database = build_default_database()
    with scoped(compile_cache=CompileCache()):
        for flavor, seed in (("quartus", 0), ("iverilog", 2)):
            agent = ReActAgent(
                model=SimulatedLLM(seed=seed), compiler=Recording(flavor=flavor),
                retriever=ExactTagRetriever(database, flavor),
            )
            for entry in dataset:
                agent.run(entry.code)
    pairs = [*seen, *((code, "") for code in EDGE_CODE),
             *((EDGE_CODE[0], log) for log in EDGE_LOGS)]
    records = []
    for n, (code, log) in enumerate(pairs):
        errors = parse_feedback(log)
        records.append(["parse", n, detect_flavor(log), _parsed(errors)])
        # Every category's strategy at every parsed error (or at line 2
        # when the log names none), so each strategy meets real code.
        sites = errors or [ParsedError(category=None, line=2)]
        for e, error in enumerate(sites):
            for category in [error.category, *STRATEGIES]:
                site = ParsedError(category, error.line, error.details)
                for botch in (False, True):
                    rng = random.Random(f"standin|{n}|{e}|{botch}")
                    revised = apply_strategy(code, site, rng, botch=botch)
                    records.append([
                        "edit", n, e, category.value if category else None,
                        botch, revised,
                    ])
    for n, code in enumerate(EDGE_CODE):
        fixed = rule_fix(code)
        records.append(["rulefix", n, fixed.code, fixed.has_module,
                        fixed.extracted_from_markdown, fixed.moved_timescale])
    return [json.dumps(record) for record in records]


class TestFrozenStandIn:
    def test_frozen_standin_digest(self):
        records = standin_records()
        assert len(records) > 1000
        digest = hashlib.sha256(
            "".join(r + "\0" for r in records).encode()
        ).hexdigest()
        assert digest == STANDIN_DIGEST.read_text().strip()
