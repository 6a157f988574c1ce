"""Tests for the staged compile pipeline and the unified DiagnosticEngine
(one pipeline behind every compile, escalation provenance, wrapper
interaction)."""

import pickle

import pytest

from repro.diagnostics import Compiler, ErrorCategory, compile_source
from repro.diagnostics.engine import DiagnosticEngine
from repro.runtime import FaultInjector, FaultSpec, Guard, RetryPolicy
from repro.scope import scoped
from repro.verilog import ResourceLimits
from repro.verilog.pipeline import CompileSession


def _outcome(result):
    """Everything a compile reports: flags, rendered log, source and
    every diagnostic with its span."""
    return (
        result.flavor, result.ok, result.crashed, result.log,
        result.source.name, result.source.text,
        [
            (
                diag.category, diag.severity,
                None if diag.span is None else (
                    diag.span.start, diag.span.end, diag.span.line,
                    diag.span.text,
                ),
                sorted((key, str(value)) for key, value in diag.args.items()),
            )
            for diag in result.diagnostics
        ],
    )


MODULE_A = (
    "module a(input clk, input [3:0] x, output reg [3:0] y);\n"
    "  always @(posedge clk) y <= x + 1;\n"
    "endmodule\n"
)
MODULE_B = (
    "module b(input [3:0] p, output [3:0] q);\n"
    "  assign q = p ^ 4'b1010;\n"
    "endmodule\n"
)
MODULE_B_EDITED = (
    "module b(input [3:0] p, output [3:0] q);\n"
    "  assign q = p & 4'b0101;\n"
    "endmodule\n"
)
BROKEN = "module bad(input a;\n  assign = ;\nendmodule\n"


def assert_warm_equals_cold(session, code, flavor="iverilog", **kw):
    """A reused session holds no state between compiles: its result
    equals a fresh cold compile_source run of the same input."""
    warm = session.compile(code, flavor=flavor, **kw)
    cold = compile_source(code, name=session.name, flavor=flavor,
                          limits=session.limits, **kw)
    assert _outcome(warm) == _outcome(cold)
    return warm


class TestSessionEquivalence:
    def test_clean_source_all_flavors(self):
        session = CompileSession()
        for flavor in ("simple", "iverilog", "quartus"):
            result = assert_warm_equals_cold(
                session, MODULE_A + MODULE_B, flavor=flavor
            )
            assert result.ok

    def test_broken_source_all_flavors(self):
        session = CompileSession()
        for flavor in ("simple", "iverilog", "quartus"):
            result = assert_warm_equals_cold(session, BROKEN, flavor=flavor)
            assert not result.ok

    def test_edit_sequence_stays_identical(self):
        session = CompileSession()
        for code in (
            MODULE_A + MODULE_B,
            MODULE_A + MODULE_B_EDITED,
            MODULE_A + BROKEN,
            "",
            MODULE_A + MODULE_A,  # duplicate module
        ):
            assert_warm_equals_cold(session, code)

    def test_include_files(self):
        session = CompileSession()
        code = '`include "lib.vh"\n' + MODULE_A
        includes = {"lib.vh": "`define WIDTH 4\n"}
        assert_warm_equals_cold(session, code, include_files=includes)
        # Changing only the include content still matches cold.
        assert_warm_equals_cold(
            session, code, include_files={"lib.vh": "`define WIDTH 8\n"}
        )

    def test_session_without_any_cache(self):
        with scoped(compile_cache=None):
            session = CompileSession()
            assert_warm_equals_cold(session, MODULE_A + MODULE_B)
            assert_warm_equals_cold(session, MODULE_A + MODULE_B_EDITED)


class TestDiagnosticEngine:
    def test_provenance_and_ordering(self):
        engine = DiagnosticEngine()
        from repro.diagnostics import Diagnostic

        first = Diagnostic(ErrorCategory.SYNTAX_NEAR, None, {"near": "x"})
        second = Diagnostic(ErrorCategory.UNDECLARED_ID, None, {"name": "y"})
        engine.sink("lex").append(first)
        engine.emit("elaborate", second)
        assert [stage for stage, _ in engine.records] == ["lex", "elaborate"]
        assert engine.diagnostics() == [first, second]
        assert engine.stages_for(ErrorCategory.SYNTAX_NEAR) == ["lex"]
        assert not engine.empty

    def test_deduplication_keeps_first_occurrence(self):
        engine = DiagnosticEngine()
        from repro.diagnostics import Diagnostic

        diag = Diagnostic(ErrorCategory.SYNTAX_NEAR, None, {"near": "x"})
        engine.emit("lex", diag)
        engine.emit("parse", Diagnostic(ErrorCategory.SYNTAX_NEAR, None,
                                        {"near": "x"}))
        assert engine.diagnostics() == [diag]
        # Provenance still shows both reporters.
        assert engine.stages_for(ErrorCategory.SYNTAX_NEAR) == ["lex", "parse"]

    def test_failed_stage_survives_unwind(self):
        engine = DiagnosticEngine()
        with pytest.raises(RuntimeError):
            with engine.stage("elaborate"):
                raise RuntimeError("boom")
        assert engine.failed_stage == "elaborate"
        engine.internal_error(RuntimeError("boom"), None)
        assert engine.crashed
        assert engine.stages_for(ErrorCategory.INTERNAL) == ["elaborate"]


class TestEscalation:
    def test_limit_escalation_matches_cold(self):
        session = CompileSession(limits=ResourceLimits(max_tokens=8))
        result = assert_warm_equals_cold(session, MODULE_A + MODULE_B)
        assert ErrorCategory.RESOURCE_LIMIT in result.categories
        assert not result.crashed

    def test_elab_limit_escalation_matches_cold(self):
        many_statements = (
            "module m(input clk, input [3:0] x, output reg [3:0] y);\n"
            "  always @(posedge clk) begin\n"
            "    y <= x;\n    y <= x + 1;\n    y <= x + 2;\n"
            "  end\nendmodule\n"
        )
        session = CompileSession(limits=ResourceLimits(max_elab_statements=1))
        result = assert_warm_equals_cold(session, many_statements)
        assert ErrorCategory.RESOURCE_LIMIT in result.categories

    def test_source_bytes_limit_matches_cold(self):
        session = CompileSession(limits=ResourceLimits(max_source_bytes=16))
        result = assert_warm_equals_cold(session, MODULE_A)
        assert ErrorCategory.RESOURCE_LIMIT in result.categories

    def test_crash_escalation_sets_crashed(self, monkeypatch):
        import repro.verilog.pipeline as pipeline_mod

        def explode(*args, **kwargs):
            raise RuntimeError("injected elaborator crash")

        session = CompileSession()
        monkeypatch.setattr(pipeline_mod, "elaborate", explode)
        result = session.compile(MODULE_A + MODULE_B)
        assert result.crashed
        assert not result.ok
        assert ErrorCategory.INTERNAL in result.categories
        assert "injected elaborator crash" in result.log
        monkeypatch.undo()
        # The session recovers cleanly on the next compile.
        assert session.compile(MODULE_A).ok


class TestCompilerFacade:
    def test_facade_routes_through_session(self, monkeypatch):
        compiled = []
        real = CompileSession.compile

        def counting(self, code, *args, **kwargs):
            compiled.append(code)
            return real(self, code, *args, **kwargs)

        monkeypatch.setattr(CompileSession, "compile", counting)
        with scoped(compile_cache=None):
            compiler = Compiler()
            compiler.compile(MODULE_A + MODULE_B)
            compiler.compile(MODULE_A + MODULE_B_EDITED)
        assert compiled == [MODULE_A + MODULE_B, MODULE_A + MODULE_B_EDITED]

    def test_facade_matches_compile_source(self):
        with scoped(compile_cache=None):
            compiler = Compiler(flavor="quartus")
            for code in (MODULE_A, BROKEN, MODULE_A + MODULE_B):
                warm = compiler.compile(code)
                cold = compile_source(code, flavor="quartus")
                assert _outcome(warm) == _outcome(cold)

    def test_facade_pickles_without_session(self):
        compiler = Compiler(flavor="quartus", limits=ResourceLimits(max_tokens=64))
        compiler.compile(MODULE_A)
        clone = pickle.loads(pickle.dumps(compiler))
        assert vars(clone) == vars(compiler)
        assert clone.compile(MODULE_A).ok

    def test_wrapped_by_retrying_compiler(self):
        with scoped(compile_cache=None):
            compiler = Guard(Compiler(), RetryPolicy(max_retries=2))
            assert compiler.compile(MODULE_A + MODULE_B).ok
            assert compiler.compile(MODULE_A + MODULE_B_EDITED).ok

    def test_wrapped_by_chaos_compiler(self):
        injector = FaultInjector(seed=3, compiler=FaultSpec(rate=1.0,
                                                            kind="garbage"))
        with scoped(compile_cache=None):
            compiler = Guard(Compiler(), injector=injector)
            # A poisoned compile goes through the same pipeline and stays
            # a well-formed (failing) result, never an exception.
            result = compiler.compile(MODULE_A)
            assert not result.ok
            assert not result.crashed
