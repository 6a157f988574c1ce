"""Tests for the staged compile pipeline, incremental sessions and the
unified DiagnosticEngine (bit-identical warm/cold equivalence, per-stage
artifact reuse, escalation provenance, wrapper interaction)."""

import pickle

import pytest

from repro.diagnostics import Compiler, ErrorCategory, compile_source
from repro.diagnostics.engine import DiagnosticEngine
from repro.runtime import FaultInjector, FaultSpec, Guard, RetryPolicy
from repro.scope import current, scoped
from repro.verilog import ResourceLimits
from repro.verilog.pipeline import (
    DEFAULT_STAGE_CACHE,
    Artifact,
    CompileSession,
    StageCache,
    result_fingerprint,
)


def _active_stage_cache():
    """The stage cache sessions currently consult (or None)."""
    return current().get("stage_cache", DEFAULT_STAGE_CACHE)


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
    """The tentpole contract: a warm session compile fingerprints
    identically to a cold compile_source run of the same input."""
    warm = session.compile(code, flavor=flavor, **kw)
    cold = compile_source(code, name=session.name, flavor=flavor,
                          limits=session.limits, **kw)
    assert result_fingerprint(warm) == result_fingerprint(cold)
    return warm


class TestSessionEquivalence:
    def test_clean_source_all_flavors(self):
        with scoped(stage_cache=StageCache()):
            session = CompileSession()
            for flavor in ("simple", "iverilog", "quartus"):
                result = assert_warm_equals_cold(
                    session, MODULE_A + MODULE_B, flavor=flavor
                )
                assert result.ok

    def test_broken_source_all_flavors(self):
        with scoped(stage_cache=StageCache()):
            session = CompileSession()
            for flavor in ("simple", "iverilog", "quartus"):
                result = assert_warm_equals_cold(session, BROKEN, flavor=flavor)
                assert not result.ok

    def test_edit_sequence_stays_identical(self):
        with scoped(stage_cache=StageCache()):
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
        with scoped(stage_cache=StageCache()):
            session = CompileSession()
            code = '`include "lib.vh"\n' + MODULE_A
            includes = {"lib.vh": "`define WIDTH 4\n"}
            assert_warm_equals_cold(session, code, include_files=includes)
            # Changing only the include content must miss the cache and
            # still match cold.
            assert_warm_equals_cold(
                session, code, include_files={"lib.vh": "`define WIDTH 8\n"}
            )

    def test_session_without_any_cache(self):
        with scoped(stage_cache=None):
            session = CompileSession()
            assert_warm_equals_cold(session, MODULE_A + MODULE_B)
            assert_warm_equals_cold(session, MODULE_A + MODULE_B_EDITED)


class TestIncrementalReuse:
    def test_editing_module_b_reuses_module_a_segment(self):
        cache = StageCache()
        with scoped(stage_cache=cache):
            session = CompileSession()
            session.compile(MODULE_A + MODULE_B)
            before = cache.stats.segments_reused
            assert_warm_equals_cold(session, MODULE_A + MODULE_B_EDITED)
            # Module A's parse segment came back from the cache even
            # though the overall text (and so every whole-stage key)
            # changed.
            assert cache.stats.segments_reused > before

    def test_late_edit_resumes_the_lexer(self):
        cache = StageCache()
        with scoped(stage_cache=cache):
            session = CompileSession()
            session.compile(MODULE_A + MODULE_B)
            assert cache.stats.incremental_lexes == 0
            assert_warm_equals_cold(session, MODULE_A + MODULE_B_EDITED)
            assert cache.stats.incremental_lexes == 1
            # At least module A's tokens were kept verbatim.
            assert cache.stats.tokens_reused > 10

    def test_flavor_switch_hits_every_analysis_stage(self):
        cache = StageCache()
        with scoped(stage_cache=cache):
            session = CompileSession()
            session.compile(MODULE_A + BROKEN, flavor="iverilog")
            hits_before = dict(cache.stats.hits)
            result = assert_warm_equals_cold(
                session, MODULE_A + BROKEN, flavor="quartus"
            )
            assert not result.ok
            for stage in ("preprocess", "lex", "parse"):
                assert cache.stats.hits.get(stage, 0) > hits_before.get(stage, 0)
                # No stage re-computed: pure re-render of cached artifacts.
                assert cache.stats.misses.get(stage, 0) == 1

    def test_identical_recompile_is_all_hits(self):
        cache = StageCache()
        with scoped(stage_cache=cache):
            session = CompileSession()
            session.compile(MODULE_A + MODULE_B)
            misses = dict(cache.stats.misses)
            session.compile(MODULE_A + MODULE_B)
            assert dict(cache.stats.misses) == misses

    def test_reset_disables_incremental_lex(self):
        cache = StageCache()
        with scoped(stage_cache=cache):
            session = CompileSession()
            session.compile(MODULE_A + MODULE_B)
            session.reset()
            cache.clear()  # force a lex miss too
            assert_warm_equals_cold(session, MODULE_A + MODULE_B_EDITED)
            assert cache.stats.incremental_lexes == 0

    def test_sessions_share_segments_through_the_cache(self):
        cache = StageCache()
        with scoped(stage_cache=cache):
            CompileSession().compile(MODULE_A + MODULE_B)
            before = cache.stats.segments_reused
            fresh = CompileSession()
            assert_warm_equals_cold(fresh, MODULE_A + MODULE_B_EDITED)
            assert cache.stats.segments_reused > before


class TestStageCache:
    def test_lru_eviction(self):
        cache = StageCache(maxsize=2)
        for i in range(3):
            cache.put(Artifact("lex", f"k{i}", (i,)))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get("lex", "k0") is None  # oldest evicted
        assert cache.get("lex", "k2").payload == (2,)

    def test_get_counts_hits_and_misses(self):
        cache = StageCache()
        cache.put(Artifact("parse", "k", (None,)))
        cache.get("parse", "k")
        cache.get("parse", "absent")
        assert cache.stats.hits == {"parse": 1}
        assert cache.stats.misses == {"parse": 1}
        assert cache.stats.hit_rate == 0.5

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            StageCache(maxsize=0)

    def test_scoping_restores_previous_cache(self):
        outer = _active_stage_cache()
        mine = StageCache()
        with scoped(stage_cache=mine):
            assert _active_stage_cache() is mine
            with scoped(stage_cache=None):
                assert _active_stage_cache() is None
            assert _active_stage_cache() is mine
        assert _active_stage_cache() is outer

    def test_set_active_returns_previous(self):
        previous = _active_stage_cache()
        with scoped(stage_cache=None):
            assert _active_stage_cache() is None
        assert _active_stage_cache() is previous

    def test_clear_resets_stats(self):
        cache = StageCache()
        cache.put(Artifact("lex", "k", (1,)))
        cache.get("lex", "k")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0

    def test_as_dict_shape(self):
        cache = StageCache()
        with scoped(stage_cache=cache):
            CompileSession().compile(MODULE_A)
        snapshot = cache.stats.as_dict()
        for key in (
            "compiles", "stage_hits", "stage_misses", "stage_seconds",
            "evictions", "hit_rate", "incremental_lexes", "tokens_reused",
            "segments_reused", "segments_parsed",
        ):
            assert key in snapshot
        assert snapshot["compiles"] == 1


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

    def test_stage_timings_accumulate(self):
        engine = DiagnosticEngine()
        with engine.stage("parse"):
            pass
        with engine.stage("parse"):
            pass
        assert engine.timings["parse"] >= 0.0
        assert engine.current_stage == "driver"

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
        limits = ResourceLimits(max_tokens=8)
        with scoped(stage_cache=StageCache()):
            session = CompileSession(limits=limits)
            result = assert_warm_equals_cold(session, MODULE_A + MODULE_B)
            assert ErrorCategory.RESOURCE_LIMIT in result.categories
            assert not result.crashed

    def test_elab_limit_escalation_matches_cold(self):
        limits = ResourceLimits(max_elab_statements=1)
        many_statements = (
            "module m(input clk, input [3:0] x, output reg [3:0] y);\n"
            "  always @(posedge clk) begin\n"
            "    y <= x;\n    y <= x + 1;\n    y <= x + 2;\n"
            "  end\nendmodule\n"
        )
        with scoped(stage_cache=StageCache()):
            session = CompileSession(limits=limits)
            result = assert_warm_equals_cold(session, many_statements)
            assert ErrorCategory.RESOURCE_LIMIT in result.categories

    def test_source_bytes_limit_matches_cold(self):
        limits = ResourceLimits(max_source_bytes=16)
        with scoped(stage_cache=StageCache()):
            session = CompileSession(limits=limits)
            result = assert_warm_equals_cold(session, MODULE_A)
            assert ErrorCategory.RESOURCE_LIMIT in result.categories

    def test_crash_escalation_sets_crashed_and_drops_memo(self, monkeypatch):
        with scoped(stage_cache=StageCache()):
            session = CompileSession()
            session.compile(MODULE_A)
            assert session._memo is not None

            import repro.verilog.pipeline as pipeline_mod

            def explode(*args, **kwargs):
                raise RuntimeError("injected elaborator crash")

            monkeypatch.setattr(pipeline_mod, "elaborate", explode)
            result = session.compile(MODULE_A + MODULE_B)
            assert result.crashed
            assert not result.ok
            assert ErrorCategory.INTERNAL in result.categories
            assert "injected elaborator crash" in result.log
            # A failed pipeline leaves nothing trustworthy to resume from.
            assert session._memo is None
            monkeypatch.undo()
            # The session recovers cleanly on the next compile.
            assert session.compile(MODULE_A).ok


class TestCompilerFacade:
    def test_facade_routes_through_session(self):
        cache = StageCache()
        with scoped(compile_cache=None, stage_cache=cache):
            compiler = Compiler()
            compiler.compile(MODULE_A + MODULE_B)
            compiler.compile(MODULE_A + MODULE_B_EDITED)
            assert cache.stats.compiles == 2
            assert cache.stats.segments_reused > 0

    def test_facade_matches_compile_source(self):
        with scoped(compile_cache=None, stage_cache=StageCache()):
            compiler = Compiler(flavor="quartus")
            for code in (MODULE_A, BROKEN, MODULE_A + MODULE_B):
                warm = compiler.compile(code)
                cold = compile_source(code, flavor="quartus")
                assert result_fingerprint(warm) == result_fingerprint(cold)

    def test_facade_pickles_without_session(self):
        compiler = Compiler()
        compiler.compile(MODULE_A)  # materialize the session (holds a lock)
        clone = pickle.loads(pickle.dumps(compiler))
        assert clone._session is None
        assert clone.compile(MODULE_A).ok

    def test_wrapped_by_retrying_compiler(self):
        cache = StageCache()
        with scoped(compile_cache=None, stage_cache=cache):
            compiler = Guard(Compiler(), RetryPolicy(max_retries=2))
            assert compiler.compile(MODULE_A + MODULE_B).ok
            assert compiler.compile(MODULE_A + MODULE_B_EDITED).ok
            assert cache.stats.segments_reused > 0

    def test_wrapped_by_chaos_compiler(self):
        injector = FaultInjector(seed=3, compiler=FaultSpec(rate=1.0,
                                                            kind="garbage"))
        with scoped(compile_cache=None, stage_cache=StageCache()):
            compiler = Guard(Compiler(), injector=injector)
            # A poisoned compile goes through the same session and stays
            # a well-formed (failing) result, never an exception.
            result = compiler.compile(MODULE_A)
            assert not result.ok
            assert not result.crashed


class TestReportIntegration:
    def test_pipeline_stats_excluded_from_json(self):
        from repro.eval.report import FullReport, ReportScale

        report = FullReport(scale=ReportScale())
        report.pipeline = {"compiles": 7}
        assert "pipeline" not in report.to_json()

    def test_pipeline_stats_rendered_in_markdown(self):
        from repro.eval.report import FullReport, ReportScale

        report = FullReport(scale=ReportScale())
        report.rendered["pipeline"] = "compiles: 7"
        assert "## pipeline" in report.to_markdown()


class TestFingerprint:
    def test_fingerprint_distinguishes_flavors(self):
        a = compile_source(BROKEN, flavor="iverilog")
        b = compile_source(BROKEN, flavor="quartus")
        assert result_fingerprint(a) != result_fingerprint(b)

    def test_fingerprint_covers_log_and_spans(self):
        result = compile_source(BROKEN)
        fp = result_fingerprint(result)
        assert result.log in fp
        assert any(
            isinstance(part, tuple) and part for part in fp[6]
        )  # at least one diagnostic with a span/args projection
