"""Crash-proofing suite: resource limits, the internal-error boundary,
the crash corpus, and the deterministic fuzz harness."""

import time
from pathlib import Path

import pytest

from repro.diagnostics import (
    IVERILOG_CATEGORIES,
    QUARTUS_CATEGORIES,
    ErrorCategory,
    compile_source,
)
from repro.diagnostics.codes import CATALOG
from repro.runtime import CompileCache, compile_key, isolable
from repro.runtime.fuzz import (
    MUTATORS,
    SEED_CORPUS,
    SIM_MUTATORS,
    FuzzConfig,
    run_fuzz,
)
from repro.verilog.limits import (
    DEFAULT_LIMITS,
    FUZZ_LIMITS,
    LIMIT_KINDS,
    LimitTracker,
    ResourceLimits,
)

CORPUS_DIR = Path(__file__).parent / "data" / "crash_corpus"

GOOD = "module m(input a, output b);\n  assign b = a;\nendmodule\n"


class TestResourceLimits:
    def test_defaults_positive_and_kinds_complete(self):
        for kind, attr in LIMIT_KINDS.items():
            assert DEFAULT_LIMITS.limit_for(kind) > 0
            assert getattr(DEFAULT_LIMITS, attr) == DEFAULT_LIMITS.limit_for(kind)

    def test_fuzz_limits_tighter_than_defaults(self):
        for kind in LIMIT_KINDS:
            assert FUZZ_LIMITS.limit_for(kind) <= DEFAULT_LIMITS.limit_for(kind)

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            ResourceLimits(max_tokens=0)
        with pytest.raises(ValueError):
            ResourceLimits(max_source_bytes=-1)

    def test_tracker_charge_and_diagnose_once(self):
        tracker = LimitTracker(limits=ResourceLimits(max_tokens=3))
        assert tracker.charge("tokens", 3)
        assert not tracker.charge("tokens")
        sink = []
        tracker.report_overflow("tokens", None, sink)
        tracker.report_overflow("tokens", None, sink)  # one-shot
        assert [(d.category, d.args) for d in sink] == [
            (ErrorCategory.RESOURCE_LIMIT, {"what": "tokens", "limit": 3})
        ]

    def test_unknown_kind_rejected(self):
        tracker = LimitTracker()
        with pytest.raises(KeyError):
            tracker.charge("no such budget")


class TestTaxonomyExclusion:
    """The new categories must not disturb the paper's 7/11 taxonomy."""

    def test_new_categories_out_of_taxonomy(self):
        assert ErrorCategory.RESOURCE_LIMIT not in QUARTUS_CATEGORIES
        assert ErrorCategory.INTERNAL not in QUARTUS_CATEGORIES
        assert ErrorCategory.RESOURCE_LIMIT not in IVERILOG_CATEGORIES
        assert ErrorCategory.INTERNAL not in IVERILOG_CATEGORIES
        assert not CATALOG[ErrorCategory.RESOURCE_LIMIT].in_taxonomy
        assert not CATALOG[ErrorCategory.INTERNAL].in_taxonomy

    def test_paper_counts_unchanged(self):
        assert len(IVERILOG_CATEGORIES) == 7
        assert len(QUARTUS_CATEGORIES) == 11


class TestLimitDiagnostics:
    def test_source_bytes_limit(self):
        result = compile_source(
            GOOD, limits=ResourceLimits(max_source_bytes=10)
        )
        assert not result.ok
        assert result.diagnostics[0].category is ErrorCategory.RESOURCE_LIMIT
        assert "source bytes" in result.log

    def test_token_limit(self):
        result = compile_source(
            GOOD, limits=ResourceLimits(max_tokens=5)
        )
        assert ErrorCategory.RESOURCE_LIMIT in result.categories
        assert not result.crashed

    def test_parse_depth_limit(self):
        deep = "module m(output o); assign o = " + "(" * 500 + "1" + ")" * 500 + "; endmodule"
        result = compile_source(deep, limits=ResourceLimits(max_parse_depth=50))
        assert ErrorCategory.RESOURCE_LIMIT in result.categories
        assert not result.crashed

    def test_elab_instance_limit(self):
        code = (
            "module leaf(input a, output b); assign b = a; endmodule\n"
            "module m(input a, output b);\n"
            + "\n".join(
                f"  leaf u{i}(.a(a), .b());" for i in range(20)
            )
            + "\n  assign b = a;\nendmodule\n"
        )
        result = compile_source(code, limits=ResourceLimits(max_elab_instances=5))
        assert ErrorCategory.RESOURCE_LIMIT in result.categories

    def test_both_styles_render_resource_limit(self):
        tight = ResourceLimits(max_tokens=5)
        iv = compile_source(GOOD, flavor="iverilog", limits=tight)
        qu = compile_source(GOOD, flavor="quartus", limits=tight)
        assert "sorry:" in iv.log
        assert "Error (10905)" in qu.log
        assert (iv.ok, iv.crashed) == (qu.ok, qu.crashed)

    def test_default_limits_leave_normal_code_alone(self):
        assert compile_source(GOOD).ok


class TestInternalErrorBoundary:
    def test_unexpected_exception_becomes_internal_diagnostic(self, monkeypatch):
        from repro.verilog.pipeline import CompileSession

        def explode(*args, **kwargs):
            raise RuntimeError("synthetic front-end defect")

        monkeypatch.setattr(CompileSession, "_run", explode)
        result = compile_source(GOOD)
        assert result.crashed
        assert not result.ok
        assert result.diagnostics[0].category is ErrorCategory.INTERNAL
        assert "synthetic front-end defect" in result.diagnostics[0].args["detail"]

    def test_internal_rendering_both_styles(self, monkeypatch):
        from repro.verilog.pipeline import CompileSession

        monkeypatch.setattr(
            CompileSession, "_run",
            lambda *a, **k: (_ for _ in ()).throw(ValueError("boom")),
        )
        iv = compile_source(GOOD, flavor="iverilog")
        assert "internal error" in iv.log
        assert "sorry: please report this as a compiler bug." in iv.log
        qu = compile_source(GOOD, flavor="quartus")
        assert "Error (293001)" in qu.log
        assert "internal error" in qu.log

    def test_keyboard_interrupt_not_swallowed(self, monkeypatch):
        from repro.verilog.pipeline import CompileSession

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt()

        monkeypatch.setattr(CompileSession, "_run", interrupt)
        with pytest.raises(KeyboardInterrupt):
            compile_source(GOOD)

    def test_agent_treats_crash_as_feedback(self, monkeypatch):
        from repro.agents import ReActAgent
        from repro.llm.base import RepairStep

        class _CrashingCompiler:
            flavor = "quartus"

            def __init__(self):
                self.calls = 0

            def compile(self, code):
                self.calls += 1
                from repro.verilog.pipeline import CompileSession

                real = CompileSession._run
                monkeypatch.setattr(
                    CompileSession, "_run",
                    lambda *a, **k: (_ for _ in ()).throw(RuntimeError("ICE")),
                )
                try:
                    return compile_source(code, flavor="quartus")
                finally:
                    monkeypatch.setattr(CompileSession, "_run", real)

        class _Model:
            name = "stub"

            def start(self, code, flavor, use_rag):
                return self

            def step(self, code, feedback, guidance):
                assert "internal error" in feedback
                return RepairStep(thought="hmm", code=code)

        compiler = _CrashingCompiler()
        agent = ReActAgent(
            model=_Model(), compiler=compiler, max_iterations=2,
            apply_rule_fix=False,
        )
        result = agent.run(GOOD)
        assert not result.success  # graceful degradation, no exception
        assert compiler.calls >= 2


class TestRecursiveDefines:
    """Satellite regression: `define cycles must terminate."""

    def test_two_macro_cycle_terminates_with_diagnostic(self):
        code = (
            "`define A `B\n"
            "`define B `A\n"
            "module m(output o); assign o = `A; endmodule\n"
        )
        start = time.monotonic()
        result = compile_source(code)
        assert time.monotonic() - start < 2.0
        assert ErrorCategory.RESOURCE_LIMIT in result.categories
        assert not result.crashed
        assert "recursive macro" in result.log

    def test_self_referential_define_terminates(self):
        result = compile_source(
            "`define X 1 + `X\nmodule m(output o); assign o = `X; endmodule\n"
        )
        assert ErrorCategory.RESOURCE_LIMIT in result.categories

    def test_chained_defines_still_expand(self):
        result = compile_source(
            "`define ONE 1\n`define ALSO_ONE `ONE\n"
            "module m(output o); assign o = `ALSO_ONE; endmodule\n"
        )
        assert result.ok

    def test_include_recursion_bounded(self):
        incs = {"a.vh": '`include "b.vh"', "b.vh": '`include "a.vh"'}
        result = compile_source(
            '`include "a.vh"\nmodule m; endmodule\n', include_files=incs
        )
        assert ErrorCategory.RESOURCE_LIMIT in result.categories
        assert not result.crashed

    def test_include_defines_visible_to_includer(self):
        incs = {"w.vh": "`define W 4"}
        result = compile_source(
            '`include "w.vh"\nmodule m(input [`W-1:0] d, output [`W-1:0] q);\n'
            "  assign q = d;\nendmodule\n",
            include_files=incs,
        )
        assert result.ok


class TestCrashCorpus:
    """Every corpus file must compile to diagnostics: no exception, no
    crash flag from the boundary, bounded wall time."""

    def test_corpus_is_populated(self):
        assert len(list(CORPUS_DIR.glob("*.v"))) >= 5

    @pytest.mark.parametrize(
        "path", sorted(CORPUS_DIR.glob("*.v")), ids=lambda p: p.name
    )
    def test_corpus_file_compiles_to_diagnostics(self, path):
        code = path.read_bytes().decode("utf-8", "replace")
        for flavor in ("iverilog", "quartus"):
            start = time.monotonic()
            result = compile_source(code, flavor=flavor)
            elapsed = time.monotonic() - start
            assert elapsed < 2.0, f"{path.name} took {elapsed:.2f}s"
            assert not result.ok
            assert not result.crashed, f"{path.name} crashed the front-end"
            assert isinstance(result.log, str) and result.log


class TestCacheLimitsKey:
    def test_limits_participate_in_cache_key(self):
        tight = ResourceLimits(max_tokens=5)
        assert compile_key(GOOD) != compile_key(GOOD, limits=tight)
        # None normalizes to the defaults: same entry.
        assert compile_key(GOOD) == compile_key(GOOD, limits=DEFAULT_LIMITS)

    def test_cache_separates_verdicts_by_limits(self):
        cache = CompileCache(maxsize=8)
        ok = cache.compile(GOOD)
        limited = cache.compile(GOOD, limits=ResourceLimits(max_tokens=5))
        assert ok.ok and not limited.ok
        assert cache.stats.misses == 2


class TestIsolable:
    def test_classification(self):
        assert isolable(RuntimeError("x"))
        assert isolable(ValueError("x"))
        assert not isolable(KeyboardInterrupt())
        assert not isolable(SystemExit(1))
        assert not isolable(GeneratorExit())

    def test_collect_mode_propagates_interrupt(self):
        from repro.runtime import ParallelRunner

        def boom(item):
            raise KeyboardInterrupt()

        runner = ParallelRunner(jobs=1)
        with pytest.raises(KeyboardInterrupt):
            runner.map(boom, [1, 2], on_error="collect")

    def test_collect_mode_still_isolates_ordinary_errors(self):
        from repro.runtime import ParallelRunner, WorkFailure

        def maybe(item):
            if item == 1:
                raise RuntimeError("bad unit")
            return item

        results = ParallelRunner(jobs=1).map(maybe, [0, 1, 2], on_error="collect")
        assert results[0] == 0 and results[2] == 2
        assert isinstance(results[1], WorkFailure)

    def test_experiment_collect_propagates_interrupt(self):
        from repro.core import RTLFixer
        from repro.dataset.curate import SyntaxDataset, SyntaxEntry
        from repro.eval.runner import run_fix_experiment

        dataset = SyntaxDataset(
            entries=[
                SyntaxEntry(
                    problem_id="p", benchmark="t", description="",
                    # Broken, so the trial reaches the model.
                    code="module m; wire w endmodule", categories=(),
                )
            ]
        )

        class _Interrupter:
            def start(self, *args, **kwargs):
                raise KeyboardInterrupt()

        fixer = RTLFixer(model=_Interrupter())
        with pytest.raises(KeyboardInterrupt):
            run_fix_experiment(dataset, fixer, repeats=1, on_error="collect")


class TestMacroBombTrial:
    """Acceptance: a Table-1-shaped run with a macro-bomb candidate
    completes with the trial counted as not-fixed, not a WorkFailure."""

    def test_macro_bomb_entry_counts_as_not_fixed(self):
        from repro.core import RTLFixer
        from repro.dataset.curate import SyntaxDataset, SyntaxEntry
        from repro.eval.runner import run_fix_experiment

        bomb = (CORPUS_DIR / "macro_bomb.v").read_text()
        dataset = SyntaxDataset(
            entries=[
                SyntaxEntry(
                    problem_id="bomb", benchmark="crash", description="",
                    code=bomb, categories=("resource-limit",),
                )
            ]
        )
        fixer = RTLFixer(max_iterations=2, compile_limits=FUZZ_LIMITS)
        result = run_fix_experiment(
            dataset, fixer, repeats=2, on_error="collect"
        )
        assert result.failures == []  # compiler feedback, not a WorkFailure
        assert result.fixed_counts == [0]
        assert result.rate == 0.0


class TestFuzzHarness:
    def test_fuzz_smoke_holds_invariants(self):
        report = run_fuzz(FuzzConfig(seed=0, iterations=60))
        assert report.ok, report.summary()
        assert len(report.verdicts) == 60
        assert len(report.mutations) == 60

    def test_fuzz_is_deterministic(self):
        first = run_fuzz(FuzzConfig(seed=7, iterations=40))
        second = run_fuzz(FuzzConfig(seed=7, iterations=40))
        assert first.mutations == second.mutations
        assert first.verdicts == second.verdicts
        assert first.digest() == second.digest()

    def test_different_seeds_differ(self):
        a = run_fuzz(FuzzConfig(seed=1, iterations=30))
        b = run_fuzz(FuzzConfig(seed=2, iterations=30))
        assert a.digest() != b.digest()

    def test_every_mutator_exercised(self):
        report = run_fuzz(FuzzConfig(seed=0, iterations=120))
        assert set(report.mutator_counts) == set(MUTATORS) | set(SIM_MUTATORS)

    def test_corpus_compiles_standalone(self):
        for snippet in SEED_CORPUS:
            result = compile_source(snippet, limits=FUZZ_LIMITS)
            assert not result.crashed

    def test_chaos_integration_changes_inputs_not_invariants(self):
        from repro.runtime import FaultInjector, FaultSpec

        injector = FaultInjector(
            seed=0, compiler=FaultSpec(rate=0.5, kind="garbage")
        )
        report = run_fuzz(FuzzConfig(seed=0, iterations=40, injector=injector))
        assert report.ok, report.summary()
        plain = run_fuzz(FuzzConfig(seed=0, iterations=40))
        assert report.mutations == plain.mutations  # same derivation
        assert report.verdicts != plain.verdicts  # garbage changed outcomes

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            FuzzConfig(iterations=-1)
        with pytest.raises(ValueError):
            FuzzConfig(per_input_budget=0)

    @pytest.mark.fuzz
    def test_fuzz_thousand_iterations_reproducible(self):
        """The ISSUE acceptance run: 1000 iterations, zero violations,
        identical mutation sequence and verdicts on repeat."""
        first = run_fuzz(FuzzConfig(seed=0, iterations=1000))
        assert first.ok, first.summary()
        second = run_fuzz(FuzzConfig(seed=0, iterations=1000))
        assert second.ok, second.summary()
        assert first.mutations == second.mutations
        assert first.verdicts == second.verdicts


class TestFuzzCLI:
    def test_cli_fuzz_runs(self, capsys):
        from repro.cli import main

        code = main(["fuzz", "--seed", "3", "--iterations", "25"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all invariants held" in out
        assert "digest:" in out

    def test_cli_fuzz_chaos_rate(self, capsys):
        from repro.cli import main

        code = main(
            ["fuzz", "--seed", "3", "--iterations", "10", "--chaos-rate", "0.5"]
        )
        assert code == 0
