"""The crash-proof simulation sandbox: budgets, verdicts, telemetry.

The hostile-corpus *gate* (scripts/sandbox_gate.py) proves containment
end-to-end under production budgets; this suite pins down the unit
surface -- limit parsing/validation, per-budget overflow kinds on both
engines, the never-crash classification boundary, verdict-cache
hygiene, the mid-simulation ambient deadline, the wall-clock watchdog
(with an injectable clock) and the sandbox telemetry counters.
"""

import dataclasses

import pytest

from repro.core.config import RTLFixerConfig
from repro.diagnostics import compile_source
from repro.errors import (
    DeadlineExceededError,
    SimLimitExceeded,
    SimulationError,
)
from repro.runtime.checkpoint import config_digest
from repro.scope import current, scoped
from repro.service.deadline import Deadline, use_deadline
from repro.sim.limits import (
    DEFAULT_SIM_LIMITS,
    FUZZ_SIM_LIMITS,
    UNTRACKED,
    BoundedDisplayLog,
    SimLimits,
    SimLimitTracker,
    parse_sim_limits,
)
from repro.sim.sandbox import SandboxStats, SimVerdict, run_sandboxed, simulate
from repro.sim.testbench import run_differential
from repro.sim.verdict import VerdictCache

ENGINES = ("interp", "compiled")

#: Stabilises only through case-equality, so it oscillates forever.
OSCILLATOR = (
    "module top_module(input a, output w);\n"
    "assign w = (w === 1'b0) ? 1'b1 : 1'b0;\nendmodule\n"
)

COUNTER = (
    "module top_module(input clk, output reg [7:0] q);\n"
    "always @(posedge clk) q <= q + 1;\nendmodule\n"
)

DISPLAYER = (
    "module top_module(input clk, output reg q);\n"
    "always @(posedge clk) begin q <= ~q; $display(\"t %b\", q); end\n"
    "endmodule\n"
)


def build(code: str):
    result = compile_source(code)
    assert result.ok, result.log
    return result.elaborated


# ---------------------------------------------------------------------------
# SimLimits parsing and validation
# ---------------------------------------------------------------------------


class TestLimitsParsing:
    def test_presets(self):
        assert parse_sim_limits("default") is DEFAULT_SIM_LIMITS
        assert parse_sim_limits("fuzz") is FUZZ_SIM_LIMITS

    def test_key_value_spec(self):
        limits = parse_sim_limits("cycles=100,display=7,wall=2.5")
        assert limits.max_cycles == 100
        assert limits.max_display_lines == 7
        assert limits.wall_clock_s == 2.5
        # unspecified keys keep their defaults
        assert limits.max_trace_bytes == DEFAULT_SIM_LIMITS.max_trace_bytes

    @pytest.mark.parametrize(
        "spec", ["", "bogus=1", "cycles", "cycles=ten", "wall=0x", "=5"]
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_sim_limits(spec)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_cycles", 0),
            ("max_events_per_cycle", -1),
            ("max_display_lines", True),
            ("wall_clock_s", 0),
            ("wall_clock_s", -1.0),
        ],
    )
    def test_validation_rejects(self, field, value):
        with pytest.raises(ValueError):
            SimLimits(**{field: value})

    def test_describe_roundtrips_through_parse(self):
        limits = SimLimits(max_cycles=123, wall_clock_s=1.5)
        reparsed = parse_sim_limits(
            limits.describe().replace(" ", ",")
        )
        assert reparsed == limits

    def test_default_scoping(self):
        tight = SimLimits(max_cycles=9)
        with scoped(sim_limits=tight):
            assert current()["sim_limits"] is tight
            with pytest.raises(ValueError):
                with scoped(sim_limits="cycles=9"):
                    pass
        assert "sim_limits" not in current()


# ---------------------------------------------------------------------------
# Budget overflows: typed limit verdicts, identical on both engines
# ---------------------------------------------------------------------------


class TestBudgetKinds:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_oscillator_is_a_settle_limit(self, engine):
        design = build(OSCILLATOR)
        with scoped(verdict_cache=None):
            outcome = simulate(design, design, samples=4, engine=engine)
        assert outcome.verdict.category == "limit"
        assert outcome.verdict.kind == "settle passes"
        assert outcome.verdict.phase == "construct"
        assert outcome.verdict.engine == engine

    @pytest.mark.parametrize("engine", ENGINES)
    def test_cycle_budget(self, engine):
        design = build(COUNTER)
        with scoped(verdict_cache=None):
            outcome = simulate(
                design, design, samples=100, engine=engine,
                sim_limits=SimLimits(max_cycles=8),
            )
        assert outcome.verdict.category == "limit"
        assert outcome.verdict.kind == "simulated cycles"
        assert outcome.verdict.phase == "cycle"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_display_budget(self, engine):
        design = build(DISPLAYER)
        with scoped(verdict_cache=None):
            outcome = simulate(
                design, design, samples=64, engine=engine,
                sim_limits=SimLimits(max_display_lines=4),
            )
        assert outcome.verdict.category == "limit"
        assert outcome.verdict.kind == "display lines"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_trace_budget(self, engine):
        design = build(COUNTER)
        with scoped(verdict_cache=None):
            outcome = simulate(
                design, design, mode="feedback", samples=64, engine=engine,
                sim_limits=SimLimits(max_trace_entries=4),
            )
        assert outcome.verdict.category == "limit"
        assert outcome.verdict.kind == "trace entries"
        assert outcome.verdict.phase == "trace"

    def test_engines_agree_on_every_kind(self):
        cases = [
            (OSCILLATOR, "diff", DEFAULT_SIM_LIMITS),
            (COUNTER, "diff", SimLimits(max_cycles=8)),
            (DISPLAYER, "diff", SimLimits(max_display_lines=4)),
            (COUNTER, "feedback", SimLimits(max_trace_entries=4)),
        ]
        for code, mode, limits in cases:
            design = build(code)
            with scoped(verdict_cache=None):
                verdicts = [
                    simulate(
                        design, design, mode=mode, samples=32,
                        engine=engine, sim_limits=limits,
                    ).verdict
                    for engine in ENGINES
                ]
            assert verdicts[0].category == verdicts[1].category
            assert verdicts[0].kind == verdicts[1].kind

    def test_clean_design_is_ok_under_default_budgets(self):
        design = build(COUNTER)
        with scoped(verdict_cache=None):
            outcome = simulate(design, design, samples=32)
        assert outcome.verdict.ok
        assert outcome.result.passed

    def test_untracked_sentinel_disables_tracking(self):
        design = build(COUNTER)
        with scoped(verdict_cache=None):
            result = run_differential(
                design, design, samples=16, sim_limits=UNTRACKED
            )
        assert result.passed


# ---------------------------------------------------------------------------
# The never-crash classification boundary
# ---------------------------------------------------------------------------


class TestRunSandboxed:
    def test_success_passes_result_through(self):
        result, verdict = run_sandboxed(lambda: 42, "interp")
        assert result == 42 and verdict is None

    def test_limit_overflow_becomes_limit_verdict(self):
        def body():
            raise SimLimitExceeded("sim events", 10, phase="cycle")

        result, verdict = run_sandboxed(body, "compiled")
        assert result is None
        assert verdict.category == "limit"
        assert verdict.kind == "sim events"
        assert verdict.phase == "cycle"
        assert verdict.engine == "compiled"

    def test_simulation_error_stays_fail(self):
        def body():
            raise SimulationError("no such net: 'q'")

        _, verdict = run_sandboxed(body, "interp")
        assert verdict.category == "fail"

    def test_internal_error_becomes_crashed_verdict(self):
        def body():
            raise RuntimeError("boom")

        _, verdict = run_sandboxed(body, "interp")
        assert verdict.category == "crashed"
        assert verdict.kind == "RuntimeError"
        assert not verdict.cacheable

    def test_shutdown_propagates(self):
        def body():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sandboxed(body, "interp")

    def test_cacheable_taxonomy(self):
        assert SimVerdict(category="ok").cacheable
        assert SimVerdict(category="fail").cacheable
        assert not SimVerdict(category="limit").cacheable
        assert not SimVerdict(category="crashed").cacheable
        assert not SimVerdict(category="ok", injected=True).cacheable


# ---------------------------------------------------------------------------
# Verdict-cache hygiene
# ---------------------------------------------------------------------------


class TestCacheHygiene:
    def test_sim_limits_separate_cache_keys(self):
        design = build(COUNTER)
        cache = VerdictCache()
        with scoped(verdict_cache=cache):
            run_differential(design, design, samples=8)
            assert len(cache) == 1
            run_differential(
                design, design, samples=8,
                sim_limits=SimLimits(max_cycles=4_999),
            )
            assert len(cache) == 2, "different budgets must never alias"

    def test_limit_verdicts_never_memoized(self):
        design = build(OSCILLATOR)
        cache = VerdictCache()
        with scoped(verdict_cache=cache):
            first = run_differential(design, design, samples=4)
            second = run_differential(design, design, samples=4)
        assert first.verdict.category == "limit"
        assert second.verdict.category == "limit"
        assert len(cache) == 0


# ---------------------------------------------------------------------------
# Ambient deadline at the sim-cycle seam
# ---------------------------------------------------------------------------


class TestMidSimulationDeadline:
    def test_expired_deadline_fires_mid_simulation(self):
        design = build(COUNTER)
        deadline = Deadline(1e-6)
        stats = SandboxStats()
        with scoped(verdict_cache=None, sandbox_stats=stats):
            with use_deadline(deadline):
                with pytest.raises(DeadlineExceededError) as exc_info:
                    run_differential(design, design, samples=64)
        # typed, attributed to the sim-cycle checkpoint, and counted --
        # never converted into a crashed verdict
        assert "sim-cycle" in str(exc_info.value)
        assert stats.deadline_fires == 1
        assert stats.crashed_verdicts == 0

    def test_no_deadline_means_no_interference(self):
        design = build(COUNTER)
        with scoped(verdict_cache=None), use_deadline(None):
            assert run_differential(design, design, samples=8).passed


# ---------------------------------------------------------------------------
# Wall-clock watchdog (injectable clock)
# ---------------------------------------------------------------------------


class TestWatchdog:
    def test_watchdog_fires_within_one_stride(self):
        now = [0.0]
        tracker = SimLimitTracker(
            SimLimits(wall_clock_s=5.0), clock=lambda: now[0]
        )
        tracker.begin_cycle()  # first cycle polls immediately: in budget
        now[0] = 99.0
        with pytest.raises(SimLimitExceeded) as exc_info:
            for _ in range(tracker.TICK_STRIDE + 1):
                tracker.begin_cycle()
        assert exc_info.value.kind == "wall clock"

    def test_stride_bounds_poll_frequency(self):
        calls = [0]

        def clock():
            calls[0] += 1
            return 0.0

        tracker = SimLimitTracker(SimLimits(), clock=clock)
        for _ in range(tracker.TICK_STRIDE * 3):
            tracker.begin_cycle()
        # one read at construction plus one per stride
        assert calls[0] <= 1 + 3


# ---------------------------------------------------------------------------
# Display log and telemetry
# ---------------------------------------------------------------------------


class TestTelemetry:
    def test_bounded_display_log_charges(self):
        tracker = SimLimitTracker(SimLimits(max_display_lines=2))
        log = BoundedDisplayLog(tracker)
        log.append("one")
        log.append("two")
        with pytest.raises(SimLimitExceeded) as exc_info:
            log.append("three")
        assert exc_info.value.kind == "display lines"
        assert list(log) == ["one", "two"]

    def test_untracked_display_log_is_a_plain_list(self):
        log = BoundedDisplayLog(None)
        for i in range(10):
            log.append(str(i))
        assert len(log) == 10

    def test_stats_count_limit_and_watchdog(self):
        stats = SandboxStats()
        stats.record(SimVerdict(category="limit", kind="sim events"))
        stats.record(SimVerdict(category="limit", kind="wall clock"))
        stats.record(SimVerdict(category="crashed", kind="RuntimeError"))
        stats.record(SimVerdict(category="crashed", injected=True))
        assert stats.limit_verdicts == 2
        assert stats.watchdog_fires == 1
        assert stats.crashed_verdicts == 1  # chaos fabrications excluded
        assert stats.as_dict()["limit_verdicts"] == 2

    def test_harness_counts_into_active_stats(self):
        design = build(OSCILLATOR)
        stats = SandboxStats()
        with scoped(verdict_cache=None, sandbox_stats=stats):
            simulate(design, design, samples=4)
        assert stats.limit_verdicts == 1


# ---------------------------------------------------------------------------
# Config integration
# ---------------------------------------------------------------------------


class TestConfigIntegration:
    def test_sim_limits_participate_in_config_digest(self):
        base = RTLFixerConfig()
        tightened = dataclasses.replace(
            base, sim_limits=SimLimits(max_cycles=7)
        )
        assert config_digest(base) != config_digest(tightened)

    def test_config_rejects_non_simlimits(self):
        with pytest.raises(ValueError):
            RTLFixerConfig(sim_limits="cycles=7")
