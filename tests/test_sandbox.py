"""The crash-proof simulation sandbox: budgets, verdicts, telemetry.

The hostile-corpus *gate* (scripts/sandbox_gate.py) proves containment
end-to-end under production budgets; this suite pins down the unit
surface -- limit parsing/validation, per-budget overflow kinds on both
engines, the never-crash classification boundary, verdict-cache
hygiene, the mid-simulation ambient deadline, the wall-clock watchdog
(with an injectable clock) and the sandbox telemetry counters.
"""

import dataclasses
import sys
import threading

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
from repro.sim import testbench
from repro.sim.limits import (
    DEFAULT_SIM_LIMITS,
    FUZZ_SIM_LIMITS,
    UNTRACKED,
    BoundedDisplayLog,
    SimLimits,
    SimLimitTracker,
    parse_sim_limits,
)
from repro.sim.feedback import make_sim_feedback, simulate_with_traces
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


class TestSimulationErrorPhase:
    """A design-caused :class:`SimulationError` reports the phase the
    run was in when it was raised, not always ``construct``."""

    REFERENCE = (
        "module top_module(input a, input b, output y, output z);\n"
        "assign y = a & b;\nassign z = a | b;\nendmodule\n"
    )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_missing_output_fails_in_trace_phase(self, engine):
        candidate = build(
            "module top_module(input a, input b, output y);\n"
            "assign y = a & b;\nendmodule\n"
        )
        with scoped(verdict_cache=None):
            outcome = simulate(
                candidate, build(self.REFERENCE), mode="feedback",
                engine=engine,
            )
        verdict = outcome.verdict
        assert (verdict.category, verdict.phase) == ("fail", "trace")
        assert verdict.detail == "no such net: 'z'"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_renamed_input_fails_in_cycle_phase(self, engine):
        candidate = build(
            "module top_module(input c, input b, output y, output z);\n"
            "assign y = c & b;\nassign z = c | b;\nendmodule\n"
        )
        with scoped(verdict_cache=None):
            outcome = simulate(
                candidate, build(self.REFERENCE), mode="feedback",
                engine=engine,
            )
        verdict = outcome.verdict
        assert (verdict.category, verdict.phase) == ("fail", "cycle")
        assert verdict.detail == "no such input port: 'a'"

    def test_design_without_modules_fails_in_construct_phase(self):
        design = build(COUNTER)
        empty = dataclasses.replace(design, modules={}, top=None)
        with scoped(verdict_cache=None):
            outcome = simulate(empty, design, mode="feedback")
        assert (outcome.verdict.category, outcome.verdict.phase) == (
            "fail", "construct",
        )


# ---------------------------------------------------------------------------
# Reference tapes: the golden reference is simulated once per stimulus
# ---------------------------------------------------------------------------

#: Same ports as DISPLAYER, but prints nothing.
QUIET = (
    "module top_module(input clk, output reg q);\n"
    "always @(posedge clk) q <= ~q;\nendmodule\n"
)

#: DISPLAYER's ports with a 64-bit output: 8 trace bytes per sample.
WIDE = (
    "module top_module(input clk, output reg [63:0] q);\n"
    "always @(posedge clk) q <= ~q;\nendmodule\n"
)


def _summary(verdict):
    return (verdict.category, verdict.kind, verdict.phase, verdict.detail)


def _harness_verdict(mode, candidate, reference, samples, engine, limits):
    return simulate(
        candidate, reference, mode=mode, samples=samples, engine=engine,
        sim_limits=limits,
    ).verdict


def _traced_verdict(candidate, reference, samples, engine, tracker):
    _, verdict = run_sandboxed(
        lambda: simulate_with_traces(
            candidate, reference, samples=samples, engine=engine,
            sim_tracker=tracker,
        ),
        engine,
    )
    return verdict


@pytest.fixture
def reference_builds(monkeypatch):
    """Counts the reference simulators the harnesses build."""
    built = []
    original = testbench.make_simulator

    def counting(design, **kwargs):
        built.append(design)
        return original(design, **kwargs)

    monkeypatch.setattr(testbench, "make_simulator", counting)
    return built


class TestReferenceTape:
    """A replayed reference charges the shared budget pool exactly as a
    simulated one, so every verdict -- including which budget fires, in
    which phase, inside the reference's half -- matches a cold run."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("mode", ("diff", "feedback"))
    def test_display_budget_trips_inside_replayed_reference(self, mode, engine):
        # The reference prints once per cycle.  Taped with a silent
        # candidate (8 lines <= 9), it is then replayed beside a
        # candidate that also prints: the 10th line is the reference's.
        reference, loud, quiet = build(DISPLAYER), build(DISPLAYER), build(QUIET)
        limits = SimLimits(max_display_lines=9)
        with scoped(verdict_cache=None):
            cold = _harness_verdict(mode, loud, reference, 8, engine, limits)
        cache = VerdictCache()
        with scoped(verdict_cache=cache):
            taping = _harness_verdict(mode, quiet, reference, 8, engine, limits)
            assert taping.category in ("ok", "fail")
            assert len(cache.tapes) == 1
            replayed = _harness_verdict(mode, loud, reference, 8, engine, limits)
        assert _summary(replayed) == _summary(cold)
        assert _summary(cold)[:3] == ("limit", "display lines", "cycle")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_trace_bytes_trip_on_replayed_reference_record(self, engine):
        # 1 byte per reference sample; the wide candidate adds 8, so the
        # second record ends at 9 + 8 = 17 bytes before the reference's
        # sample takes the pool to 18 > 17.
        reference, wide = build(DISPLAYER), build(WIDE)
        limits = SimLimits(max_trace_bytes=17)
        with scoped(verdict_cache=None):
            cold = _harness_verdict("feedback", wide, reference, 8, engine, limits)
        cache = VerdictCache()
        with scoped(verdict_cache=cache):
            _harness_verdict("feedback", reference, reference, 8, engine, limits)
            assert len(cache.tapes) == 1
            replayed = _harness_verdict(
                "feedback", wide, reference, 8, engine, limits
            )
        assert _summary(replayed) == _summary(cold)
        assert _summary(cold)[:3] == ("limit", "trace bytes", "trace")

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "limits, precharge, kind, phase",
        [
            # 3 cycles spent before the run: its 18th begin_cycle (a
            # reference step) is the 21st of 20.
            (SimLimits(max_cycles=20),
             lambda t: [t.begin_cycle() for _ in range(3)],
             "simulated cycles", "cycle"),
            # 5 entries spent before the run: its 8th entry (the
            # reference's fourth sample) is the 13th of 12.
            (SimLimits(max_trace_entries=12), lambda t: t.charge_trace(5, 0),
             "trace entries", "trace"),
        ],
        ids=["cycles", "trace-entries"],
    )
    def test_shared_tracker_trips_inside_replayed_reference(
        self, engine, limits, precharge, kind, phase
    ):
        # Only a caller-supplied tracker can reach these budgets inside
        # the reference's half: within one harness run the candidate
        # and the reference step and trace in lockstep.
        design = build(COUNTER)

        def run():
            tracker = SimLimitTracker(limits)
            precharge(tracker)
            return _traced_verdict(design, design, 4, engine, tracker)

        with scoped(verdict_cache=None):
            cold = run()
        cache = VerdictCache()
        with scoped(verdict_cache=cache):
            assert _traced_verdict(
                design, design, 4, engine, SimLimitTracker(limits)
            ) is None
            assert len(cache.tapes) == 1
            replayed = run()
        assert _summary(replayed) == _summary(cold)
        assert _summary(cold)[:3] == ("limit", kind, phase)

    @pytest.mark.parametrize(
        "code, mode, limits",
        [
            (OSCILLATOR, "diff", DEFAULT_SIM_LIMITS),
            (COUNTER, "diff", SimLimits(max_cycles=8)),
            (DISPLAYER, "diff", SimLimits(max_display_lines=4)),
            (DISPLAYER, "feedback", SimLimits(max_display_lines=4)),
            (COUNTER, "feedback", SimLimits(max_trace_entries=4)),
        ],
        ids=["settle", "cycles", "display-diff", "display-feedback", "trace"],
    )
    def test_reference_that_trips_on_its_own_is_never_taped(
        self, code, mode, limits
    ):
        design = build(code)
        cache = VerdictCache()
        with scoped(verdict_cache=cache):
            for _ in range(2):
                outcome = simulate(
                    design, design, mode=mode, samples=32, sim_limits=limits
                )
                assert outcome.verdict.category == "limit"
        assert len(cache.tapes) == 0

    @pytest.mark.parametrize("mode", ("diff", "feedback"))
    def test_replay_builds_no_reference_simulator(self, mode, reference_builds):
        counter = (
            "module top_module(input clk, input reset, output reg [3:0] q);\n"
            "always @(posedge clk) if (reset) q <= 0; else q <= q + STEP;\n"
            "endmodule\n"
        )
        reference = build(counter.replace("STEP", "1"))
        candidate = build(counter.replace("STEP", "2"))
        cache = VerdictCache()
        with scoped(verdict_cache=cache):
            first = simulate(reference, reference, mode=mode, samples=8)
            built = len(reference_builds)
            second = simulate(candidate, reference, mode=mode, samples=8)
        assert first.verdict.ok and second.verdict.category == "fail"
        assert reference_builds[built:].count(reference) == 0
        assert len(cache.tapes) == 1

    def test_no_verdict_cache_simulates_every_reference(self, reference_builds):
        reference = build(COUNTER)
        with scoped(verdict_cache=None):
            for _ in range(2):
                assert simulate(reference, reference, samples=8).verdict.ok
        assert reference_builds.count(reference) == 4

    @pytest.mark.parametrize("engine", ENGINES)
    def test_one_tape_serves_both_harnesses(self, engine, reference_builds):
        counter = (
            "module top_module(input clk, input reset, output reg [3:0] q);\n"
            "always @(posedge clk) if (reset) q <= 0; else q <= q + STEP;\n"
            "endmodule\n"
        )
        reference = build(counter.replace("STEP", "1"))
        first = build(counter.replace("STEP", "2"))
        second = build(counter.replace("STEP", "3"))

        def both():
            return (
                make_sim_feedback(first, reference, samples=8, engine=engine),
                run_differential(second, reference, samples=8, engine=engine),
            )

        with scoped(verdict_cache=None):
            cold = both()
        built = len(reference_builds)
        cache = VerdictCache()
        with scoped(verdict_cache=cache):
            warm = both()
        assert reference_builds[built:].count(reference) == 1
        assert len(cache.tapes) == 1
        assert warm == cold

    def test_tapes_are_not_verdicts(self):
        reference, other, candidate = (
            build(COUNTER.replace("q + 1", step))
            for step in ("q + 1", "q + 2", "q - 1")
        )
        cache = VerdictCache(maxsize=1)
        with scoped(verdict_cache=cache):
            run_differential(candidate, reference, samples=8)
            make_sim_feedback(candidate, other, samples=8)
        # Two references, two tapes -- but the shared LRU bound keeps one,
        # and neither counts as a verdict entry or a lookup.
        assert len(cache.tapes) == 1 and cache.tapes.stats.evictions == 1
        assert len(cache) == 1
        assert cache.stats.lookups == 2 and cache.stats.evictions == 1
        cache.clear()
        assert len(cache.tapes) == 0

    def test_threads_sharing_one_cache_see_simulated_results(self):
        # More threads than cores, switching often, all taping and
        # replaying one reference through one cache.
        reference = build(DISPLAYER)
        candidates = [build(QUIET), build(WIDE), reference] * 2
        with scoped(verdict_cache=None):
            expected = [
                simulate(c, reference, mode="feedback", samples=12).result
                for c in candidates
            ]
        cache = VerdictCache()
        results: dict = {}

        def work(index):
            results[index] = [
                simulate(c, reference, mode="feedback", samples=12).result
                for c in candidates[index % 3:] + candidates[:index % 3]
            ]

        # The scope is process-wide: the threads share the caller's cache.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with scoped(verdict_cache=cache):
                threads = [
                    threading.Thread(target=work, args=(i,)) for i in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for index, got in results.items():
            shift = index % 3
            assert got == expected[shift:] + expected[:shift]
        assert len(results) == 8 and len(cache.tapes) == 1

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("mode", ("diff", "feedback"))
    def test_replayed_results_match_simulated(self, mode, engine):
        reference = build(DISPLAYER)
        candidates = [build(QUIET), build(WIDE), reference]
        with scoped(verdict_cache=None):
            cold = [
                simulate(c, reference, mode=mode, samples=12, engine=engine)
                for c in candidates
            ]
        cache = VerdictCache()
        with scoped(verdict_cache=cache):
            warm = [
                simulate(c, reference, mode=mode, samples=12, engine=engine)
                for c in candidates
            ]
        assert len(cache.tapes) == 1
        assert [o.result for o in warm] == [o.result for o in cold]


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

    @pytest.mark.parametrize("max_cycles", [1, 2, 63, 64, 65, 129, 200])
    def test_cycle_budget_and_polls_land_on_exact_cycles(self, max_cycles):
        # Cycles are charged in strides; the overflow still fires on
        # cycle max_cycles + 1 and the clock is read on cycles 1, 65,
        # 129, ... -- the same cycles as a per-cycle countdown.
        polls = []
        cycle = [0]
        tracker = SimLimitTracker(
            SimLimits(max_cycles=max_cycles),
            clock=lambda: polls.append(cycle[0]) or 0.0,
        )
        with pytest.raises(SimLimitExceeded) as exc_info:
            for cycle[0] in range(1, max_cycles + 2):
                tracker.begin_cycle()
        assert cycle[0] == max_cycles + 1
        assert exc_info.value.kind == "simulated cycles"
        stride = tracker.TICK_STRIDE
        assert polls == [0] + list(range(1, max_cycles + 1, stride))

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("max_cycles", [1, 63, 64, 65, 129])
    def test_stepped_simulator_lands_on_the_same_cycles(self, engine, max_cycles):
        # The compiled step inlines begin_cycle: a simulator driven
        # through step() must overflow and poll the clock on exactly
        # the cycles a bare tracker does (construction is cycle 1).
        design = compile_source(COUNTER).elaborated

        def run(drive):
            polls = []
            cycle = [0]
            tracker = SimLimitTracker(
                SimLimits(max_cycles=max_cycles),
                clock=lambda: polls.append(cycle[0]) or 0.0,
            )
            with pytest.raises(SimLimitExceeded) as exc_info:
                drive(tracker, cycle)
            assert exc_info.value.kind == "simulated cycles"
            return cycle[0], polls

        def bare(tracker, cycle):
            for cycle[0] in range(1, max_cycles + 2):
                tracker.begin_cycle()

        def stepped(tracker, cycle):
            cycle[0] = 1
            sim = testbench.make_simulator(
                design, engine=engine, sim_tracker=tracker
            )
            for cycle[0] in range(2, max_cycles + 2):
                sim.step({"clk": cycle[0] & 1})

        assert run(stepped) == run(bare)

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
