"""Compiled simulation engine: lowering, two-state speculation, engine
selection, sim-lower stage caching and verdict memoization."""

import pytest

from repro.diagnostics import compile_source
from repro.errors import SimulationError
from repro.scope import current, scoped
from repro.sim import (
    DEFAULT_SIM_ENGINE,
    CompiledSimulator,
    Logic,
    Simulator,
    VerdictCache,
    make_sim_feedback,
    make_simulator,
    run_differential,
    verdict_key,
)
from repro.verilog.limits import DEFAULT_LIMITS, ResourceLimits
from repro.verilog.pipeline import StageCache


def elaborate(code: str):
    result = compile_source(code)
    assert result.ok, result.log
    return result.elaborated


COUNTER = (
    "module m(input clk, input reset, input [3:0] d, output reg [3:0] q);\n"
    "always @(posedge clk)\n"
    "  if (reset) q <= 0; else q <= q + d;\n"
    "endmodule\n"
)

MUXES = (
    "module m(input [7:0] a, input [7:0] b, input sel, output [7:0] y,\n"
    "         output reg [7:0] z);\n"
    "assign y = sel ? a : b;\n"
    "always @(*) begin\n"
    "  case (sel)\n"
    "    1'b0: z = a ^ b;\n"
    "    default: z = a + b;\n"
    "  endcase\n"
    "end\n"
    "endmodule\n"
)

MEMORY = (
    "module m(input clk, input we, input [1:0] addr, input [7:0] d,\n"
    "         output [7:0] q);\n"
    "reg [7:0] mem [0:3];\n"
    "integer i;\n"
    "initial for (i = 0; i < 4; i = i + 1) mem[i] = 0;\n"
    "always @(posedge clk) if (we) mem[addr] <= d;\n"
    "assign q = mem[addr];\n"
    "endmodule\n"
)

DISPLAY = (
    "module m(input clk, input [7:0] d);\n"
    "always @(posedge clk) $display(\"d=%d\", d);\n"
    "endmodule\n"
)


def run_both(code: str, stimuli: list[dict]):
    """Drive both engines with identical stimulus; return the two sims."""
    design = elaborate(code)
    interp = make_simulator(design, engine="interp")
    compiled = make_simulator(design, engine="compiled")
    for stimulus in stimuli:
        interp.step(dict(stimulus))
        compiled.step(dict(stimulus))
        assert dict(compiled.state.values) == dict(interp.state.values)
    assert compiled.state.arrays == interp.state.arrays
    assert compiled.display_log == interp.display_log
    return interp, compiled


class TestEngineEquivalence:
    def test_sequential_counter(self):
        stimuli = [{"clk": c & 1, "reset": int(c < 4), "d": (c * 3) % 16}
                   for c in range(24)]
        _, compiled = run_both(COUNTER, stimuli)
        assert compiled.fast_runs > 0

    def test_comb_mux_and_case(self):
        stimuli = [{"a": (c * 7) % 256, "b": (c * 11) % 256, "sel": c & 1}
                   for c in range(16)]
        _, compiled = run_both(MUXES, stimuli)
        assert compiled.fast_runs > 0

    def test_memory_read_write(self):
        stimuli = []
        for c in range(16):
            stimuli.append({"clk": 0, "we": c & 1, "addr": c % 4,
                            "d": (c * 5) % 256})
            stimuli.append({"clk": 1})
        run_both(MEMORY, stimuli)

    def test_display_log_identical(self):
        stimuli = []
        for c in range(6):
            stimuli.append({"clk": 0, "d": c * 10})
            stimuli.append({"clk": 1})
        interp, _ = run_both(DISPLAY, stimuli)
        assert len(interp.display_log) == 6

    def test_x_stimulus_matches(self):
        stimuli = [{"clk": 0, "reset": 0, "d": Logic.all_x(4)}, {"clk": 1},
                   {"clk": 0, "reset": 1, "d": 2}, {"clk": 1},
                   {"clk": 0, "reset": 0, "d": 3}, {"clk": 1}]
        run_both(COUNTER, stimuli)


class TestEngineSelection:
    def test_default_engine_is_compiled(self):
        assert current().get("sim_engine", DEFAULT_SIM_ENGINE) == "compiled"
        sim = make_simulator(elaborate(COUNTER))
        assert isinstance(sim, CompiledSimulator)

    def test_explicit_interp(self):
        sim = make_simulator(elaborate(COUNTER), engine="interp")
        assert type(sim) is Simulator

    def test_set_default_round_trip(self):
        previous = current().get("sim_engine", DEFAULT_SIM_ENGINE)
        with scoped(sim_engine="interp"):
            assert type(make_simulator(elaborate(COUNTER))) is Simulator
        assert current().get("sim_engine", DEFAULT_SIM_ENGINE) == previous

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            with scoped(sim_engine="verilator"):
                pass
        with pytest.raises(ValueError):
            make_simulator(elaborate(COUNTER), engine="verilator")


class TestFastPath:
    def test_lowered_processes_counted(self):
        sim = make_simulator(elaborate(MUXES), engine="compiled")
        assert sim._lowered.fast_processes == sim._lowered.total_processes > 0

    def test_unlowerable_process_falls_back(self):
        # The x literal is unlowerable, so the always block runs on the
        # interpreter while the assign keeps the fast path.
        code = (
            "module m(input [3:0] d, output reg [3:0] q, output [3:0] y);\n"
            "assign y = d + 1;\n"
            "always @(*) q = (d == 4'd15) ? 4'bxxxx : d;\n"
            "endmodule\n"
        )
        design = elaborate(code)
        compiled = make_simulator(design, engine="compiled")
        assert compiled._lowered.fast_processes < compiled._lowered.total_processes
        interp = make_simulator(design, engine="interp")
        for d in (3, 15, 7):
            compiled.step({"d": d})
            interp.step({"d": d})
            assert dict(compiled.state.values) == dict(interp.state.values)

    def test_settle_limit_same_failure_both_engines(self):
        code = (
            "module m(input en, output reg q);\n"
            "initial q = 0;\n"
            "always @(*) if (en) q = ~q;\n"
            "endmodule\n"
        )
        design = elaborate(code)
        limits = ResourceLimits(max_settle_passes=16)

        def outcome(engine):
            try:
                sim = make_simulator(design, engine=engine, limits=limits)
                sim.step({"en": 1})
            except SimulationError as exc:
                return str(exc)
            return None

        interp_error = outcome("interp")
        compiled_error = outcome("compiled")
        assert interp_error is not None
        assert compiled_error == interp_error
        assert "16 passes" in interp_error


class TestSimLowerStageCache:
    def test_second_simulator_hits_cache(self):
        design = elaborate(COUNTER)
        assert design.digest is not None
        cache = StageCache()
        with scoped(stage_cache=cache):
            first = make_simulator(design, engine="compiled")
            second = make_simulator(design, engine="compiled")
        assert cache.stats.misses.get("sim-lower") == 1
        assert cache.stats.hits.get("sim-lower") == 1
        # The cached closure tables are shared, not re-lowered.
        assert second._lowered is first._lowered

    def test_no_digest_skips_cache(self):
        design = elaborate(COUNTER)
        design.digest = None
        cache = StageCache()
        with scoped(stage_cache=cache):
            make_simulator(design, engine="compiled")
        assert "sim-lower" not in cache.stats.hits
        assert "sim-lower" not in cache.stats.misses


class TestVerdictMemoization:
    def test_repeat_differential_is_a_hit(self):
        design = elaborate(COUNTER)
        cache = VerdictCache()
        with scoped(verdict_cache=cache):
            first = run_differential(design, design, samples=8)
            second = run_differential(design, design, samples=8)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert second is first  # the recorded verdict object itself

    def test_key_depends_on_engine_and_params(self):
        digest = ("a" * 64,)
        base = verdict_key("diff", digest, "compiled", None, 8, 0)
        assert base is not None
        assert verdict_key("diff", digest, "interp", None, 8, 0) != base
        assert verdict_key("diff", digest, "compiled", None, 16, 0) != base
        assert verdict_key(
            "diff", digest, "compiled",
            ResourceLimits(max_settle_passes=7), 8, 0,
        ) != base
        assert verdict_key(
            "diff", digest, "compiled", DEFAULT_LIMITS, 8, 0
        ) == base  # None limits normalize to the defaults

    def test_missing_digest_is_uncacheable(self):
        assert verdict_key("diff", ("a" * 64, None), "compiled", None) is None
        design = elaborate(COUNTER)
        design.digest = None
        cache = VerdictCache()
        with scoped(verdict_cache=cache):
            run_differential(design, design, samples=4)
            run_differential(design, design, samples=4)
        assert len(cache) == 0
        assert cache.stats.uncacheable == 2
        assert cache.stats.hits == 0

    def test_no_verdict_cache_disables_memoization(self):
        design = elaborate(COUNTER)
        cache = VerdictCache()
        with scoped(verdict_cache=cache), scoped(verdict_cache=None):
            run_differential(design, design, samples=4)
        assert cache.stats.lookups == 0

    def test_feedback_memoized_too(self):
        reference = elaborate(COUNTER)
        candidate = elaborate(COUNTER.replace("q + d", "q - d"))
        cache = VerdictCache()
        with scoped(verdict_cache=cache):
            first = make_sim_feedback(candidate, reference, samples=8)
            second = make_sim_feedback(candidate, reference, samples=8)
        assert cache.stats.hits == 1
        assert second is first
        assert not first.passed

    def test_engines_do_not_share_verdicts(self):
        design = elaborate(COUNTER)
        cache = VerdictCache()
        with scoped(verdict_cache=cache):
            run_differential(design, design, samples=8, engine="compiled")
            run_differential(design, design, samples=8, engine="interp")
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0
