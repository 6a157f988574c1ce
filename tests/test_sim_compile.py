"""Compiled simulation engine: lowering, two-state speculation, engine
selection, the sim-lower memo and verdict memoization."""

import pytest

from repro.diagnostics import compile_source
from repro.errors import SimLimitExceeded, SimulationError
from repro.scope import current, scoped
from repro.sim import (
    DEFAULT_SIM_ENGINE,
    CompiledSimulator,
    Logic,
    SimLimits,
    Simulator,
    VerdictCache,
    make_sim_feedback,
    make_simulator,
    run_differential,
    verdict_key,
)
from repro.verilog.limits import DEFAULT_LIMITS, ResourceLimits


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

    def test_case_labels_match_interpreter(self):
        # Constant labels against a known subject: duplicate labels
        # (first wins), a localparam, labels wider than the subject and
        # negative labels, on unsigned and signed subjects.
        code = (
            "module m(input [2:0] u, input signed [2:0] v,\n"
            "         output reg [3:0] a, output reg [3:0] b);\n"
            "localparam S = 3'd5;\n"
            "always @(*) case (u)\n"
            "  3'd1, S: a = 1;\n"
            "  S, 3'd1: a = 2;\n"
            "  4'd9: a = 3;\n"
            "  -1: a = 4;\n"
            "  3'd7: a = 5;\n"
            "  default: a = 0;\n"
            "endcase\n"
            "always @(*) case (v)\n"
            "  3'sd1: b = 1;\n"
            "  -3'sd1: b = 2;\n"
            "  default: b = 0;\n"
            "endcase\n"
            "always @(*) case (v)\n"
            "  -4'sd1: a = 6;\n"
            "  default: ;\n"
            "endcase\n"
            "endmodule\n"
        )
        stimuli = [{"u": n, "v": (n * 3) % 8} for n in range(8)]
        _, compiled = run_both(code, stimuli)
        assert compiled._lowered.fast_processes == compiled._lowered.total_processes

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

    def test_mixed_signedness_ternary_lowers_where_unobserved(self):
        # ``0`` is a signed literal: a whole-net write never looks at the
        # result's signedness, so these lower; under ``>>>`` it is
        # observed and the assign stays interpreted.
        code = (
            "module m(input clk, input reset, input s, input [3:0] d,\n"
            "         output reg [3:0] q, output [7:0] y, output [7:0] z,\n"
            "         output [7:0] w);\n"
            "always @(posedge clk) q <= reset ? 0 : q + d;\n"
            "parameter [3:0] P = 4'd9;\n"
            "assign y = s ? $signed(d) : d;\n"
            "assign z = (s ? $signed(d) : d) >>> 1;\n"
            "assign w = s ? P : $signed(d);  // 32-bit P: unequal widths\n"
            "endmodule\n"
        )
        stimuli = []
        for c in range(12):
            stimuli.append({"clk": 0, "reset": int(c < 2), "s": c & 1,
                            "d": (c * 5) % 16})
            stimuli.append({"clk": 1})
        stimuli.append({"clk": 0, "s": 1, "d": 10})
        interp, compiled = run_both(code, stimuli)
        lowered = compiled._lowered
        assert lowered.seq[0] is not None
        assert lowered.assigns[0] is not None
        assert lowered.assigns[1] is None
        assert lowered.assigns[2] is not None
        assert compiled.get("y").bits == 0xFA  # s=1, d=10: sign-extended
        stimuli = [{"s": 0, "d": d} for d in (10, 3)] + [{"s": 1, "d": 10}]
        run_both(code, stimuli)

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
    def test_second_simulator_hits_cache(self, monkeypatch):
        import repro.sim.compile as compile_mod

        calls = []
        real = compile_mod.lower_design
        monkeypatch.setattr(
            compile_mod, "lower_design", lambda sim: calls.append(sim) or real(sim)
        )
        design = elaborate(COUNTER)
        assert design.digest is not None
        first = make_simulator(design, engine="compiled")
        second = make_simulator(design, engine="compiled")
        assert len(calls) == 1
        # The memoized closure tables are shared, not re-lowered.
        assert second._lowered is first._lowered
        assert design.lowered == {first.top.name: first._lowered}

    def test_no_digest_skips_cache(self, monkeypatch):
        import repro.sim.compile as compile_mod

        calls = []
        real = compile_mod.lower_design
        monkeypatch.setattr(
            compile_mod, "lower_design", lambda sim: calls.append(sim) or real(sim)
        )
        design = elaborate(COUNTER)
        design.digest = None
        first = make_simulator(design, engine="compiled")
        second = make_simulator(design, engine="compiled")
        assert len(calls) == 2
        assert second._lowered is not first._lowered
        assert design.lowered == {}


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


class TestSlotStore:
    """The compiled engine's slot store: X/Z nets bail partial writes,
    the one write log's fixpoint check, and the quiescent second settle."""

    @pytest.mark.parametrize("write", [
        "b[0] = a[0];",
        "b[3:0] = a[3:0];",
        "b[i +: 2] = a[1:0];",
    ])
    def test_partial_write_into_x_net_bails(self, write):
        # b's other bits are never driven, so b holds X for the whole
        # run: the lowered writer must bail to the interpreter's merge.
        code = (
            "module m(input [7:0] a, input [2:0] i, output reg [7:0] b);\n"
            f"always @(*) {write}\n"
            "endmodule\n"
        )
        design = elaborate(code)
        interp = make_simulator(design, engine="interp")
        compiled = make_simulator(design, engine="compiled")
        assert compiled._lowered.fast_processes == compiled._lowered.total_processes
        for n, stimulus in enumerate([{"a": 0x5A, "i": 2}, {"a": 0xC3, "i": 4}]):
            before = compiled.demotions
            interp.step(dict(stimulus))
            compiled.step(dict(stimulus))
            if n:  # inputs known since the last step: only b is X
                assert compiled.demotions > before
            assert dict(compiled.state.values) == dict(interp.state.values)
        assert compiled.get("b").has_x

    def _events_used(self, sim):
        tracker = sim.sim_tracker
        return tracker.limits.max_events_per_cycle - tracker.events_left

    def test_a_to_b_to_a_is_no_change(self):
        # y goes A -> 0 -> A on every pass: settled after the pass that
        # makes y first take A, on both engines, X included.
        code = (
            "module m(input [7:0] a, output reg [7:0] y, output [7:0] z);\n"
            "always @(*) begin y = 8'd0; y = a; end\n"
            "assign z = y + 1;\n"
            "endmodule\n"
        )
        design = elaborate(code)
        interp = make_simulator(design, engine="interp")
        compiled = make_simulator(design, engine="compiled")
        ops = len(compiled._comb_ops)
        previous = None
        for a in (3, 3, 200, Logic.all_x(8), Logic.all_x(8), 7, 9):
            runs = compiled.fast_runs
            interp.step({"a": a})
            compiled.step({"a": a})
            assert self._events_used(compiled) == self._events_used(interp)
            assert dict(compiled.state.values) == dict(interp.state.values)
            if isinstance(a, int) and isinstance(previous, int):
                # Known nets, so every pass ran fast: the first settle
                # took the interpreter's passes, less the second settle.
                assert compiled.fast_runs - runs == self._events_used(interp) - ops
            previous = a

    def test_x_net_taking_another_x_value_is_a_change(self):
        # With a all-X, y goes from all-X to 8'b0000xxxx: both boxed, so
        # the fixpoint check must compare the X values themselves, or z
        # (evaluated first) keeps its stale all-X.
        code = (
            "module m(input [7:0] a, output [7:0] y, output [7:0] z);\n"
            "assign z = ~y;\n"
            "assign y = a & 8'h0F;\n"
            "endmodule\n"
        )
        design = elaborate(code)
        interp = make_simulator(design, engine="interp")
        compiled = make_simulator(design, engine="compiled")
        # Construction settles with a all-X: pass 1 moves y, pass 2 z.
        assert str(compiled.get("z")) == "8'b1111xxxx"
        assert dict(compiled.state.values) == dict(interp.state.values)
        assert self._events_used(compiled) == self._events_used(interp)

    def test_write_to_undeclared_name_gets_a_slot(self):
        # An erroneous design still simulates (the fuzzer drives such
        # designs): the interpreter's writes to undeclared names land in
        # slots added on first write, compared like any other net.
        code = (
            "module m(input clk, input a, output o);\n"
            "always @(*) z = a;\n"
            "always @(posedge clk) q <= z;\n"
            "assign o = a;\n"
            "endmodule\n"
        )
        design = compile_source(code).elaborated
        interp = make_simulator(design, engine="interp")
        compiled = make_simulator(design, engine="compiled")
        for stimulus in ({"clk": 0, "a": 1}, {"clk": 1}, {"clk": 0, "a": 0}):
            interp.step(dict(stimulus))
            compiled.step(dict(stimulus))
            assert dict(compiled.state.values) == dict(interp.state.values)
        assert {"z", "q"} <= set(compiled.state.values)

    def test_quiescent_skip_charges_like_the_interpreter(self):
        code = (
            "module m(input [7:0] a, input [7:0] b, output [7:0] y);\n"
            "wire [7:0] t = a + b;\n"
            "assign y = t ^ a;\n"
            "endmodule\n"
        )
        design = elaborate(code)
        probe = make_simulator(design, engine="interp")
        probe.step({"a": 1, "b": 2})
        used = self._events_used(probe)
        # The step's last charge is the second settle's single pass, so
        # a budget of used - 1 runs out exactly there.
        ops = len(probe._assigns)

        def outcome(engine, budget):
            sim = make_simulator(
                design, engine=engine,
                sim_limits=SimLimits(max_events_per_cycle=budget),
            )
            try:
                sim.step({"a": 1, "b": 2})
            except SimLimitExceeded as exc:
                return (str(exc), exc.phase)
            assert engine == "interp" or sim._quiet  # the skip was taken
            return None

        for budget in (used, used - 1, used - ops, used - ops - 1):
            assert outcome("compiled", budget) == outcome("interp", budget)
        assert outcome("compiled", used) is None
        assert outcome("compiled", used - ops) is not None
        assert outcome("compiled", used - 1)[1] == "cycle"

    def test_comb_memory_write_is_never_quiescent(self):
        # The fixpoint check compares nets only, so a comb pass can write
        # a memory word while every net stays put; the interpreter's
        # second settle then propagates the word to q.  Skipping that
        # settle would leave q one step stale.
        code = (
            "module m(input [7:0] d, output [7:0] q);\n"
            "reg [7:0] mem [0:0];\n"
            "always @(*) mem[0] = d;\n"
            "assign q = mem[0];\n"
            "endmodule\n"
        )
        design = elaborate(code)
        interp = make_simulator(design, engine="interp")
        compiled = make_simulator(design, engine="compiled")
        assert compiled._lowered.fast_processes == compiled._lowered.total_processes
        for d in (5, 7, 7, 200, 3):
            interp.step({"d": d})
            compiled.step({"d": d})
            assert dict(compiled.state.values) == dict(interp.state.values)
            assert compiled.state.arrays == interp.state.arrays
            assert self._events_used(compiled) == self._events_used(interp)
            assert compiled.get("q").bits == d
        assert compiled.fast_runs > 0

    def test_combinational_step_runs_one_pass_when_quiescent(self):
        code = (  # assigns in dataflow order: one pass propagates
            "module m(input [7:0] a, input [7:0] b, output [7:0] y);\n"
            "wire [7:0] t;\n"
            "assign t = a + b;\n"
            "assign y = t ^ a;\n"
            "endmodule\n"
        )
        sim = make_simulator(elaborate(code), engine="compiled")
        ops = len(sim._comb_ops)
        sim.step({"a": 5, "b": 9})
        for _ in range(3):
            runs = sim.fast_runs
            sim.step({"a": 5, "b": 9})
            assert sim.fast_runs - runs == ops  # not 2 * ops
        runs = sim.fast_runs
        sim.step({"a": 6, "b": 9})
        assert sim.fast_runs - runs == 2 * ops  # not 3 * ops
        assert sim.get("y").bits == ((6 + 9) & 0xFF) ^ 6
