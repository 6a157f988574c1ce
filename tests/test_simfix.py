"""Tests for the §5 simulation-error debugging extension: waveform
traces, feedback rendering, candidate logic edits, and the agent."""

from repro.agents import SimDebugAgent
from repro.dataset import verilogeval
from repro.dataset.mutate import force_behavior_change
from repro.diagnostics import compile_source
from repro.llm import SimulatedLogicDebugger, enumerate_logic_edits
from repro.sim import (
    Logic,
    Simulator,
    Trace,
    make_sim_feedback,
    render_comparison,
    simulate_with_traces,
)

CORPUS = verilogeval()
MUX = CORPUS.get("mux2to1")
COUNTER = CORPUS.get("counter4_reset")


def elab(code):
    result = compile_source(code)
    assert result.ok, result.log
    return result.elaborated


class TestTrace:
    def test_record_and_read(self):
        sim = Simulator(elab(MUX.reference))
        trace = Trace(signals=["out"])
        sim.step({"a": 1, "b": 0, "sel": 0})
        trace.record(sim)
        sim.step({"sel": 1})
        trace.record(sim)
        assert trace.length == 2
        assert trace.value_at("out", 0).bits == 1
        assert trace.value_at("out", 1).bits == 0

    def test_out_of_range_reads_none(self):
        trace = Trace(signals=["x"])
        assert trace.value_at("x", 0) is None
        assert trace.value_at("ghost", 0) is None

    def test_render_comparison_marks_mismatches(self):
        a = Trace(signals=["y"])
        b = Trace(signals=["y"])
        for v in (0, 1, 0):
            a.append("y", Logic.from_int(v, 1))
        for v in (0, 0, 0):
            b.append("y", Logic.from_int(v, 1))
        text = render_comparison(a, b)
        assert "1 mismatching sample(s)" in text
        assert "^" in text

    def test_x_rendering(self):
        trace = Trace(signals=["y"])
        trace.append("y", Logic.all_x(1))
        assert "actual      x" in render_comparison(trace, trace)


class TestSimFeedback:
    def test_matching_design_passes(self):
        feedback = make_sim_feedback(elab(MUX.reference), elab(MUX.reference))
        assert feedback.passed
        assert feedback.mismatch_count == 0

    def test_buggy_design_reports_mismatches(self):
        buggy = force_behavior_change(MUX.reference)
        feedback = make_sim_feedback(elab(buggy), elab(MUX.reference))
        assert not feedback.passed
        assert feedback.mismatch_count > 0
        assert "mismatching output sample" in feedback.text
        assert "expected" in feedback.text and "actual" in feedback.text

    def test_sequential_traces(self):
        cand, ref = simulate_with_traces(
            elab(COUNTER.reference), elab(COUNTER.reference), samples=8
        )
        assert cand.length == ref.length > 0


class TestEnumerateLogicEdits:
    def test_candidates_compile(self):
        for candidate in enumerate_logic_edits(MUX.reference):
            assert compile_source(candidate).ok

    def test_reversion_is_among_candidates(self):
        buggy = MUX.reference.replace("sel ? b : a", "sel ? a : b")
        assert MUX.reference in enumerate_logic_edits(buggy)

    def test_no_duplicates(self):
        edits = enumerate_logic_edits(COUNTER.reference)
        assert len(edits) == len(set(edits))

    def test_empty_for_trivial_code(self):
        assert enumerate_logic_edits("module m; endmodule") == []


class TestSimDebugAgent:
    def test_fixes_simple_polarity_bug(self):
        buggy = MUX.reference.replace("sel ? b : a", "sel ? a : b")
        # Capability is stochastic; try a few seeds.
        fixed = False
        for seed in range(6):
            agent = SimDebugAgent(model=SimulatedLogicDebugger(seed=seed))
            result = agent.run(buggy, MUX.reference, difficulty="easy")
            if result.success:
                fixed = True
                final = compile_source(result.final_code)
                assert final.ok
                break
        assert fixed

    def test_already_correct_passes_immediately(self):
        agent = SimDebugAgent()
        result = agent.run(MUX.reference, MUX.reference, difficulty="easy")
        assert result.success and result.iterations == 0

    def test_syntax_broken_input_fails_cleanly(self):
        agent = SimDebugAgent()
        result = agent.run("module m(input a;\nendmodule", MUX.reference)
        assert not result.success

    def test_easy_beats_hard_at_scale(self):
        easy_wins = easy_n = hard_wins = hard_n = 0
        for problem in CORPUS:
            buggy = force_behavior_change(problem.reference)
            if buggy is None:
                continue
            agent = SimDebugAgent(sim_samples=12, max_iterations=6)
            result = agent.run(buggy, problem.reference, difficulty=problem.difficulty)
            if problem.difficulty == "easy":
                easy_wins += result.success
                easy_n += 1
            else:
                hard_wins += result.success
                hard_n += 1
        assert easy_n and hard_n
        assert easy_wins / easy_n > hard_wins / hard_n

    def test_incapable_session_declares_done(self):
        model = SimulatedLogicDebugger()
        session = model.start(MUX.reference, difficulty="hard")
        session.capable = False
        step = session.step(MUX.reference, "feedback")
        assert step.declared_done
        assert step.code == MUX.reference
