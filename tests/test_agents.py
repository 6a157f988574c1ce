"""Tests for the ReAct agent and the One-shot baseline."""

from repro.agents import OneShotAgent, ReActAgent, Transcript
from repro.diagnostics import Compiler, compile_source
from repro.llm import SimulatedLLM
from repro.rag import ExactTagRetriever, build_default_database

FIG5 = (
    "module top_module(input [99:0] in, output reg [99:0] out);\n"
    "always @(posedge clk) begin\n  out <= in;\nend\nendmodule\n"
)

GOOD = "module m(input a, output y);\nassign y = a;\nendmodule\n"

DB = build_default_database()


def make_react(compiler="quartus", rag=True, seed=0, max_iterations=10):
    return ReActAgent(
        model=SimulatedLLM(seed=seed),
        compiler=Compiler(flavor=compiler),
        retriever=ExactTagRetriever(DB, compiler) if rag else None,
        max_iterations=max_iterations,
    )


class TestReActAgent:
    def test_fixes_fig5(self):
        result = make_react().run(FIG5)
        assert result.success
        assert compile_source(result.final_code).ok
        assert result.iterations >= 1

    def test_already_correct_code_short_circuits(self):
        result = make_react().run(GOOD)
        assert result.success
        assert result.iterations == 0
        assert result.transcript.turns[0].action == "Finish"

    def test_transcript_structure(self):
        result = make_react().run(FIG5)
        actions = [t.action for t in result.transcript.turns]
        assert "Compiler" in actions
        assert actions[-1] == "Finish"
        # RAG action appears when a retriever is attached.
        assert "RAG" in actions

    def test_no_rag_action_without_retriever(self):
        result = make_react(rag=False).run(FIG5)
        actions = [t.action for t in result.transcript.turns]
        assert "RAG" not in actions

    def test_respects_iteration_cap(self):
        # An unfixable mess: cap must bound the loop.
        junk = "module m(input a;\nassign = ;\nbegin begin begin\nendmodule"
        agent = make_react(max_iterations=3)
        result = agent.run(junk)
        assert result.iterations <= 3

    def test_rule_fix_applied_first(self):
        raw = f"```verilog\n{GOOD}```"
        result = make_react().run(raw)
        assert result.success
        assert result.iterations == 0  # markdown stripped, code compiled

    def test_transcript_render(self):
        result = make_react().run(FIG5)
        text = result.transcript.render()
        assert "Thought 1:" in text
        assert "Action 1:" in text
        assert "Observation 1:" in text


class TestOneShotAgent:
    def make(self, compiler="quartus", rag=True, seed=0):
        return OneShotAgent(
            model=SimulatedLLM(seed=seed),
            compiler=Compiler(flavor=compiler),
            retriever=ExactTagRetriever(DB, compiler) if rag else None,
        )

    def test_single_iteration_only(self):
        result = self.make().run(FIG5)
        assert result.iterations in (0, 1)

    def test_can_fix_simple_error(self):
        fixed_any = any(
            self.make(seed=s).run(FIG5).success for s in range(5)
        )
        assert fixed_any

    def test_clean_code_passes_through(self):
        result = self.make().run(GOOD)
        assert result.success and result.iterations == 0

    def test_react_beats_oneshot_on_average(self):
        from repro.dataset import build_syntax_dataset, verilogeval

        ds = build_syntax_dataset(
            verilogeval(), samples_per_problem=4, seed=1, target_size=40
        )
        oneshot_wins = react_wins = 0
        for entry in ds:
            oneshot_wins += self.make(compiler="iverilog", rag=False).run(entry.code).success
            react_wins += make_react(compiler="iverilog", rag=False).run(entry.code).success
        assert react_wins > oneshot_wins


class TestPrompts:
    def test_transcript_clipping(self):
        transcript = Transcript()
        transcript.add("x" * 1000, "Compiler", "y" * 1000, "z")
        rendered = transcript.render(max_chars_per_field=50)
        assert "..." in rendered
        assert len(rendered) < 400
