"""Tests for the golden-model differential testbench."""

import hashlib
from pathlib import Path

from repro.diagnostics import compile_source
from repro.scope import scoped
from repro.sim import (
    check_interface,
    make_sim_feedback,
    run_differential,
    simulate_with_traces,
)

REF_COMB = (
    "module top_module(input [7:0] in, output [7:0] out);\n"
    "assign out = {in[0],in[1],in[2],in[3],in[4],in[5],in[6],in[7]};\nendmodule"
)

REF_SEQ = (
    "module top_module(input clk, input reset, output reg [3:0] q);\n"
    "always @(posedge clk) begin\n"
    "  if (reset) q <= 0; else q <= q + 1;\nend\nendmodule"
)


def elab(code: str):
    result = compile_source(code)
    assert result.ok, result.log
    return result.elaborated


class TestCombinationalDiff:
    def test_identical_passes(self):
        result = run_differential(elab(REF_COMB), elab(REF_COMB), samples=16)
        assert result.passed
        assert result.samples == 16
        assert result.mismatch_count == 0

    def test_equivalent_different_style_passes(self):
        candidate = (
            "module top_module(input [7:0] in, output reg [7:0] out);\n"
            "integer i;\n"
            "always @(*) for (i = 0; i < 8; i = i + 1) out[i] = in[7 - i];\n"
            "endmodule"
        )
        result = run_differential(elab(candidate), elab(REF_COMB), samples=16)
        assert result.passed

    def test_logic_bug_detected(self):
        candidate = (
            "module top_module(input [7:0] in, output [7:0] out);\n"
            "assign out = in;\nendmodule"  # forgot to reverse
        )
        result = run_differential(elab(candidate), elab(REF_COMB), samples=16)
        assert not result.passed
        assert result.mismatch_count > 0
        assert result.mismatches[0].output == "out"

    def test_deterministic_given_seed(self):
        a = run_differential(elab(REF_COMB), elab(REF_COMB), samples=8, seed=3)
        b = run_differential(elab(REF_COMB), elab(REF_COMB), samples=8, seed=3)
        assert a.samples == b.samples and a.mismatch_count == b.mismatch_count


#: Combinational, but with a reset input: the one shape on which the
#: feedback harness once held reset for two samples and skipped them.
REF_COMB_RESET = (
    "module top_module(input reset, input [3:0] a, output [3:0] y);\n"
    "assign y = reset ? 4'd0 : a;\nendmodule"
)


class TestOneSchedule:
    def test_combinational_reset_design_compares_same_samples(self):
        """Both harnesses drive reset deasserted throughout and compare
        every sample, so the feedback traces hold exactly the values the
        differential compared."""
        reference = elab(REF_COMB_RESET)
        candidate = elab(REF_COMB_RESET.replace(": a;", ": a + 4'd1;"))
        with scoped(verdict_cache=None):
            diff = run_differential(
                candidate, reference, samples=8, max_mismatches_recorded=8
            )
            cand_trace, ref_trace = simulate_with_traces(
                candidate, reference, samples=8
            )
            feedback = make_sim_feedback(candidate, reference, samples=8)
        assert diff.samples == diff.mismatch_count == 8
        assert feedback.samples == feedback.mismatch_count == 8
        assert [
            (m.sample, m.expected, m.actual) for m in diff.mismatches
        ] == [
            (i, str(ref_trace.value_at("y", i)), str(cand_trace.value_at("y", i)))
            for i in range(ref_trace.length)
        ]


class TestSequentialDiff:
    def test_identical_counter_passes(self):
        result = run_differential(elab(REF_SEQ), elab(REF_SEQ), samples=32)
        assert result.passed

    def test_wrong_step_detected(self):
        candidate = (
            "module top_module(input clk, input reset, output reg [3:0] q);\n"
            "always @(posedge clk) begin\n"
            "  if (reset) q <= 0; else q <= q + 2;\nend\nendmodule"
        )
        result = run_differential(elab(candidate), elab(REF_SEQ), samples=32)
        assert not result.passed

    def test_wrong_reset_polarity_detected(self):
        candidate = (
            "module top_module(input clk, input reset, output reg [3:0] q);\n"
            "always @(posedge clk) begin\n"
            "  if (!reset) q <= 0; else q <= q + 1;\nend\nendmodule"
        )
        result = run_differential(elab(candidate), elab(REF_SEQ), samples=32)
        assert not result.passed


class TestInterfaceChecks:
    def test_missing_port(self):
        candidate = "module top_module(input [7:0] in);\nendmodule"
        result = run_differential(elab(candidate), elab(REF_COMB))
        assert not result.passed
        assert "missing port" in result.failure_reason

    def test_wrong_width(self):
        candidate = (
            "module top_module(input [7:0] in, output [3:0] out);\n"
            "assign out = in[3:0];\nendmodule"
        )
        result = run_differential(elab(candidate), elab(REF_COMB))
        assert not result.passed
        assert "width" in result.failure_reason

    def test_extra_port(self):
        candidate = (
            "module top_module(input [7:0] in, input clk, output [7:0] out);\n"
            "assign out = in;\nendmodule"
        )
        result = run_differential(elab(candidate), elab(REF_COMB))
        assert not result.passed
        assert "extra ports" in result.failure_reason

    def test_check_interface_direct(self):
        assert check_interface(elab(REF_COMB), elab(REF_COMB)) == ""

    def test_simulation_error_becomes_failure_reason(self):
        candidate = (
            "module top_module(input [7:0] in, output reg [7:0] out);\n"
            "initial out = 0;\n"
            "always @(*) out = out + 1;\nendmodule"  # oscillates
        )
        result = run_differential(elab(candidate), elab(REF_COMB))
        assert not result.passed
        assert result.failure_reason


#: sha256 over the traced feedback, the differential verdict and the
#: trace-diff localization of every corpus reference and every template
#: edit of it, simulated against the reference.
SIMULATION_DIGEST = Path(__file__).parent / "data" / "simulation_digest.sha256"


def simulation_digest() -> str:
    """Run under one fresh verdict cache, so every reference after its
    first run is driven from the cache's recorded reference runs."""
    from repro.dataset.corpus import verilogeval
    from repro.diagnostics import Compiler
    from repro.repair import TraceDiffLocalizer
    from repro.repair.templates import TEMPLATES
    from repro.scope import scoped
    from repro.sim import VerdictCache, make_sim_feedback

    compiler = Compiler()
    hasher = hashlib.sha256()
    with scoped(verdict_cache=VerdictCache()):
        for problem in verilogeval():
            reference = compiler.compile(problem.reference).elaborated
            localizer = TraceDiffLocalizer(reference, compiler=compiler)
            sources = [problem.reference]
            for template in TEMPLATES:
                sources += [edit.code for edit in template(problem.reference)]
            for code in sources:
                compiled = compiler.compile(code)
                if reference is None or not compiled.ok:
                    hasher.update(b"-\x00")
                    continue
                candidate = compiled.elaborated
                feedback = make_sim_feedback(candidate, reference)
                suspects = [
                    (s.signal, s.line, s.score, s.reason)
                    for s in localizer.localize(code).suspects
                ]
                diff = run_differential(candidate, reference, samples=16)
                mismatches = [
                    (m.sample, m.output, m.expected, m.actual)
                    for m in diff.mismatches
                ]
                hasher.update(
                    f"{feedback.mismatch_count}|{feedback.text}|"
                    f"{diff.passed}|{diff.mismatch_count}|"
                    f"{diff.failure_reason}|{mismatches}|{suspects}".encode()
                )
                hasher.update(b"\x00")
    return hasher.hexdigest()


def test_frozen_simulation_digest():
    """Corpus simulation results are frozen: recorded reference runs and
    the localizer's reuse of the oracle's feedback must not move a byte.
    Regenerate the data file only for an intended simulation change, by
    writing ``simulation_digest()``."""
    assert simulation_digest() == SIMULATION_DIGEST.read_text().strip()
