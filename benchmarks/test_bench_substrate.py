"""Substrate microbenchmarks: compiler and simulator throughput.

Unlike the table/figure benches (pedantic single runs of whole
experiments), these measure the hot paths the experiments are built on,
so performance regressions in the front-end or the simulation kernel
show up directly.
"""

from conftest import report

from repro.dataset import verilogeval
from repro.diagnostics import compile_source
from repro.eval import render_table
from repro.sim import SimLimits, Simulator, run_differential

CORPUS = verilogeval()
COMB = CORPUS.get("vector_reverse32")
SEQ = CORPUS.get("counter_load")
FSM = CORPUS.get("fsm_seq101")


def _report_compile(benchmark, what: str) -> None:
    """Record one cold compile's timing (skipped under
    ``--benchmark-disable``, which leaves no stats)."""
    if benchmark.stats is None:
        return
    stats = benchmark.stats.stats
    report(
        f"Substrate: compile throughput, {what}",
        render_table(
            ["rounds", "mean (ms)", "median (ms)", "min (ms)", "compiles/s"],
            [[stats.rounds, f"{stats.mean * 1e3:.3f}", f"{stats.median * 1e3:.3f}",
              f"{stats.min * 1e3:.3f}", f"{1 / stats.mean:.0f}"]],
        ),
    )


def test_compile_throughput_comb(benchmark):
    result = benchmark(compile_source, COMB.reference)
    assert result.ok
    _report_compile(benchmark, "combinational (vector_reverse32)")


def test_compile_throughput_fsm(benchmark):
    result = benchmark(compile_source, FSM.reference)
    assert result.ok
    _report_compile(benchmark, "FSM (fsm_seq101)")


def test_compile_error_path(benchmark):
    broken = SEQ.reference.replace("assign", "asign").replace(";", "", 1)

    def run():
        return compile_source(broken, flavor="quartus")

    result = benchmark(run)
    assert not result.ok
    _report_compile(benchmark, "error path (broken counter_load, quartus)")


def test_simulator_construction(benchmark):
    elab = compile_source(SEQ.reference).elaborated

    sim = benchmark(Simulator, elab)
    assert sim.top.name == "top_module"


def test_sequential_cycles_per_second(benchmark):
    elab = compile_source(SEQ.reference).elaborated
    # One simulator lives across every calibration/measurement round, so
    # the default lifetime cycle budget (sized for one testbench run)
    # needs raising; the per-cycle budgets still apply.
    sim = Simulator(elab, sim_limits=SimLimits(max_cycles=100_000_000))
    sim.step({"clk": 0, "reset": 1, "load": 0, "d": 0})
    sim.step({"clk": 1})
    sim.step({"reset": 0})

    def ten_cycles():
        for _ in range(10):
            sim.step({"clk": 0})
            sim.step({"clk": 1})

    benchmark(ten_cycles)
    assert sim.get("q").is_fully_known


def test_differential_testbench(benchmark):
    elab = compile_source(COMB.reference).elaborated

    def run():
        return run_differential(elab, elab, samples=16)

    result = benchmark(run)
    assert result.passed
