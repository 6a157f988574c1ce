"""Runtime-subsystem benchmarks: content-addressed compile cache,
simulation engines and parallel experiment executor.

Measures the speedups the runtime provides -- cold vs warm compile
cache, compiled vs interpreting simulation (simulated cycles/sec), cold
vs warm verdict memoization, and serial vs parallel experiment fan-out
-- and asserts the determinism contracts (parallel results
bit-identical to serial, compiled simulation bit-identical to the
interpreter) plus the
zero-redundant-reference-compilation property on the Table 2 path.

Machine-readable output: run via ``scripts/bench.sh`` (or pass
``--benchmark-json BENCH_runtime.json``) to track the perf trajectory
across PRs; the ``sim_`` benches are additionally emitted as
``BENCH_sim.json``.
"""

import os
import random
import time
from collections import Counter

from conftest import report

from repro.core.fixer import RTLFixer
from repro.dataset import ProblemSet, build_syntax_dataset, verilogeval
from repro.diagnostics import compile_source
from repro.eval import render_table, run_table2
from repro.eval.runner import run_fix_experiment
from repro.runtime import (
    CompileCache,
    Journal,
    RunContext,
    RunState,
    compile_key,
)
from repro.scope import scoped
from repro.sim import (
    UNTRACKED,
    SimLimits,
    VerdictCache,
    make_simulator,
    run_differential,
)

CORPUS = verilogeval()
REFERENCES = [problem.reference for problem in CORPUS]


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_compile_cache_cold_vs_warm(benchmark):
    """Warm cache lookups must beat full front-end recompilation by a
    wide margin on the corpus working set."""
    with scoped(compile_cache=None):
        _, cold = _timed(lambda: [compile_source(src) for src in REFERENCES])

    cache = CompileCache()
    with scoped(compile_cache=cache):
        for src in REFERENCES:  # fill
            cache.compile(src)

        def warm():
            for src in REFERENCES:
                cache.compile(src)

        benchmark.pedantic(warm, rounds=3, iterations=1)
        _, warm_time = _timed(warm)

    assert cache.stats.hits >= 3 * len(REFERENCES)
    assert cache.stats.misses == len(REFERENCES)
    speedup = cold / warm_time if warm_time else float("inf")
    benchmark.extra_info["cold_seconds"] = round(cold, 4)
    benchmark.extra_info["warm_seconds"] = round(warm_time, 4)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    report(
        "Runtime: compile cache cold vs warm",
        render_table(
            ["sources", "cold (s)", "warm (s)", "speedup"],
            [[len(REFERENCES), f"{cold:.3f}", f"{warm_time:.4f}", f"{speedup:.0f}x"]],
        ),
    )
    # The headline wall-clock win: content-addressed hits skip the whole
    # lexer -> preprocessor -> parser -> elaborator pipeline.
    assert warm_time < cold / 5, f"warm cache only {speedup:.1f}x faster"


def test_fix_experiment_serial_vs_parallel(benchmark, profile):
    """Fanning trials across workers must not change a single bit of the
    result; on multi-core hosts it must also be faster."""
    dataset = build_syntax_dataset(
        CORPUS, samples_per_problem=4, seed=0, target_size=24
    )
    fixer = RTLFixer()
    repeats = max(2, profile.repeats)
    jobs = min(4, os.cpu_count() or 1) or 1

    with scoped(compile_cache=CompileCache()):
        serial, t_serial = _timed(
            lambda: run_fix_experiment(dataset, fixer, repeats=repeats)
        )
    with scoped(compile_cache=CompileCache()):
        parallel, t_parallel = _timed(
            lambda: benchmark.pedantic(
                run_fix_experiment,
                args=(dataset, fixer),
                kwargs={"repeats": repeats, "jobs": jobs},
                rounds=1, iterations=1,
            )
        )

    assert parallel.fixed_counts == serial.fixed_counts
    assert parallel.iterations == serial.iterations
    speedup = t_serial / t_parallel if t_parallel else float("inf")
    benchmark.extra_info["serial_seconds"] = round(t_serial, 3)
    benchmark.extra_info["parallel_seconds"] = round(t_parallel, 3)
    benchmark.extra_info["jobs"] = jobs
    benchmark.extra_info["speedup"] = round(speedup, 2)
    report(
        "Runtime: fix experiment serial vs parallel (bit-identical results)",
        render_table(
            ["trials", "jobs", "serial (s)", "parallel (s)", "speedup"],
            [[len(dataset) * repeats, jobs, f"{t_serial:.2f}",
              f"{t_parallel:.2f}", f"{speedup:.2f}x"]],
        ),
    )
    if (os.cpu_count() or 1) >= 4:
        assert t_parallel < t_serial * 0.9, (
            f"expected parallel speedup on {os.cpu_count()} CPUs, "
            f"got {speedup:.2f}x"
        )


def test_table2_reference_compilation_avoided(benchmark, monkeypatch):
    """Table 2 must elaborate each golden reference exactly once, and a
    warm re-run must perform zero redundant compilations."""
    import repro.diagnostics.compiler as compiler_mod

    picked = [
        CORPUS.get(pid)
        for pid in ("mux2to1", "counter4_reset", "fsm_seq101", "popcount8")
    ]
    problems = ProblemSet(name="bench-runtime", problems=picked)
    cold_compiles = Counter()
    compile_cold = compiler_mod.compile_source

    def spy_cold(code, flavor="iverilog", **kwargs):
        cold_compiles[compile_key(code, **kwargs)] += 1
        return compile_cold(code, flavor=flavor, **kwargs)

    monkeypatch.setattr(compiler_mod, "compile_source", spy_cold)
    cache = CompileCache()
    with scoped(compile_cache=cache):
        _, cold = _timed(
            lambda: benchmark.pedantic(
                run_table2,
                args=(problems,),
                kwargs={"n_samples": 6, "sim_samples": 12},
                rounds=1, iterations=1,
            )
        )
        for problem in problems:
            assert cold_compiles[compile_key(problem.reference)] == 1, problem.id
        cold_misses = cache.stats.misses
        _, warm = _timed(lambda: run_table2(problems, n_samples=6, sim_samples=12))
        assert cache.stats.misses == cold_misses, "warm re-run recompiled sources"
        assert cache.stats.hits > cold_misses, "warm re-run did not use the cache"

    stats = cache.stats.as_dict()
    benchmark.extra_info.update(stats)
    benchmark.extra_info["cold_seconds"] = round(cold, 3)
    benchmark.extra_info["warm_seconds"] = round(warm, 3)
    report(
        "Runtime: Table 2 compile-cache effectiveness",
        render_table(
            ["cold (s)", "warm (s)", "hits", "misses", "hit rate"],
            [[f"{cold:.2f}", f"{warm:.2f}", stats["hits"], stats["misses"],
              f"{stats['hit_rate']:.1%}"]],
        ),
    )
    # Wall-clock here is dominated by simulation, so the compile saving is
    # a few percent -- reported above, asserted robustly (with a 5x floor)
    # in test_compile_cache_cold_vs_warm instead of flakily here.


def test_journal_overhead_per_trial(benchmark, tmp_path):
    """Durability must stay cheap: the fsync'd journal append is the only
    per-trial cost a ``--run-dir`` run adds, measured both micro
    (append-only) and end-to-end (durable vs plain run_fix_experiment)."""
    # micro: cost of one durable (fsync'd) append of a realistic record
    record = {
        "key": "0" * 64, "stage": "table1/react/quartus/rag",
        "skipped": False, "result": {"__tuple__": [True, 3]},
    }
    appends = 200
    journal = Journal(str(tmp_path / "micro.jsonl"))

    def append_many():
        for _ in range(appends):
            journal.append(record)

    benchmark.pedantic(append_many, rounds=3, iterations=1)
    _, t_appends = _timed(append_many)
    journal.close()
    per_append_ms = t_appends / appends * 1000

    # end-to-end: identical experiment with and without a run directory
    dataset = build_syntax_dataset(
        CORPUS, samples_per_problem=2, seed=0, target_size=12
    )
    with scoped(compile_cache=CompileCache()):
        plain, t_plain = _timed(
            lambda: run_fix_experiment(dataset, RTLFixer(), repeats=2)
        )

    def durable_run():
        with RunState(str(tmp_path / "run")) as state:
            return run_fix_experiment(
                dataset, RTLFixer(), repeats=2, ctx=RunContext(state=state)
            )

    with scoped(compile_cache=CompileCache()):
        durable, t_durable = _timed(durable_run)
    assert durable.fixed_counts == plain.fixed_counts  # durability is free
    trials = len(dataset) * 2
    per_trial_ms = max(0.0, t_durable - t_plain) / trials * 1000

    benchmark.extra_info["fsync_append_ms"] = round(per_append_ms, 3)
    benchmark.extra_info["plain_seconds"] = round(t_plain, 3)
    benchmark.extra_info["durable_seconds"] = round(t_durable, 3)
    benchmark.extra_info["journal_overhead_ms_per_trial"] = round(per_trial_ms, 3)
    report(
        "Runtime: journal overhead per trial (durable vs plain run)",
        render_table(
            ["trials", "plain (s)", "durable (s)",
             "overhead/trial (ms)", "fsync append (ms)"],
            [[trials, f"{t_plain:.2f}", f"{t_durable:.2f}",
              f"{per_trial_ms:.2f}", f"{per_append_ms:.3f}"]],
        ),
    )
    # An fsync'd append must stay far below the cost of one trial (tens
    # of ms of fix work): 25ms is generous even for slow CI disks.
    assert per_append_ms < 25, f"journal append too slow: {per_append_ms:.1f}ms"


# A register pipeline with comb glue: the shape the fast path is built
# for (edge-sensitive NBAs over known two-state values after reset).
_SIM_DUT = """
module bench_dut(
    input clk, input reset, input [7:0] a, input [7:0] b,
    output [7:0] y, output reg [7:0] acc
);
  reg [7:0] s0, s1, s2, s3;
  wire [7:0] m = (a & b) ^ (a >> 1);
  always @(posedge clk) begin
    if (reset) begin
      s0 <= 0; s1 <= 0; s2 <= 0; s3 <= 0; acc <= 0;
    end else begin
      s0 <= a + b;
      s1 <= s0 ^ m;
      s2 <= s1 + {4'h0, s0[7:4]};
      s3 <= s2 < s1 ? s2 + 8'd3 : s2 - s1;
      acc <= acc + s3;
    end
  end
  assign y = s3 ^ acc;
endmodule
"""

_SIM_CYCLES = 2000


def _drive_cycles(sim, cycles):
    """Reset then clock ``cycles`` cycles of seeded random stimulus."""
    rng = random.Random(7)
    for cycle in range(cycles):
        sim.step({
            "clk": 0,
            "reset": 1 if cycle < 2 else 0,
            "a": rng.getrandbits(8),
            "b": rng.getrandbits(8),
        })
        sim.step({"clk": 1})
    return sim


def test_sim_compiled_vs_interp_throughput(benchmark):
    """The closure-lowered engine must sustain >= 5x the interpreter's
    simulated-cycles/sec on a fast-path-friendly register pipeline,
    bit-identically (the headline tentpole number in BENCH_sim.json)."""
    design = compile_source(_SIM_DUT).elaborated
    assert design is not None

    interp_sim, t_interp = _timed(
        lambda: _drive_cycles(make_simulator(design, engine="interp"),
                              _SIM_CYCLES)
    )

    def compiled_run():
        return _drive_cycles(
            make_simulator(design, engine="compiled"), _SIM_CYCLES
        )

    benchmark.pedantic(compiled_run, rounds=3, iterations=1)
    compiled_sim, t_compiled = _timed(compiled_run)

    # Bit-identical end state (X/Z flags included), and the fast path --
    # not the interpreter fallback -- did the work.
    assert dict(compiled_sim.state.values) == dict(interp_sim.state.values)
    assert compiled_sim.fast_runs > 0
    assert compiled_sim.demotions < compiled_sim.fast_runs / 100

    speedup = t_interp / t_compiled if t_compiled else float("inf")
    interp_rate = _SIM_CYCLES / t_interp if t_interp else 0.0
    compiled_rate = _SIM_CYCLES / t_compiled if t_compiled else 0.0
    benchmark.extra_info["interp_seconds"] = round(t_interp, 4)
    benchmark.extra_info["compiled_seconds"] = round(t_compiled, 4)
    benchmark.extra_info["interp_cycles_per_sec"] = round(interp_rate)
    benchmark.extra_info["compiled_cycles_per_sec"] = round(compiled_rate)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    benchmark.extra_info["fast_runs"] = compiled_sim.fast_runs
    benchmark.extra_info["demotions"] = compiled_sim.demotions
    report(
        "Sim: compiled engine vs interpreter (register pipeline)",
        render_table(
            ["cycles", "interp (s)", "compiled (s)",
             "interp cyc/s", "compiled cyc/s", "speedup"],
            [[_SIM_CYCLES, f"{t_interp:.3f}", f"{t_compiled:.3f}",
              f"{interp_rate:,.0f}", f"{compiled_rate:,.0f}",
              f"{speedup:.1f}x"]],
        ),
    )
    # The tentpole acceptance floor (target is 10x; 5x is the hard gate).
    assert speedup >= 5, f"compiled engine only {speedup:.1f}x faster"


def test_sim_sandbox_overhead(benchmark):
    """The sandbox budget checks must cost < 5% on a clean corpus.

    Measures both engines driving the register-pipeline DUT and a set of
    clean corpus differentials with the default budgets (tracked) vs the
    ``UNTRACKED`` sentinel (no tracker built at all), best-of-N to keep
    timing noise out of the gate (emitted as BENCH_sandbox.json)."""
    design = compile_source(_SIM_DUT).elaborated
    assert design is not None
    problems = [
        CORPUS.get(pid)
        for pid in ("mux2to1", "counter4_reset", "fsm_seq101", "popcount8")
    ]
    pairs = [compile_source(p.reference).elaborated for p in problems]
    assert all(d is not None for d in pairs)

    def overhead_pct(tracked_fn, untracked_fn, rounds):
        """Median of per-round tracked/untracked ratios, back-to-back
        pairs after a warmup round, alternating which variant runs
        first.  A single min-of-N split across two separately-timed
        batches drifts with CPU ramp-up and scheduler noise by far more
        than the ~2% effect being measured; paired ratios cancel the
        drift, alternation cancels within-pair ordering bias, and the
        median ignores spikes."""
        tracked_fn()
        untracked_fn()
        ratios = []
        t_best = u_best = float("inf")
        for index in range(rounds):
            if index % 2 == 0:
                t = _timed(tracked_fn)[1]
                u = _timed(untracked_fn)[1]
            else:
                u = _timed(untracked_fn)[1]
                t = _timed(tracked_fn)[1]
            t_best = min(t_best, t)
            u_best = min(u_best, u)
            ratios.append(t / u if u else 1.0)
        ratios.sort()
        return 100.0 * (ratios[len(ratios) // 2] - 1.0), t_best, u_best

    # Long-enough drives that the ~ms scheduler noise on a small CI box
    # stays well under the effect size; the tracked variant gets a
    # raised cycle ceiling (the per-check cost being measured does not
    # depend on the ceiling's value).
    drive_cycles = {"interp": _SIM_CYCLES, "compiled": 4 * _SIM_CYCLES}
    drive_limits = SimLimits(max_cycles=10 * _SIM_CYCLES)
    rows = []
    overheads = {}
    for engine, rounds in (("interp", 5), ("compiled", 7)):
        pct, tracked, untracked = overhead_pct(
            lambda e=engine: _drive_cycles(
                make_simulator(design, engine=e, sim_limits=drive_limits),
                drive_cycles[e],
            ),
            lambda e=engine: _drive_cycles(
                make_simulator(design, engine=e, sim_limits=UNTRACKED),
                drive_cycles[e],
            ),
            rounds=rounds,
        )
        overheads[engine] = pct
        rows.append([f"drive/{engine}", f"{untracked:.3f}",
                     f"{tracked:.3f}", f"{pct:+.1f}%"])
        benchmark.extra_info[f"{engine}_untracked_seconds"] = round(untracked, 4)
        benchmark.extra_info[f"{engine}_tracked_seconds"] = round(tracked, 4)
        benchmark.extra_info[f"{engine}_overhead_pct"] = round(pct, 2)

    def run_corpus(sim_limits):
        with scoped(verdict_cache=None):
            return [
                run_differential(d, d, samples=128, sim_limits=sim_limits).passed
                for d in pairs
            ]

    benchmark.pedantic(lambda: run_corpus(None), rounds=3, iterations=1)
    corpus_pct, corpus_tracked, corpus_untracked = overhead_pct(
        lambda: run_corpus(None), lambda: run_corpus(UNTRACKED), rounds=11
    )
    overheads["corpus"] = corpus_pct
    rows.append(["corpus diff", f"{corpus_untracked:.3f}",
                 f"{corpus_tracked:.3f}", f"{corpus_pct:+.1f}%"])
    benchmark.extra_info["corpus_untracked_seconds"] = round(corpus_untracked, 4)
    benchmark.extra_info["corpus_tracked_seconds"] = round(corpus_tracked, 4)
    benchmark.extra_info["corpus_overhead_pct"] = round(corpus_pct, 2)

    # The acceptance gate is the clean corpus -- the workload the
    # sandbox actually runs in production.  The synthetic drive loops
    # are reported for visibility but gated loosely: at sub-second
    # durations a single-vCPU box shows +/-5% run-to-run spread that
    # paired-ratio medians cannot fully cancel.  The table is recorded
    # only after the gates hold, so a failing run leaves no record.
    assert overheads["corpus"] < 5.0, (
        f"sandbox budgets cost {overheads['corpus']:.1f}% on the clean "
        f"corpus (acceptance ceiling is 5%)"
    )
    for engine in ("interp", "compiled"):
        assert overheads[engine] < 20.0, (
            f"sandbox budgets cost {overheads[engine]:.1f}% on "
            f"drive/{engine} (sanity ceiling is 20%)"
        )
    report(
        "Sim: sandbox budget-check overhead (tracked vs untracked)",
        render_table(
            ["workload", "untracked (s)", "tracked (s)", "overhead"], rows
        ),
    )


def test_sim_verdict_cache_cold_vs_warm(benchmark):
    """A repeated (candidate, reference, stimulus) triple must return the
    memoized verdict without simulating at all."""
    problems = [
        CORPUS.get(pid)
        for pid in ("mux2to1", "counter4_reset", "fsm_seq101", "popcount8")
    ]
    pairs = [
        compile_source(p.reference).elaborated for p in problems
    ]
    assert all(design is not None for design in pairs)

    def run_all():
        return [
            _verdict_summary(run_differential(design, design, samples=32))
            for design in pairs
        ]

    with scoped(verdict_cache=None):
        uncached, t_uncached = _timed(run_all)

    cache = VerdictCache()
    with scoped(verdict_cache=cache):
        cold, t_cold = _timed(run_all)

        def warm():
            return run_all()

        benchmark.pedantic(warm, rounds=3, iterations=1)
        warm_results, t_warm = _timed(warm)

    assert warm_results == cold == uncached  # memoization is invisible
    assert cache.stats.misses == len(pairs)
    assert cache.stats.hits >= 4 * len(pairs)

    speedup = t_cold / t_warm if t_warm else float("inf")
    stats = cache.stats.as_dict()
    benchmark.extra_info["cold_seconds"] = round(t_cold, 4)
    benchmark.extra_info["warm_seconds"] = round(t_warm, 5)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    benchmark.extra_info.update(stats)
    report(
        "Sim: verdict cache cold vs warm (whole-testbench memoization)",
        render_table(
            ["designs", "cold (s)", "warm (s)", "speedup",
             "hits", "hit rate"],
            [[len(pairs), f"{t_cold:.3f}", f"{t_warm:.5f}", f"{speedup:.0f}x",
              stats["hits"], f"{stats['hit_rate']:.1%}"]],
        ),
    )
    # A verdict hit skips the entire testbench: construction, stimulus,
    # simulation and comparison.  100x is conservative.
    assert t_warm < t_cold / 100, f"verdict cache only {speedup:.0f}x faster"


def _verdict_summary(result):
    """Comparable summary of one TestbenchResult."""
    return (result.passed, result.samples, result.mismatch_count,
            result.failure_reason)


# ---------------------------------------------------------------------------
# LLM backend pool (emitted as BENCH_llm.json by scripts/bench.sh)
# ---------------------------------------------------------------------------


def test_llm_pool_routed_vs_direct(benchmark):
    """Routing every model call through the pool (header round-trip,
    guard, ledger) must stay cheap next to a direct SimulatedLLM run
    -- and bit-identical, which is what lets reports leave it on."""
    from repro.llm.pool import RoutingSpec
    from repro.runtime import TokenCounter

    dataset = build_syntax_dataset(
        CORPUS, samples_per_problem=4, seed=0, target_size=24
    )
    routing = RoutingSpec.parse("cheap=gpt-3.5-sim,strong=gpt-4-sim")
    counter = TokenCounter()

    with scoped(compile_cache=CompileCache()):
        direct, t_direct = _timed(
            lambda: run_fix_experiment(dataset, RTLFixer(), repeats=2)
        )
    with scoped(
        compile_cache=CompileCache(),
        llm_routing=routing,
        token_counter=counter,
    ):
        routed, t_routed = _timed(
            lambda: benchmark.pedantic(
                run_fix_experiment,
                args=(dataset, RTLFixer()),
                kwargs={"repeats": 2},
                rounds=1, iterations=1,
            )
        )

    assert routed.fixed_counts == direct.fixed_counts
    assert routed.iterations == direct.iterations
    trials = len(dataset) * 2
    ledger = counter.as_dict()
    overhead = (t_routed / t_direct - 1.0) * 100 if t_direct else 0.0
    benchmark.extra_info["direct_seconds"] = round(t_direct, 3)
    benchmark.extra_info["routed_seconds"] = round(t_routed, 3)
    benchmark.extra_info["overhead_pct"] = round(overhead, 1)
    benchmark.extra_info["llm_calls"] = ledger["calls"]
    benchmark.extra_info["tokens_per_trial"] = round(
        ledger["total_tokens"] / trials
    )
    benchmark.extra_info["cost_usd"] = ledger["cost_usd"]
    report(
        "LLM pool: routed vs direct (bit-identical results)",
        render_table(
            ["trials", "direct (s)", "routed (s)", "overhead",
             "calls", "tokens/trial", "est. cost"],
            [[trials, f"{t_direct:.2f}", f"{t_routed:.2f}",
              f"{overhead:+.1f}%", ledger["calls"],
              round(ledger["total_tokens"] / trials),
              f"${ledger['cost_usd']:.2f}"]],
        ),
    )
    # The pool's round-trip must never dominate the run.
    assert t_routed < t_direct * 2, f"pool overhead {overhead:+.1f}%"


# ---------------------------------------------------------------------------
# Repair engine (Table-4 functional workload)
# ---------------------------------------------------------------------------


def test_repair_engine_workload(benchmark):
    """The Table-4 functional-repair workload end to end: template
    search throughput (templates simulated/sec), trace-diff
    localization latency, and the fix rate by bug class -- the
    headline numbers in BENCH_repair.json."""
    import random as _random

    from repro.dataset.mutate import draw_logic_bug
    from repro.dataset.problem import ProblemSet
    from repro.diagnostics import Compiler
    from repro.eval.experiments import run_table4
    from repro.repair import TraceDiffLocalizer

    problems = ProblemSet("bench-repair", list(CORPUS)[:12])

    with scoped(compile_cache=CompileCache()):
        # Localization latency, measured on a fresh localizer per
        # mutant so memoization cannot flatter the number.
        localizations = 0
        t_localize = 0.0
        for problem in problems:
            rng = _random.Random(f"bench-repair|{problem.id}")
            drawn = draw_logic_bug(problem.reference, rng)
            if drawn is None:
                continue
            buggy = drawn[0]
            compiler = Compiler()
            reference = compiler.compile(problem.reference).elaborated
            if reference is None:
                continue
            localizer = TraceDiffLocalizer(reference, compiler=compiler)
            _, elapsed = _timed(lambda: localizer.localize(buggy))
            localizations += 1
            t_localize += elapsed

        benchmark.pedantic(
            lambda: run_table4(problems, samples_per_problem=1, seed=1),
            rounds=1, iterations=1,
        )
        result, t_workload = _timed(
            lambda: run_table4(problems, samples_per_problem=2, seed=0)
        )

    attempted, template_fixed, llm_fixed = result.totals()
    assert attempted > 0
    assert template_fixed > 0, "template search fixed nothing"
    templates_per_sec = (
        result.templates_tried / t_workload if t_workload else 0.0
    )
    localize_ms = (t_localize / localizations * 1000) if localizations else 0.0

    benchmark.extra_info["attempted"] = attempted
    benchmark.extra_info["template_fixed"] = template_fixed
    benchmark.extra_info["llm_fixed"] = llm_fixed
    benchmark.extra_info["fix_rate"] = round(result.fix_rate, 3)
    benchmark.extra_info["fix_rate_by_class"] = {
        bug_class: round((t + l) / a, 3) if a else 0.0
        for bug_class, (a, t, l) in sorted(result.by_class.items())
    }
    benchmark.extra_info["templates_tried"] = result.templates_tried
    benchmark.extra_info["templates_tried_per_sec"] = round(templates_per_sec, 1)
    benchmark.extra_info["localization_ms"] = round(localize_ms, 2)
    benchmark.extra_info["localization_accuracy"] = round(
        result.localization_accuracy, 3
    )

    rows = [
        [bug_class, a, t, l, f"{(t + l) / a:.2f}" if a else "-"]
        for bug_class, (a, t, l) in sorted(result.by_class.items())
    ]
    rows.append(["TOTAL", attempted, template_fixed, llm_fixed,
                 f"{result.fix_rate:.2f}"])
    report(
        "Repair engine: Table-4 functional workload",
        render_table(
            ["bug class", "attempted", "template", "llm", "fix rate"],
            rows,
        )
        + f"\ntemplates simulated/sec: {templates_per_sec:,.0f}; "
        f"localization: {localize_ms:.1f} ms/design "
        f"(accuracy {result.localization_accuracy:.2f})",
    )
