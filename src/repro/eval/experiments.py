"""Experiment drivers: one function per table / figure of the paper.

Each driver returns a structured result object with a ``render()``
method that prints the same rows the paper reports.  The benchmarks in
``benchmarks/`` call these with full-size parameters; tests use scaled-
down ones.

Each kind of per-sample work has one copy: Table 3 folds Table 2's
units over RTLLM, Figure 7 folds a fix experiment's runs
(:meth:`Figure7Result.from_run`, in the report over Table 1's headline
cell), and §5 and Table 4 share :meth:`_RepairUnit.visible_bugs`.

Every driver accepts ``jobs=``: per-problem / per-trial work units fan
out across that many worker processes, with results reassembled in
submission order so parallel runs are bit-identical to serial ones at
the same seed.  A driver given ``ctx=`` runs on that run context's one
worker pool; without it, the driver opens a pool of its own and closes
it before it returns.  Compilation inside the evaluation flow goes
through the content-addressed compile cache (:mod:`repro.runtime.cache`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..core.config import RTLFixerConfig
from ..core.fixer import RTLFixer
from ..dataset.curate import SyntaxDataset, SyntaxEntry, build_syntax_dataset
from ..dataset.generate import GenerationModel
from ..dataset.mutate import draw_logic_bug
from ..dataset.problem import Problem, ProblemSet
from ..diagnostics import compile_source
from ..runtime import (
    RunContext,
    WorkFailure,
    config_digest,
)
from .metrics import pass_at_k_single
from .runner import (
    FixExperimentResult,
    driver_context,
    evaluate_code,
    evaluate_sample,
    run_fix_experiment,
    run_stage,
)
from .tables import render_table

#: Paper values, for side-by-side reporting in EXPERIMENTS.md.
PAPER_TABLE1 = {
    ("oneshot", "simple", False): 0.414,
    ("oneshot", "iverilog", False): 0.536,
    ("oneshot", "quartus", False): 0.587,
    ("oneshot", "iverilog", True): 0.800,
    ("oneshot", "quartus", True): 0.899,
    ("react", "simple", False): 0.671,
    ("react", "iverilog", False): 0.731,
    ("react", "quartus", False): 0.799,
    ("react", "iverilog", True): 0.820,
    ("react", "quartus", True): 0.985,
    ("oneshot-gpt4", "quartus", False): 0.91,
    ("oneshot-gpt4", "quartus", True): 0.98,
    ("react-gpt4", "quartus", False): 0.92,
    ("react-gpt4", "quartus", True): 0.99,
}

PAPER_TABLE2 = {
    ("human", "all"): {"p1": 0.267, "p1f": 0.368, "p5": 0.458, "p5f": 0.506},
    ("human", "easy"): {"p1": 0.521, "p1f": 0.666, "p5": 0.808, "p5f": 0.847},
    ("human", "hard"): {"p1": 0.053, "p1f": 0.120, "p5": 0.164, "p5f": 0.221},
    ("machine", "all"): {"p1": 0.467, "p1f": 0.799, "p5": 0.691, "p5f": 0.891},
    ("machine", "easy"): {"p1": 0.568, "p1f": 0.833, "p5": 0.782, "p5f": 0.892},
    ("machine", "hard"): {"p1": 0.367, "p1f": 0.771, "p5": 0.601, "p5f": 0.890},
}

PAPER_TABLE3 = {
    "syntax_before": 0.73, "pass1_before": 0.11,
    "syntax_after": 0.93, "pass1_after": 0.16,
}


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------


@dataclass
class Table1Result:
    #: (prompting, compiler, rag) -> measured fix rate
    rates: dict[tuple[str, str, bool], float] = field(default_factory=dict)
    details: dict[tuple[str, str, bool], FixExperimentResult] = field(default_factory=dict)

    @property
    def failed_units(self) -> int:
        """Total failed work units across all cells (``on_error="collect"``)."""
        return sum(len(run.failures) for run in self.details.values())

    def render(self) -> str:
        rows = []
        for prompting in ("oneshot", "react", "oneshot-gpt4", "react-gpt4"):
            for rag in (False, True):
                row = [prompting, "w/" if rag else "w/o"]
                any_cell = False
                for compiler in ("simple", "iverilog", "quartus"):
                    key = (prompting, compiler, rag)
                    if key in self.rates:
                        paper = PAPER_TABLE1.get(key)
                        cell = f"{self.rates[key]:.3f}"
                        if paper is not None:
                            cell += f" (paper {paper:.3f})"
                        row.append(cell)
                        any_cell = True
                    else:
                        row.append("-")
                if any_cell:
                    rows.append(row)
        return render_table(
            ["Prompt", "RAG", "Simple", "iverilog", "Quartus"],
            rows,
            title="Table 1: fix rate on VerilogEval-syntax",
        )


def run_table1(
    dataset: SyntaxDataset,
    repeats: int = 10,
    include_gpt4: bool = True,
    max_iterations: int = 10,
    progress=None,
    jobs: Optional[int] = None,
    on_error: str = "raise",
    ctx: Optional[RunContext] = None,
) -> Table1Result:
    """Fix rate for One-shot vs ReAct, w/ and w/o RAG, across feedback
    qualities, plus the GPT-4 ablation column (§4.2, §4.3).  ``jobs``
    fans each configuration's trials across workers; ``on_error``
    selects abort-vs-isolate semantics for failed trials (see
    :func:`~repro.eval.runner.run_fix_experiment`); ``ctx`` makes every
    cell's trials durable/resumable (each cell is its own journal
    stage)."""
    result = Table1Result()
    grid: list[tuple[str, str, str, bool]] = []
    for prompting in ("oneshot", "react"):
        for compiler in ("simple", "iverilog", "quartus"):
            for rag in (False, True):
                if compiler == "simple" and rag:
                    continue  # no log to retrieve against (as in the paper)
                grid.append((prompting, prompting, compiler, rag))
    if include_gpt4:
        for prompting in ("oneshot", "react"):
            for rag in (False, True):
                grid.append((f"{prompting}-gpt4", prompting, "quartus", rag))

    with driver_context(ctx) as ctx:
        for label, prompting, compiler, rag in grid:
            tier = "gpt-4-sim" if label.endswith("gpt4") else "gpt-3.5-sim"
            fixer = RTLFixer(
                prompting=prompting, compiler=compiler, use_rag=rag,
                tier=tier, max_iterations=max_iterations,
            )
            run = run_fix_experiment(
                dataset, fixer, repeats=repeats, progress=progress, jobs=jobs,
                on_error=on_error, ctx=ctx,
                stage=f"table1/{label}/{compiler}/{'rag' if rag else 'norag'}",
            )
            result.rates[(label, compiler, rag)] = run.rate
            result.details[(label, compiler, rag)] = run
    return result


# ---------------------------------------------------------------------------
# Table 2 / Figure 4
# ---------------------------------------------------------------------------


@dataclass
class ProblemOutcome:
    problem_id: str
    difficulty: str
    n: int
    correct_original: int
    correct_fixed: int
    syntax_original: int
    syntax_fixed: int
    sim_original: int
    sim_fixed: int


@dataclass
class Table2Result:
    #: benchmark -> list of per-problem outcomes
    outcomes: dict[str, list[ProblemOutcome]] = field(default_factory=dict)
    easy_threshold: float = 0.1
    #: failed (benchmark, problem) work units under ``on_error="collect"``
    #: (excluded from the aggregates above).
    failures: list[WorkFailure] = field(default_factory=list)

    # -- aggregation -------------------------------------------------------

    def _subset(self, benchmark: str, subset: str) -> list[ProblemOutcome]:
        outcomes = self.outcomes[benchmark]
        if subset == "all":
            return outcomes
        easy_ids = self.easy_ids()
        if subset == "easy":
            return [o for o in outcomes if o.problem_id in easy_ids]
        return [o for o in outcomes if o.problem_id not in easy_ids]

    def easy_ids(self) -> set[str]:
        """The paper splits easy/hard by a 0.1 pass-rate threshold on
        the *Human* original results."""
        human = self.outcomes.get("human", [])
        return {
            o.problem_id
            for o in human
            if o.n and o.correct_original / o.n > self.easy_threshold
        }

    def pass_at(self, benchmark: str, subset: str, k: int, fixed: bool) -> float:
        rows = self._subset(benchmark, subset)
        if not rows:
            return 0.0
        values = [
            pass_at_k_single(
                o.n, o.correct_fixed if fixed else o.correct_original, min(k, o.n)
            )
            for o in rows
        ]
        return sum(values) / len(values)

    def error_composition(self, benchmark: str, fixed: bool) -> dict[str, float]:
        """Fig. 4 pie data: fraction of samples passing / failing syntax
        / failing simulation."""
        rows = self.outcomes[benchmark]
        total = sum(o.n for o in rows)
        if not total:
            return {"pass": 0.0, "syntax": 0.0, "sim": 0.0}
        if fixed:
            syntax = sum(o.syntax_fixed for o in rows)
            sim = sum(o.sim_fixed for o in rows)
            ok = sum(o.correct_fixed for o in rows)
        else:
            syntax = sum(o.syntax_original for o in rows)
            sim = sum(o.sim_original for o in rows)
            ok = sum(o.correct_original for o in rows)
        return {"pass": ok / total, "syntax": syntax / total, "sim": sim / total}

    def syntax_share_of_failures(self, benchmark: str) -> float:
        """The paper's headline: ~55% of GPT-3.5 errors are syntax."""
        comp = self.error_composition(benchmark, fixed=False)
        failures = comp["syntax"] + comp["sim"]
        return comp["syntax"] / failures if failures else 0.0

    def render(self) -> str:
        rows = []
        for benchmark in ("human", "machine"):
            if benchmark not in self.outcomes:
                continue
            for subset in ("all", "easy", "hard"):
                paper = PAPER_TABLE2.get((benchmark, subset), {})
                rows.append([
                    benchmark.capitalize(), subset,
                    f"{self.pass_at(benchmark, subset, 1, False):.3f} (paper {paper.get('p1', 0):.3f})",
                    f"{self.pass_at(benchmark, subset, 1, True):.3f} (paper {paper.get('p1f', 0):.3f})",
                    f"{self.pass_at(benchmark, subset, 5, False):.3f} (paper {paper.get('p5', 0):.3f})",
                    f"{self.pass_at(benchmark, subset, 5, True):.3f} (paper {paper.get('p5f', 0):.3f})",
                ])
        return render_table(
            ["Dataset", "Set", "pass@1 orig", "pass@1 fixed", "pass@5 orig", "pass@5 fixed"],
            rows,
            title="Table 2: pass@k on VerilogEval before/after syntax fixing",
        )


@dataclass(frozen=True)
class _Table2Unit:
    """One (benchmark, problem) Table 2 work unit."""

    problem: Problem
    benchmark: str
    n_samples: int
    sim_samples: int
    config: RTLFixerConfig
    seed: int


def _table2_problem_outcome(unit: _Table2Unit) -> ProblemOutcome:
    """Evaluate (and fix) every sample of one problem -- the Table 2
    inner loop, self-contained so it can run in a pool worker."""
    fixer = RTLFixer(config=unit.config)
    model = GenerationModel(temperature=0.4, seed=unit.seed)
    problem = unit.problem
    outcome = ProblemOutcome(
        problem_id=problem.id, difficulty=problem.difficulty,
        n=unit.n_samples, correct_original=0, correct_fixed=0,
        syntax_original=0, syntax_fixed=0, sim_original=0, sim_fixed=0,
    )
    for sample in model.sample_n(problem, unit.n_samples, unit.benchmark):
        verdict = evaluate_sample(sample.raw, problem, samples=unit.sim_samples)
        if verdict == "pass":
            outcome.correct_original += 1
            outcome.correct_fixed += 1
        elif verdict == "sim":
            outcome.sim_original += 1
            outcome.sim_fixed += 1
        else:
            outcome.syntax_original += 1
            fix = fixer.fix(sample.raw, description=problem.description(unit.benchmark))
            if fix.success:
                after = evaluate_code(fix.final_code, problem, samples=unit.sim_samples)
            else:
                after = "syntax"
            if after == "pass":
                outcome.correct_fixed += 1
            elif after == "sim":
                outcome.sim_fixed += 1
            else:
                outcome.syntax_fixed += 1
    return outcome


def run_table2(
    problems: ProblemSet,
    n_samples: int = 20,
    benchmarks: tuple[str, ...] = ("human", "machine"),
    fixer_config: Optional[RTLFixerConfig] = None,
    sim_samples: int = 32,
    seed: int = 0,
    progress=None,
    jobs: Optional[int] = None,
    on_error: str = "raise",
    ctx: Optional[RunContext] = None,
) -> Table2Result:
    """Pass@k before/after fixing syntax errors (§4.2, Table 2 + Fig. 4).

    Problems are independent work units: ``jobs`` fans them across
    worker processes with results identical to the serial path.
    ``progress`` receives ``(benchmark, done, total)`` per completed
    problem.  ``on_error`` selects abort-vs-isolate handling of failed
    problems.  ``ctx`` journals each (benchmark, problem) outcome for
    resume.
    """
    config = fixer_config or RTLFixerConfig()
    problem_list = list(problems)
    units = [
        _Table2Unit(
            problem=problem, benchmark=benchmark, n_samples=n_samples,
            sim_samples=sim_samples, config=config, seed=seed,
        )
        for benchmark in benchmarks
        for problem in problem_list
    ]
    cfg_digest = config_digest(config)
    tick = None
    if progress is not None:
        done_per_bench = {benchmark: 0 for benchmark in benchmarks}

        def tick(done, total, unit):
            done_per_bench[unit.benchmark] += 1
            progress(unit.benchmark, done_per_bench[unit.benchmark], len(problem_list))

    completed, failures = run_stage(
        "table2", _table2_problem_outcome, units,
        lambda unit: dict(
            benchmark=unit.benchmark, problem=unit.problem.id,
            n_samples=unit.n_samples, sim_samples=unit.sim_samples,
            config=cfg_digest, seed=unit.seed,
        ),
        ctx=ctx, jobs=jobs,
        unit_progress=tick, on_error=on_error,
    )

    result = Table2Result(failures=failures)
    for benchmark in benchmarks:
        result.outcomes[benchmark] = []
    for unit, outcome in completed:
        result.outcomes[unit.benchmark].append(outcome)
    return result


# ---------------------------------------------------------------------------
# Table 3 (RTLLM generalization)
# ---------------------------------------------------------------------------


@dataclass
class Table3Result:
    syntax_before: float = 0.0
    syntax_after: float = 0.0
    pass1_before: float = 0.0
    pass1_after: float = 0.0
    #: failed per-problem work units under ``on_error="collect"``
    #: (excluded from the rates above).
    failures: list[WorkFailure] = field(default_factory=list)

    def render(self) -> str:
        rows = [
            ["GPT-3.5",
             f"{self.syntax_before:.2f} (paper {PAPER_TABLE3['syntax_before']:.2f})",
             f"{self.pass1_before:.2f} (paper {PAPER_TABLE3['pass1_before']:.2f})"],
            ["GPT-3.5 + RTLFixer",
             f"{self.syntax_after:.2f} (paper {PAPER_TABLE3['syntax_after']:.2f})",
             f"{self.pass1_after:.2f} (paper {PAPER_TABLE3['pass1_after']:.2f})"],
        ]
        return render_table(
            ["LLM", "Syntax Success Rate", "pass@1"],
            rows,
            title="Table 3: RTLLM generalization (ReAct + RAG + Quartus)",
        )


def run_table3(
    problems: ProblemSet,
    n_samples: int = 10,
    sim_samples: int = 32,
    seed: int = 0,
    progress=None,
    jobs: Optional[int] = None,
    on_error: str = "raise",
    ctx: Optional[RunContext] = None,
) -> Table3Result:
    """Generalization to the RTLLM-style corpus *without* any new RAG
    entries (§4.2, Table 3): :func:`run_table2` over
    ``benchmarks=("rtllm",)`` with the stock ReAct + RAG + Quartus
    fixer, its outcomes folded into the four rates.  ``progress``
    receives ``(done, total)`` per completed problem."""
    tick = None
    if progress is not None:
        tick = lambda benchmark, done, total: progress(done, total)  # noqa: E731
    table2 = run_table2(
        problems, n_samples=n_samples, benchmarks=("rtllm",),
        sim_samples=sim_samples, seed=seed, progress=tick, jobs=jobs,
        on_error=on_error, ctx=ctx,
    )
    result = Table3Result(failures=table2.failures)
    outcomes = table2.outcomes["rtllm"]
    total = sum(o.n for o in outcomes)
    if not total:
        return result
    compiled_before = sum(o.correct_original + o.sim_original for o in outcomes)
    result.syntax_before = compiled_before / total
    result.syntax_after = sum(o.n - o.syntax_fixed for o in outcomes) / total
    result.pass1_before = table2.pass_at("rtllm", "all", 1, fixed=False)
    result.pass1_after = table2.pass_at("rtllm", "all", 1, fixed=True)
    return result


# ---------------------------------------------------------------------------
# Figure 7 (iterations histogram)
# ---------------------------------------------------------------------------


@dataclass
class Figure7Result:
    #: iteration count -> number of successful repairs taking that many
    histogram: dict[int, int] = field(default_factory=dict)
    #: failed trials under ``on_error="collect"`` (not in the histogram).
    failures: list[WorkFailure] = field(default_factory=list)

    @classmethod
    def from_run(cls, run: FixExperimentResult, trials: int) -> "Figure7Result":
        """The histogram of ``run``'s trials ``0..trials-1``: their
        successful repairs (a success in 0 iterations already compiled,
        so it is not one), counted entry by entry, and their failures."""
        result = cls(
            failures=[f for f in run.failures if f.index % run.trials < trials]
        )
        for trial, iterations in zip(run.success_trials, run.iterations):
            if trial < trials and iterations > 0:
                result.histogram[iterations] = result.histogram.get(iterations, 0) + 1
        return result

    @property
    def total(self) -> int:
        return sum(self.histogram.values())

    def fraction(self, iterations: int) -> float:
        if not self.total:
            return 0.0
        return self.histogram.get(iterations, 0) / self.total

    def single_revision_share(self) -> float:
        """Paper: 'About 90% of problems are resolved in a single
        revision.'"""
        return self.fraction(1)

    def render(self) -> str:
        rows = [
            [k, v, f"{v / self.total:.1%}"]
            for k, v in sorted(self.histogram.items())
        ]
        return render_table(
            ["iterations", "count", "share"],
            rows,
            title="Figure 7: ReAct iterations needed to fix (paper: ~90% in 1)",
        )


def run_figure7(
    dataset: SyntaxDataset,
    repeats: int = 10,
    progress=None,
    jobs: Optional[int] = None,
    on_error: str = "raise",
    ctx: Optional[RunContext] = None,
) -> Figure7Result:
    """Histogram of ReAct iterations needed per successful fix, over
    ``repeats`` trials of the paper's headline config (the full report
    folds Table 1's cell of that config instead)."""
    run = run_fix_experiment(
        dataset, RTLFixer(), repeats=repeats, progress=progress, jobs=jobs,
        on_error=on_error, ctx=ctx, stage="figure7",
    )
    return Figure7Result.from_run(run, repeats)


# ---------------------------------------------------------------------------
# Figure 5 (qualitative compiler-log comparison)
# ---------------------------------------------------------------------------

FIG5_CODE = """module top_module (
  input [99:0] in,
  output reg [99:0] out
);
always @(posedge clk) begin
  for (int i = 0; i < 100; i = i + 1) begin
    out[i] <= in[99 - i];
  end
end
endmodule
"""


def figure5_logs(code: str = FIG5_CODE) -> dict[str, str]:
    """The same erroneous design rendered through both compilers."""
    return {
        "iverilog": compile_source(code, name="vector100r.sv", flavor="iverilog").log,
        "quartus": compile_source(code, name="vector100r.sv", flavor="quartus").log,
    }


# ---------------------------------------------------------------------------
# Figure 6 (failure case)
# ---------------------------------------------------------------------------

FIG6_CODE = """module top_module (
  input [255:0] q,
  output reg [255:0] next
);
integer i;
integer j;
always @(*) begin
  for (i = 0; i < 16; i = i + 1) begin
    for (j = 0; j < 16; j = j + 1) begin
      next[i*16 + j] = q[(i-1)*16 + (j-1)];
    end
  end
end
endmodule
"""


def figure6_failure_case(
    repeats: int = 10,
    jobs: Optional[int] = None,
    on_error: str = "raise",
    ctx: Optional[RunContext] = None,
) -> dict:
    """The index-arithmetic failure case: RTLFixer's fix rate on it is
    far below average (the paper reports the agent cannot fix it).
    Its trials are a one-entry :func:`run_fix_experiment` (stage
    ``figure6``); ``failures`` lists those failed under ``"collect"``."""
    entry = SyntaxEntry("figure6", "human", "", FIG6_CODE, categories=())
    run = run_fix_experiment(
        SyntaxDataset([entry]), RTLFixer(), repeats=repeats, jobs=jobs,
        on_error=on_error, ctx=ctx, stage="figure6",
    )
    return {
        "log": compile_source(FIG6_CODE, flavor="quartus").log,
        "fix_rate": run.rate,
        "failures": run.failures,
    }


# ---------------------------------------------------------------------------
# §5 extension: simulation-error (logic) debugging
# ---------------------------------------------------------------------------


@dataclass
class SimFixExtensionResult:
    """Outcome of the §5 preliminary study: can the agent fix *logic*
    errors from waveform-style feedback?"""

    #: difficulty -> (attempted, fixed)
    by_difficulty: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: failed per-problem work units under ``on_error="collect"``.
    failures: list[WorkFailure] = field(default_factory=list)

    def fix_rate(self, difficulty: str) -> float:
        attempted, fixed = self.by_difficulty.get(difficulty, (0, 0))
        return fixed / attempted if attempted else 0.0

    def render(self) -> str:
        rows = [
            [difficulty, attempted, fixed,
             f"{fixed / attempted:.2f}" if attempted else "-"]
            for difficulty, (attempted, fixed) in sorted(self.by_difficulty.items())
        ]
        return render_table(
            ["difficulty", "logic-buggy samples", "fixed", "fix rate"],
            rows,
            title="§5 extension: simulation-error debugging "
            "(paper: works on simple problems only)",
        )


@dataclass(frozen=True)
class _RepairUnit:
    """One per-problem work unit of the §5 extension or of Table 4."""

    problem: Problem
    samples_per_problem: int
    sim_samples: int
    max_iterations: int
    seed: int

    def key_parts(self) -> dict:
        """The fields of the unit's journal key."""
        return {**vars(self), "problem": self.problem.id}

    def visible_bugs(self, salt: str) -> Iterator[tuple[str, str]]:
        """``(buggy, bug_class)`` per sample whose drawn logic bug shows
        in simulation (not accidentally equivalent, nor broken)."""
        rng = random.Random(f"{salt}|{self.seed}|{self.problem.id}")
        for _ in range(self.samples_per_problem):
            drawn = draw_logic_bug(self.problem.reference, rng)
            if drawn is None:
                continue
            verdict = evaluate_code(drawn[0], self.problem, samples=self.sim_samples)
            if verdict == "sim":
                yield drawn


def _simfix_problem_counts(unit: _RepairUnit) -> tuple[str, int, int]:
    """Mutate and debug one problem; returns ``(difficulty, attempted,
    fixed)``."""
    from ..agents.simfix import SimDebugAgent

    agent = SimDebugAgent(
        max_iterations=unit.max_iterations, sim_samples=unit.sim_samples
    )
    problem = unit.problem
    attempted = fixed = 0
    for buggy, _ in unit.visible_bugs("simfix"):
        run = agent.run(buggy, problem.reference, difficulty=problem.difficulty)
        attempted += 1
        fixed += int(run.success)
    return problem.difficulty, attempted, fixed


def run_simfix_extension(
    problems: ProblemSet,
    samples_per_problem: int = 4,
    sim_samples: int = 16,
    max_iterations: int = 8,
    seed: int = 0,
    progress=None,
    jobs: Optional[int] = None,
    on_error: str = "raise",
    ctx: Optional[RunContext] = None,
) -> SimFixExtensionResult:
    """Generate logic-buggy (compiling, functionally wrong) samples and
    let the simulation-debugging agent try to repair them.  ``jobs``
    fans problems across workers; ``on_error="collect"`` isolates
    failed problems instead of aborting; ``ctx`` journals per-problem
    counts for resume."""
    units = [
        _RepairUnit(problem, samples_per_problem, sim_samples, max_iterations, seed)
        for problem in problems
    ]
    completed, failures = run_stage(
        "simfix", _simfix_problem_counts, units, _RepairUnit.key_parts,
        ctx=ctx, jobs=jobs, progress=progress, on_error=on_error,
    )
    result = SimFixExtensionResult(failures=failures)
    counts: dict[str, list[int]] = {"easy": [0, 0], "hard": [0, 0]}
    for _, (difficulty, attempted, fixed) in completed:
        counts[difficulty][0] += attempted
        counts[difficulty][1] += fixed
    result.by_difficulty = {name: tuple(tally) for name, tally in counts.items()}
    return result


# ---------------------------------------------------------------------------
# Table 4 (functional repair on the unified engine)
# ---------------------------------------------------------------------------


@dataclass
class Table4Result:
    """Outcome of the Table-4-style functional-repair workload: logic-
    buggy samples repaired by the full engine stack (trace-diff
    localization -> template BFS -> LLM escalation)."""

    #: bug class -> (attempted, template_fixed, llm_fixed)
    by_class: dict[str, tuple[int, int, int]] = field(default_factory=dict)
    #: Repair templates actually simulated, across all attempts.
    templates_tried: int = 0
    #: Attempts where the trace-diff localizer's suspect lines covered
    #: the actually mutated line, over attempts where it said anything.
    localization_hits: int = 0
    localization_total: int = 0
    #: failed per-problem work units under ``on_error="collect"``.
    failures: list[WorkFailure] = field(default_factory=list)

    def totals(self) -> tuple[int, int, int]:
        """``(attempted, template_fixed, llm_fixed)`` across classes."""
        attempted = template_fixed = llm_fixed = 0
        for a, t, l in self.by_class.values():
            attempted += a
            template_fixed += t
            llm_fixed += l
        return attempted, template_fixed, llm_fixed

    @property
    def fix_rate(self) -> float:
        attempted, template_fixed, llm_fixed = self.totals()
        return (template_fixed + llm_fixed) / attempted if attempted else 0.0

    @property
    def template_fix_rate(self) -> float:
        attempted, template_fixed, _ = self.totals()
        return template_fixed / attempted if attempted else 0.0

    @property
    def localization_accuracy(self) -> float:
        if not self.localization_total:
            return 0.0
        return self.localization_hits / self.localization_total

    def digest(self) -> str:
        """Content digest of the result (same seed -> same digest)."""
        import hashlib
        import json

        payload = {
            "by_class": {
                name: list(counts)
                for name, counts in sorted(self.by_class.items())
            },
            "templates_tried": self.templates_tried,
            "localization": [self.localization_hits, self.localization_total],
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def render(self) -> str:
        rows = []
        for bug_class, (attempted, template_fixed, llm_fixed) in sorted(
            self.by_class.items()
        ):
            fixed = template_fixed + llm_fixed
            rows.append(
                [bug_class, attempted, template_fixed, llm_fixed,
                 f"{fixed / attempted:.2f}" if attempted else "-"]
            )
        attempted, template_fixed, llm_fixed = self.totals()
        rows.append(
            ["TOTAL", attempted, template_fixed, llm_fixed,
             f"{self.fix_rate:.2f}" if attempted else "-"]
        )
        table = render_table(
            ["bug class", "attempted", "template fixes", "LLM fixes",
             "fix rate"],
            rows,
            title="Table 4 analog: functional repair "
            "(trace-diff localization + template BFS + LLM escalation)",
        )
        extra = (
            f"templates simulated: {self.templates_tried}; "
            f"localization accuracy: {self.localization_accuracy:.2f} "
            f"({self.localization_hits}/{self.localization_total})"
        )
        return table + "\n" + extra


def _table4_problem_rows(
    unit: _RepairUnit,
) -> list[tuple[str, bool, str, int, Optional[bool]]]:
    """Mutate and engine-repair one problem; one row per attempted
    trial: ``(bug_class, fixed, fixed_by, templates_tried, loc_hit)``
    where ``loc_hit`` is None when the localizer stayed silent."""
    from ..repair import build_functional_engine

    problem = unit.problem
    rows: list[tuple[str, bool, str, int, Optional[bool]]] = []
    for buggy, bug_class in unit.visible_bugs("table4"):
        engine = build_functional_engine(
            problem.reference,
            difficulty=problem.difficulty,
            max_iterations=unit.max_iterations,
            sim_samples=unit.sim_samples,
        )
        # Localization accuracy: the mutant differs from the golden on
        # known lines; a "hit" is the localizer ranking one of them
        # among its suspects.  (Only meaningful on same-shape mutants.)
        loc_hit: Optional[bool] = None
        buggy_lines = buggy.split("\n")
        golden_lines = problem.reference.split("\n")
        if len(buggy_lines) == len(golden_lines) and engine.localizer is not None:
            mutated_lines = {
                index
                for index, (got, want) in enumerate(
                    zip(buggy_lines, golden_lines), start=1
                )
                if got != want
            }
            suspects = engine.localizer.localize(buggy).suspect_lines
            if suspects and mutated_lines:
                loc_hit = bool(mutated_lines & set(suspects))
        outcome = engine.run(buggy)
        rows.append(
            (
                bug_class,
                outcome.success,
                outcome.fixed_by,
                int(outcome.stats.get("templates_tried", 0)),
                loc_hit,
            )
        )
    return rows


def run_table4(
    problems: ProblemSet,
    samples_per_problem: int = 2,
    sim_samples: int = 16,
    max_iterations: int = 24,
    seed: int = 0,
    progress=None,
    jobs: Optional[int] = None,
    on_error: str = "raise",
    ctx: Optional[RunContext] = None,
) -> Table4Result:
    """The Table-4-style functional-repair experiment: seed logic bugs
    of known classes into golden references, then repair each with the
    full engine stack -- trace-diff localization feeding a breadth-first
    template search, escalating to the logic-debugging LLM when the
    templates dry up.  Reports fix rate by bug class, template-vs-LLM
    attribution, and localization accuracy.  Deterministic: the same
    seed yields the same :meth:`Table4Result.digest`."""
    units = [
        _RepairUnit(problem, samples_per_problem, sim_samples, max_iterations, seed)
        for problem in problems
    ]
    completed, failures = run_stage(
        "table4", _table4_problem_rows, units, _RepairUnit.key_parts,
        ctx=ctx, jobs=jobs, progress=progress, on_error=on_error,
    )
    result = Table4Result(failures=failures)
    counts: dict[str, list[int]] = {}
    for _, rows in completed:
        for bug_class, fixed, fixed_by, templates_tried, loc_hit in rows:
            tally = counts.setdefault(bug_class, [0, 0, 0])
            tally[0] += 1
            if fixed:
                tally[1 if fixed_by == "template" else 2] += 1
            result.templates_tried += templates_tried
            if loc_hit is not None:
                result.localization_total += 1
                result.localization_hits += int(loc_hit)
    result.by_class = {name: tuple(tally) for name, tally in counts.items()}
    return result


# ---------------------------------------------------------------------------
# Convenience: default dataset
# ---------------------------------------------------------------------------


def default_dataset(
    samples_per_problem: int = 20, target_size: int = 212, seed: int = 0
) -> SyntaxDataset:
    """The VerilogEval-syntax-equivalent dataset used by the benches."""
    from ..dataset.corpus import verilogeval

    return build_syntax_dataset(
        verilogeval(), samples_per_problem=samples_per_problem,
        target_size=target_size, seed=seed,
    )
