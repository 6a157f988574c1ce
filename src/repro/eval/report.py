"""One-call reproduction report.

:func:`run_full_report` executes every experiment (Tables 1-3, Figures
4-7, the §5 extension) at a configurable scale and produces a
paper-vs-measured report as structured data, JSON, or markdown --
convenient for regenerating EXPERIMENTS.md after changes.

With ``run_dir=`` the run is *durable*: every completed work unit is
journaled the moment it finishes, a checkpoint manifest pins the run's
scale, and ``resume=True`` replays journaled trials so a killed run
re-executes only the remainder -- producing a report JSON byte-identical
to an uninterrupted run (``to_json`` deliberately excludes volatile
runtime telemetry like compile-cache counters for exactly this reason).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..dataset.corpus import verilogeval
from ..dataset.curate import SyntaxDataset, build_syntax_dataset
from ..dataset.rtllm import rtllm
from ..llm.pool import RoutingSpec
from ..runtime import (
    CircuitBreaker,
    CompileCache,
    RunContext,
    RunState,
    TokenCounter,
)
from ..runtime.accounting import render_line
from ..scope import current, scoped
from ..sim.sandbox import SandboxStats
from ..sim.verdict import VerdictCache
from .experiments import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    Figure7Result,
    figure5_logs,
    figure6_failure_case,
    run_simfix_extension,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
)
from .figures import composition_figure, histogram_figure


@dataclass
class ReportScale:
    """How big to run everything; defaults take a few minutes."""

    dataset_size: int = 212
    dataset_samples_per_problem: int = 20
    repeats: int = 3
    n_samples: int = 10
    sim_samples: int = 24
    include_gpt4: bool = True
    simfix_samples_per_problem: int = 2
    table4_samples_per_problem: int = 2

    def __post_init__(self) -> None:
        # At 0 a table is empty, a pass@k undefined, and a functional
        # check over zero stimuli passes every sample that compiles.
        for name, value in vars(self).items():
            if not isinstance(value, bool) and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass
class FullReport:
    scale: ReportScale
    table1: dict = field(default_factory=dict)
    table2: dict = field(default_factory=dict)
    table3: dict = field(default_factory=dict)
    figure4: dict = field(default_factory=dict)
    figure7: dict = field(default_factory=dict)
    figure5: dict = field(default_factory=dict)
    figure6: dict = field(default_factory=dict)
    simfix: dict = field(default_factory=dict)
    #: The Table-4 functional-repair workload (fix rate by bug class,
    #: template-vs-LLM attribution, localization accuracy, digest).
    table4: dict = field(default_factory=dict)
    #: stage -> number of failed work units (nonzero only under
    #: ``on_error="collect"``; an aborting run never gets here).
    #: ``figure7`` counts the failed Table-1 trials its histogram folds.
    failures: dict = field(default_factory=dict)
    #: The run's telemetry, one dict per section: ``compile_cache`` and
    #: ``verdict_cache`` (the caches' counters), ``sandbox`` (limit and
    #: crashed verdicts, watchdog and mid-simulation deadline fires,
    #: chaos faults), ``llm`` (routing plus the token ledger; pooled
    #: runs only), ``breaker`` (when one was armed) and ``resume``
    #: (journal replays vs executions; durable runs only).  Counts add up
    #: at any job count, but they are not part of ``to_json``: they
    #: differ between an interrupted and an uninterrupted run.
    telemetry: dict = field(default_factory=dict)
    rendered: dict = field(default_factory=dict)

    @property
    def failed_units(self) -> int:
        """Total failed work units across every experiment stage, each
        once: Figure 7's failures are trials of Table 1's."""
        return sum(self.failures.values()) - self.failures.get("figure7", 0)

    @property
    def breaker_tripped(self) -> bool:
        """Whether the circuit breaker tripped at least once this run."""
        return bool(self.telemetry.get("breaker", {}).get("trips", 0))

    def to_json(self) -> str:
        """Deterministic report JSON.

        Only experiment *results* are included.  :attr:`telemetry` is
        deliberately excluded so a resumed run's report is
        byte-identical to an uninterrupted one -- it lives on the
        report object, in the markdown and on stderr.
        """
        payload = {
            "scale": vars(self.scale),
            "table1": {" ".join(map(str, k)): v for k, v in self.table1.items()},
            "table2": self.table2,
            "table3": self.table3,
            "figure4": self.figure4,
            "figure7": {str(k): v for k, v in self.figure7.items()},
            "figure6": self.figure6,
            "simfix": self.simfix,
            "table4": self.table4,
            "failures": self.failures,
        }
        return json.dumps(payload, indent=2)

    def summary_lines(self) -> list[str]:
        """One ``# <section>: key=value ...`` line per telemetry section,
        then the failures line."""
        sections = {
            **self.telemetry,
            "failures": {**self.failures, "total": self.failed_units},
        }
        return [render_line(name, data) for name, data in sections.items()]

    def to_markdown(self) -> str:
        sections = ["# Reproduction report\n"]
        for name in ("table1", "table2", "table3", "figure4", "figure7",
                     "figure6", "simfix", "table4"):
            if name in self.rendered:
                sections.append(f"## {name}\n\n```\n{self.rendered[name]}\n```\n")
        lines = "\n".join(self.summary_lines())
        sections.append(f"## telemetry\n\n```\n{lines}\n```\n")
        return "\n".join(sections)


def report_manifest(scale: ReportScale, llm: Optional[dict] = None) -> dict:
    """The checkpoint manifest pinning a full-report run's identity.

    Only result-relevant parameters participate: the scale, plus -- when
    the run routes through an LLM pool -- the pool spec and escalation
    policy (they can change which model answers, so a pooled run must
    not resume a direct run's journal).  Execution knobs (``jobs``,
    ``on_error``, breaker threshold) are free to change
    between a run and its resume; omitting the ``llm`` key when no pool
    is configured keeps old manifests valid.
    """
    manifest = {"kind": "full_report", "scale": vars(scale)}
    if llm:
        manifest["llm"] = llm
    return manifest


def run_full_report(
    scale: Optional[ReportScale] = None,
    dataset: Optional[SyntaxDataset] = None,
    progress=None,
    jobs: Optional[int] = None,
    on_error: str = "raise",
    run_dir: Optional[str] = None,
    resume: bool = False,
    breaker: Optional[CircuitBreaker] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    routing: Optional[RoutingSpec] = None,
) -> FullReport:
    """Run every experiment and collect a paper-vs-measured report.

    The whole run executes under a fresh content-addressed compile cache
    (its counters land in ``report.telemetry``); ``jobs``
    fans every driver's work units across one pool of that many worker
    processes (0 = all CPUs) without changing any result; the pool is
    shut down before this returns.  ``on_error="collect"`` turns on
    failure isolation: failed work units are recorded per stage in
    ``report.failures`` instead of aborting the whole report.

    ``run_dir`` makes the run durable: a :class:`~repro.runtime.RunState`
    journals every completed work unit and ``resume=True`` replays the
    journal so only the remainder executes -- the final report (written
    atomically to ``run_dir/report.json``) is byte-identical to an
    uninterrupted run.  ``breaker`` gates every stage's dispatch
    (requires ``on_error="collect"``); ``should_stop`` is polled between
    dispatches for graceful shutdown and raises
    :class:`~repro.errors.RunInterrupted` once in-flight work drains.

    ``routing`` sends every model call through a backend pool's
    escalation ladder (:class:`~repro.llm.pool.RoutingSpec`; None = the
    caller-scoped ``llm_routing``, if any).  Token/cost accounting for
    the whole run lands in ``report.telemetry["llm"]``; a pool of simulated tiers
    with escalation disabled produces a report byte-identical to the
    direct run.
    """
    scale = scale or ReportScale()
    if routing is None:
        # Respect a caller-scoped llm_routing spec (how offline suites
        # inject chaos-wrapped pools).
        routing = current().get("llm_routing")
    llm_manifest = routing.manifest() if routing is not None else None
    state: Optional[RunState] = None
    if run_dir is not None:
        state = RunState(run_dir)
        state.ensure_manifest(report_manifest(scale, llm=llm_manifest), resume=resume)
    ctx = RunContext(state=state, breaker=breaker, should_stop=should_stop)
    cache = CompileCache()
    verdict_cache = VerdictCache()
    sandbox_stats = SandboxStats()
    llm_counter = TokenCounter()
    try:
        with scoped(
            compile_cache=cache, verdict_cache=verdict_cache, llm_routing=routing,
            sandbox_stats=sandbox_stats, token_counter=llm_counter,
        ):
            report = _run_experiments(scale, dataset, progress, jobs, on_error, ctx)
        report.telemetry = {
            "compile_cache": cache.stats.as_dict(),
            "verdict_cache": verdict_cache.stats.as_dict(),
            "sandbox": sandbox_stats.as_dict(),
        }
        if routing is not None:
            report.telemetry["llm"] = {**llm_manifest, **llm_counter.as_dict()}
        if breaker is not None:
            report.telemetry["breaker"] = breaker.snapshot()
        if state is not None:
            report.telemetry["resume"] = ctx.stats()
            state.write_report(report.to_json())
        return report
    finally:
        ctx.close()
        if state is not None:
            state.close()


def _run_experiments(
    scale: ReportScale,
    dataset: Optional[SyntaxDataset],
    progress,
    jobs: Optional[int],
    on_error: str,
    ctx: RunContext,
) -> FullReport:
    """The report body, executed under the report's compile cache."""
    report = FullReport(scale=scale)

    def tick(stage: str) -> None:
        if progress is not None:
            progress(stage)

    if dataset is None:
        tick("building VerilogEval-syntax dataset")
        dataset = build_syntax_dataset(
            verilogeval(),
            samples_per_problem=scale.dataset_samples_per_problem,
            target_size=scale.dataset_size,
        )

    tick("Table 1")
    t1 = run_table1(
        dataset, repeats=scale.repeats, include_gpt4=scale.include_gpt4, jobs=jobs,
        on_error=on_error, ctx=ctx,
    )
    report.failures["table1"] = t1.failed_units
    report.table1 = {
        key: {"measured": rate, "paper": PAPER_TABLE1.get(key)}
        for key, rate in t1.rates.items()
    }
    report.rendered["table1"] = t1.render()

    tick("Table 2 / Figure 4")
    t2 = run_table2(
        verilogeval(), n_samples=scale.n_samples, sim_samples=scale.sim_samples,
        jobs=jobs, on_error=on_error, ctx=ctx,
    )
    report.failures["table2"] = len(t2.failures)
    report.table2 = {
        f"{bench}/{subset}": {
            "pass@1": t2.pass_at(bench, subset, 1, False),
            "pass@1_fixed": t2.pass_at(bench, subset, 1, True),
            "pass@5": t2.pass_at(bench, subset, min(5, scale.n_samples), False),
            "pass@5_fixed": t2.pass_at(bench, subset, min(5, scale.n_samples), True),
            "paper": PAPER_TABLE2.get((bench, subset)),
        }
        for bench in ("human", "machine")
        for subset in ("all", "easy", "hard")
    }
    report.rendered["table2"] = t2.render()
    report.figure4 = {
        bench: {
            "before": t2.error_composition(bench, fixed=False),
            "after": t2.error_composition(bench, fixed=True),
            "syntax_share_of_failures": t2.syntax_share_of_failures(bench),
        }
        for bench in ("human", "machine")
    }
    report.rendered["figure4"] = "\n\n".join(
        composition_figure(
            report.figure4[bench]["before"], report.figure4[bench]["after"], bench
        )
        for bench in ("human", "machine")
    )

    tick("Table 3")
    t3 = run_table3(
        rtllm(), n_samples=scale.n_samples, sim_samples=scale.sim_samples, jobs=jobs,
        on_error=on_error, ctx=ctx,
    )
    report.failures["table3"] = len(t3.failures)
    report.table3 = {
        "syntax_before": t3.syntax_before, "syntax_after": t3.syntax_after,
        "pass1_before": t3.pass1_before, "pass1_after": t3.pass1_after,
        "paper": PAPER_TABLE3,
    }
    report.rendered["table3"] = t3.render()

    # Figure 7 runs no trials of its own: it folds the first trials of
    # Table 1's headline (ReAct + RAG + Quartus) cell.
    f7 = Figure7Result.from_run(
        t1.details[("react", "quartus", True)], max(1, scale.repeats // 2)
    )
    report.failures["figure7"] = len(f7.failures)
    report.figure7 = dict(f7.histogram)
    report.rendered["figure7"] = histogram_figure(f7.histogram)

    tick("Figures 5/6")
    report.figure5 = figure5_logs()
    figure6 = figure6_failure_case(
        repeats=max(4, scale.repeats), jobs=jobs, on_error=on_error, ctx=ctx
    )
    report.failures["figure6"] = len(figure6.pop("failures"))
    report.figure6 = figure6
    report.rendered["figure6"] = (
        report.figure6["log"] + f"\nfix rate: {report.figure6['fix_rate']:.2f}"
    )

    tick("§5 extension")
    simfix = run_simfix_extension(
        verilogeval(),
        samples_per_problem=scale.simfix_samples_per_problem,
        sim_samples=scale.sim_samples,
        jobs=jobs,
        on_error=on_error,
        ctx=ctx,
    )
    report.failures["simfix"] = len(simfix.failures)
    report.simfix = {
        difficulty: {"attempted": attempted, "fixed": fixed}
        for difficulty, (attempted, fixed) in simfix.by_difficulty.items()
    }
    report.rendered["simfix"] = simfix.render()

    tick("Table 4 (functional repair)")
    t4 = run_table4(
        verilogeval(),
        samples_per_problem=scale.table4_samples_per_problem,
        sim_samples=scale.sim_samples,
        jobs=jobs,
        on_error=on_error,
        ctx=ctx,
    )
    report.failures["table4"] = len(t4.failures)
    report.table4 = {
        "by_class": {
            bug_class: {
                "attempted": attempted,
                "template_fixed": template_fixed,
                "llm_fixed": llm_fixed,
            }
            for bug_class, (attempted, template_fixed, llm_fixed)
            in sorted(t4.by_class.items())
        },
        "fix_rate": t4.fix_rate,
        "template_fix_rate": t4.template_fix_rate,
        "templates_tried": t4.templates_tried,
        "localization_accuracy": t4.localization_accuracy,
        "digest": t4.digest(),
    }
    report.rendered["table4"] = t4.render()
    return report
