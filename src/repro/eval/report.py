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
from ..scope import current, scoped
from ..sim.engine import DEFAULT_SIM_ENGINE
from ..sim.sandbox import SandboxStats
from ..sim.verdict import VerdictCache
from .experiments import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    figure5_logs,
    figure6_failure_case,
    run_figure7,
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
    #: Compile-cache counters for the whole run (hits, misses,
    #: evictions, compiles avoided) -- the runtime's observability.
    cache: dict = field(default_factory=dict)
    #: stage -> number of failed work units (nonzero only under
    #: ``on_error="collect"``; an aborting run never gets here).
    failures: dict = field(default_factory=dict)
    #: Circuit-breaker snapshot (state, trips, skipped trials) when a
    #: breaker was armed; empty otherwise.  Runtime telemetry -- not
    #: part of ``to_json`` (it would differ between an interrupted and
    #: an uninterrupted run).
    breaker: dict = field(default_factory=dict)
    #: Replay/execute telemetry for durable runs (how many work units
    #: were served from the journal vs dispatched).  Runtime telemetry
    #: -- excluded from ``to_json`` like ``cache``/``breaker``.
    resume: dict = field(default_factory=dict)
    #: Simulation telemetry: the active engine, the run's verdict-cache
    #: counters (hits = whole testbench runs skipped), and the sandbox
    #: counters (limit/crashed verdicts, watchdog and mid-simulation
    #: deadline fires, chaos faults).  Runtime telemetry -- excluded
    #: from ``to_json`` like the rest.
    sim: dict = field(default_factory=dict)
    #: LLM pool telemetry (routing description plus the run's
    #: TokenCounter ledger: per-backend tokens, cost, throttles,
    #: hedges, failovers, escalations).  Populated only when the run
    #: was routed through a pool.  Runtime telemetry -- excluded from
    #: ``to_json``, so a pooled run over simulated tiers produces a
    #: report byte-identical to the direct run.
    llm: dict = field(default_factory=dict)
    rendered: dict = field(default_factory=dict)

    @property
    def failed_units(self) -> int:
        """Total failed work units across every experiment stage."""
        return sum(self.failures.values())

    @property
    def breaker_tripped(self) -> bool:
        """Whether the circuit breaker tripped at least once this run."""
        return bool(self.breaker.get("trips", 0))

    def to_json(self) -> str:
        """Deterministic report JSON.

        Only experiment *results* are included.  Runtime telemetry
        (``cache``, ``sim``, ``breaker``, ``resume``) is
        deliberately excluded so a resumed run's report is
        byte-identical to an uninterrupted one -- telemetry lives on
        the report object and in the markdown.
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

    def to_markdown(self) -> str:
        sections = ["# Reproduction report\n"]
        for name in ("table1", "table2", "table3", "figure4", "figure7",
                     "figure6", "simfix", "table4", "cache", "sim",
                     "llm", "resume", "breaker", "failures"):
            if name in self.rendered:
                sections.append(f"## {name}\n\n```\n{self.rendered[name]}\n```\n")
        return "\n".join(sections)


def report_manifest(scale: ReportScale, llm: Optional[dict] = None) -> dict:
    """The checkpoint manifest pinning a full-report run's identity.

    Only result-relevant parameters participate: the scale, plus -- when
    the run routes through an LLM pool -- the pool spec and escalation
    policy (they can change which model answers, so a pooled run must
    not resume a direct run's journal).  Execution knobs (``jobs``,
    ``on_error``, breaker threshold, hedging/limiter settings) are free
    to change between a run and its resume; omitting the ``llm`` key
    when no pool is configured keeps old manifests valid.
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
    breaker_threshold: int = 0,
    should_stop: Optional[Callable[[], bool]] = None,
    llm_pool: Optional[str] = None,
    llm_escalate_after: int = 0,
    llm_hedge: float = 0.0,
) -> FullReport:
    """Run every experiment and collect a paper-vs-measured report.

    The whole run executes under a fresh content-addressed compile cache
    (its hit/miss/eviction counters land in ``report.cache``); ``jobs``
    fans every driver's work units across that many workers (0 = all
    CPUs) without changing any result.  ``on_error="collect"`` turns on
    failure isolation: failed work units are recorded per stage in
    ``report.failures`` instead of aborting the whole report.

    ``run_dir`` makes the run durable: a :class:`~repro.runtime.RunState`
    journals every completed work unit and ``resume=True`` replays the
    journal so only the remainder executes -- the final report (written
    atomically to ``run_dir/report.json``) is byte-identical to an
    uninterrupted run.  ``breaker_threshold`` arms a circuit breaker
    (requires ``on_error="collect"``); ``should_stop`` is polled between
    dispatches for graceful shutdown and raises
    :class:`~repro.errors.RunInterrupted` once in-flight work drains.

    ``llm_pool`` routes every model call through a backend pool
    (:mod:`repro.llm.pool`): the spec string is an escalation ladder
    (e.g. ``"cheap=gpt-3.5-sim,strong=gpt-4-sim"``),
    ``llm_escalate_after`` climbs a rung after that many failed agent
    iterations, and ``llm_hedge`` duplicates a seeded fraction of calls
    to the next rung for tail latency.  Token/cost accounting for the
    whole run lands in ``report.llm``; a pool of simulated tiers with
    escalation disabled produces a report byte-identical to the direct
    run.
    """
    scale = scale or ReportScale()
    if breaker_threshold > 0 and on_error != "collect":
        raise ValueError(
            "breaker_threshold requires on_error='collect' (skipped "
            "trials are collected records, not exceptions)"
        )
    breaker = CircuitBreaker(breaker_threshold) if breaker_threshold > 0 else None
    routing: Optional[RoutingSpec] = None
    if llm_pool:
        routing = RoutingSpec.parse(
            llm_pool, escalate_after=llm_escalate_after, hedge_rate=llm_hedge
        )
    else:
        # Respect a caller-scoped llm_routing spec (how offline suites
        # inject chaos-wrapped pools).
        routing = current().get("llm_routing")
    llm_manifest: Optional[dict] = None
    if routing is not None:
        # Only the result-relevant routing bits: the ladder and the
        # escalation policy.  Hedging and limiter settings are timing-
        # only and may change between a run and its resume.
        llm_manifest = {
            "pool": ",".join(f"{m.name}={m.tier}" for m in routing.members),
            "escalate_after": routing.escalate_after,
        }
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
        report.cache = cache.stats.as_dict()
        report.sim = {
            "engine": current().get("sim_engine", DEFAULT_SIM_ENGINE),
            **verdict_cache.stats.as_dict(),
            **sandbox_stats.as_dict(),
        }
        report.resume = ctx.stats()
        report.rendered["cache"] = "\n".join(
            f"{key}: {value}" for key, value in report.cache.items()
        )
        report.rendered["sim"] = "\n".join(
            f"{key}: {value}" for key, value in report.sim.items()
        )
        if routing is not None:
            ledger = llm_counter.as_dict()
            report.llm = {"routing": routing.describe(), **ledger}
            llm_lines = [f"routing: {routing.describe()}"]
            for backend, usage in ledger["backends"].items():
                llm_lines.append(
                    f"{backend}: "
                    + ", ".join(f"{key}={value}" for key, value in usage.items())
                )
            llm_lines.extend(
                f"{key}: {value}"
                for key, value in ledger.items()
                if key != "backends"
            )
            report.rendered["llm"] = "\n".join(llm_lines)
        report.rendered["resume"] = "\n".join(
            f"{key}: {value}" for key, value in report.resume.items()
        )
        if breaker is not None:
            report.breaker = breaker.snapshot()
            report.rendered["breaker"] = "\n".join(
                f"{key}: {value}" for key, value in report.breaker.items()
            )
        report.rendered["failures"] = "\n".join(
            f"{stage}: {count} failed work unit(s)"
            for stage, count in report.failures.items()
        ) + f"\ntotal: {report.failed_units}"
        if state is not None:
            state.write_report(report.to_json())
        return report
    finally:
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

    tick("Figure 7")
    f7 = run_figure7(
        dataset, repeats=max(1, scale.repeats // 2), jobs=jobs, on_error=on_error,
        ctx=ctx,
    )
    report.failures["figure7"] = len(f7.failures)
    report.figure7 = dict(f7.histogram)
    report.rendered["figure7"] = histogram_figure(f7.histogram)

    tick("Figures 5/6")
    report.figure5 = figure5_logs()
    report.figure6 = figure6_failure_case(repeats=max(4, scale.repeats))
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
