"""Configuration for the RTLFixer framework."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..agents.react import DEFAULT_MAX_ITERATIONS
from ..sim.limits import SimLimits
from ..verilog.limits import ResourceLimits


@dataclass(frozen=True)
class RTLFixerConfig:
    """Everything that varies across the paper's experiments: what one
    repair trial computes.

    Defaults match the paper's best configuration: ReAct prompting with
    RAG over Quartus-quality feedback, gpt-3.5 persona, temperature 0.4,
    at most 10 Thought-Action-Observation iterations.

    How a run of many trials executes -- worker count, failure
    handling, durability, circuit breaking -- is not part of the
    config: callers pass it to the experiment drivers (``jobs=``,
    ``on_error=``) and to the :class:`~repro.runtime.RunContext` that
    owns the run's worker pool.  So every field is part of the trial-key
    :func:`~repro.runtime.checkpoint.config_digest`.
    """

    prompting: str = "react"  # "react" | "oneshot"
    compiler: str = "quartus"  # "simple" | "iverilog" | "quartus"
    use_rag: bool = True
    retriever: str = "exact"  # "exact" | "fuzzy" | "jaccard" | "tfidf"
    tier: str = "gpt-3.5-sim"  # a gpt-3.5* or gpt-4* tier, e.g. "gpt-4-sim"
    temperature: float = 0.4
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    apply_rule_fix: bool = True
    seed: int = 0
    #: Bounded retries for transient model/compiler faults (timeouts,
    #: injected chaos, API hiccups).  0 disables the retry layer; N
    #: allows N re-tries with deterministic exponential backoff
    #: (repro.runtime.RetryPolicy).  Retries never change results on the
    #: happy path -- only TransientError faults are retried.
    max_retries: int = 2
    #: Per-model-call timeout budget in seconds (None = unlimited).
    #: Over-budget calls count as retryable timeouts.
    step_timeout: Optional[float] = None
    #: Whole-repair deadline in seconds (None = unlimited, the batch
    #: default).  When set, :meth:`RTLFixer.fix` scopes an ambient
    #: :class:`repro.service.Deadline` around the run: the ReAct loop
    #: checks it every iteration and the retry layer refuses to dispatch
    #: or back off past it, so an over-budget repair stops mid-run with
    #: DeadlineExceededError.  Unlike ``step_timeout`` this can truncate
    #: a repair and therefore change its result, so it participates in
    #: the trial-key config digest (the repair service instead passes
    #: per-request deadlines ambiently, keeping its job keys
    #: deadline-free so journal replay works across budgets).
    deadline_s: Optional[float] = None
    #: Resource budgets for every compile issued by the fixer's compiler
    #: (None = repro.verilog.limits.DEFAULT_LIMITS).  Budget violations
    #: surface as ordinary RESOURCE_LIMIT diagnostics in the agent's
    #: feedback, so a macro-bomb candidate degrades into a not-fixed
    #: trial instead of hanging or aborting a run.
    compile_limits: Optional[ResourceLimits] = None
    #: Sandbox budgets for every simulation the fixer runs (None =
    #: repro.sim.limits.DEFAULT_SIM_LIMITS).  The simulation counterpart
    #: of ``compile_limits``: budget overflows surface as typed ``limit``
    #: verdicts in the agent's feedback instead of hangs or crashes.
    #: Tighter budgets can change which candidates count as simulable,
    #: so (like ``compile_limits``) this participates in the trial-key
    #: config digest.
    sim_limits: Optional[SimLimits] = None
    #: LLM backend pool spec (repro.llm.pool.RoutingSpec.parse syntax,
    #: e.g. "cheap=gpt-3.5-sim,strong=gpt-4-sim"): route every model
    #: call through an escalation ladder of named backends instead of a
    #: single direct model.  None = direct model (the default).
    llm_pool: Optional[str] = None
    #: Climb one pool rung after this many failed ReAct iterations (the
    #: paper's gpt-3.5 -> gpt-4 axis as a runtime policy).  0 = never
    #: escalate; outage-driven failover still applies.  Changes which
    #: model answers, so (like llm_pool) it is part of the trial-key
    #: config digest.
    llm_escalate_after: int = 0

    def __post_init__(self) -> None:
        if self.prompting not in ("react", "oneshot"):
            raise ValueError(f"prompting must be react|oneshot, got {self.prompting!r}")
        if self.compiler not in ("simple", "iverilog", "quartus"):
            raise ValueError(f"unknown compiler {self.compiler!r}")
        if self.use_rag and self.compiler == "simple":
            raise ValueError(
                "RAG requires a compiler log to retrieve against; the "
                "'simple' feedback setting cannot use RAG (as in Table 1)"
            )
        # The simulated model has personas for these two families only.
        if not self.tier.startswith(("gpt-3.5", "gpt-4")):
            raise ValueError(f"tier must be a gpt-3.5* or gpt-4* model, got {self.tier!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0 (0 disables retries)")
        # NaN compares False both ways, so ``<= 0`` alone lets a NaN
        # budget through, and a NaN budget never runs out.
        for knob in ("step_timeout", "deadline_s"):
            value = getattr(self, knob)
            if value is not None and (not math.isfinite(value) or value <= 0):
                raise ValueError(
                    f"{knob} must be a finite number > 0 seconds (or None)"
                )
        if self.compile_limits is not None and not isinstance(
            self.compile_limits, ResourceLimits
        ):
            raise ValueError(
                "compile_limits must be a ResourceLimits instance or None"
            )
        if self.sim_limits is not None and not isinstance(
            self.sim_limits, SimLimits
        ):
            raise ValueError(
                "sim_limits must be a SimLimits instance or None"
            )
        if self.llm_escalate_after < 0:
            raise ValueError(
                "llm_escalate_after must be >= 0 (0 disables escalation)"
            )

    def label(self) -> str:
        """Human-readable configuration summary for reports."""
        rag = "w/ RAG" if self.use_rag else "w/o RAG"
        return f"{self.prompting}+{self.compiler} {rag} ({self.tier})"
