"""RTLFixer: the public entry point of the framework (paper §3.1).

Wires together the compiler facade, the RAG database + retriever, the
(simulated or API-backed) LLM, and the chosen prompting strategy.  When
``config.max_retries > 0`` (the default) the model and compiler handed
to the agent each sit behind a retrying :class:`~repro.runtime.Guard`,
so transient faults (timeouts, injected chaos, API hiccups) are retried
with deterministic backoff instead of killing the whole debugging run.

>>> from repro.core import RTLFixer
>>> fixer = RTLFixer()                       # ReAct + RAG + Quartus
>>> result = fixer.fix(broken_verilog)
>>> result.success, result.iterations
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Optional

from ..agents.oneshot import OneShotAgent
from ..agents.react import AgentResult, ReActAgent
from ..diagnostics import Compiler
from ..llm.base import RepairModel
from ..llm.pool import PooledRepairModel, routing_from_config
from ..llm.simulated import SimulatedLLM
from ..rag.database import GuidanceDatabase
from ..rag.guidance_data import build_default_database
from ..rag.retrievers import Retriever, make_retriever
from ..runtime.retry import Guard, RetryPolicy
from ..scope import scoped
from ..service.deadline import Deadline, use_deadline
from .config import RTLFixerConfig


class RTLFixer:
    """Automatic syntax-error fixing for Verilog with LLM agents."""

    def __init__(
        self,
        config: Optional[RTLFixerConfig] = None,
        model: Optional[RepairModel] = None,
        database: Optional[GuidanceDatabase] = None,
        **overrides,
    ):
        """``overrides`` are RTLFixerConfig fields, e.g.
        ``RTLFixer(prompting="oneshot", compiler="iverilog")``."""
        if config is None:
            config = RTLFixerConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config object or field overrides, not both")
        self.config = config
        self.compiler = Compiler(
            flavor=config.compiler, limits=config.compile_limits
        )
        self.database = (
            database if database is not None else build_default_database()
        )
        self.retriever: Optional[Retriever] = None
        if config.use_rag:
            self.retriever = make_retriever(
                config.retriever, self.database, config.compiler
            )
        self._assemble(model)

    def _assemble(self, model: Optional[RepairModel]) -> None:
        """Build the parts that depend on the seed: the model, the
        guards around it and around the compiler, and the agent.  The
        compiler, database and retriever do not, so :meth:`with_seed`
        shares them."""
        config = self.config
        self._injected_model = model
        self.model: RepairModel = model or self._build_model(config)

        # Robustness seams: only TransientError faults are ever retried,
        # so wrapping is bit-identical to not wrapping on the happy path.
        agent_model: RepairModel = self.model
        agent_compiler = self.compiler
        if config.max_retries > 0 or config.step_timeout is not None:
            policy = RetryPolicy(
                max_retries=config.max_retries,
                timeout=config.step_timeout,
                seed=config.seed,
            )
            agent_model = Guard(agent_model, policy)
            agent_compiler = Guard(agent_compiler, policy)

        if config.prompting == "react":
            self.agent = ReActAgent(
                model=agent_model,
                compiler=agent_compiler,
                retriever=self.retriever,
                max_iterations=config.max_iterations,
                apply_rule_fix=config.apply_rule_fix,
            )
        else:
            self.agent = OneShotAgent(
                model=agent_model,
                compiler=agent_compiler,
                retriever=self.retriever,
                apply_rule_fix=config.apply_rule_fix,
            )

    @staticmethod
    def _build_model(config: RTLFixerConfig) -> RepairModel:
        """The fixer's own model: pooled when a routing spec is
        configured (``config.llm_pool`` or a scoped ``llm_routing``
        spec, :mod:`repro.scope`), else the direct
        simulated model."""
        routing = routing_from_config(config)
        if routing is not None:
            return PooledRepairModel(
                routing,
                tier=config.tier,
                temperature=config.temperature,
                seed=config.seed,
            )
        return SimulatedLLM(
            tier=config.tier, temperature=config.temperature, seed=config.seed
        )

    @property
    def injected_model(self) -> Optional[RepairModel]:
        """The caller-provided model, or ``None`` when this fixer built
        its own model from config; :meth:`with_seed` carries it into
        every trial, on every backend."""
        return self._injected_model

    def fix(self, code: str, description: str = "") -> AgentResult:
        """Debug one erroneous implementation until it compiles (or the
        iteration budget runs out).

        With ``config.deadline_s`` set, the whole repair runs under an
        ambient :class:`~repro.service.Deadline`: the repair loop and
        the retry layer stop mid-run with
        :class:`~repro.errors.DeadlineExceededError` once the budget is
        gone.  An already-scoped ambient deadline (the repair service's
        per-request budget) is left in place -- the config knob only
        fills the gap for batch callers.  ``config.sim_limits``
        similarly scopes ambient sandbox budgets over the run, so every
        simulation the repair triggers is resource-bounded.
        """
        if self.config.sim_limits is not None:
            with scoped(sim_limits=self.config.sim_limits):
                return self._fix_under_deadline(code, description)
        return self._fix_under_deadline(code, description)

    def _fix_under_deadline(self, code: str, description: str) -> AgentResult:
        if self.config.deadline_s is not None:
            from ..service.deadline import current_deadline

            if current_deadline() is None:
                with use_deadline(Deadline(self.config.deadline_s)):
                    return self.agent.run(code, description=description)
        return self.agent.run(code, description=description)

    def with_seed(self, seed: int) -> "RTLFixer":
        """A copy of this fixer with a different sampling seed (used for
        the paper's n=10 repeated trials).

        A caller-injected model is carried through: it is re-seeded via
        its own ``with_seed`` when it has one (every bundled model
        does), or reused as-is otherwise -- it is never silently
        replaced by a fresh default model.
        """
        model = self._injected_model
        if model is not None:
            reseed = getattr(model, "with_seed", None)
            if callable(reseed):
                model = reseed(seed)
        twin = copy.copy(self)
        twin.config = dataclasses.replace(self.config, seed=seed)
        twin._assemble(model)
        return twin
