"""The Table-4 functional-repair configuration of the engine.

Trace-diff localization feeding a breadth-first template search, with
LLM escalation when the templates dry up: the full
detect → localize → propose → verify stack over the compiled
differential simulator.  This is the workload configuration --
:class:`~repro.agents.simfix.SimDebugAgent` deliberately runs
*without* the localizer and templates so its transcripts stay
bit-identical to the pre-refactor loop (the frozen repair digest pins
them).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..diagnostics import Compiler
from ..scope import current
from .base import EngineConfig, RepairOutcome
from .engine import RepairEngine
from .localizers import TraceDiffLocalizer
from .oracles import SimOracle
from .proposers import FallbackProposer, LogicModelProposer
from .templates import TemplateProposer

#: The simulation flavor of the engine loop, shared with
#: :class:`~repro.agents.simfix.SimDebugAgent`: Simulator action, 2-line
#: action input, improving-only (hill-climbing) acceptance, no Finish
#: turns on success, keep going after a declared-done step that changed
#: the code (or while any proposer in the chain has candidates), and an
#: explicit give-up turn on exhaustion.
FUNCTIONAL_CONFIG = EngineConfig(
    action="Simulator",
    head_lines=2,
    accept="improving",
    finish_thought=None,
    initial_finish=None,
    stop_after_done=False,
    give_up_turn=True,
    deadline_stage="sim-iteration",
)


def default_logic_model():
    """Direct simulated debugger, or the pool-routed variant when the
    runtime scope holds an ``llm_routing`` spec (tier escalation + token
    accounting for the workload)."""
    from ..llm.simfix import PooledLogicModel, SimulatedLogicDebugger

    routing = current().get("llm_routing")
    if routing is not None:
        return PooledLogicModel(routing)
    return SimulatedLogicDebugger()


def build_functional_engine(
    reference_code: str,
    model=None,
    difficulty: str = "hard",
    max_iterations: int = 24,
    sim_samples: int = 16,
    on_turn=None,
) -> RepairEngine:
    """Assemble the Table-4 engine for one golden reference."""
    compiler = Compiler()
    oracle = SimOracle(reference_code, compiler=compiler, samples=sim_samples)
    if model is None:
        model = default_logic_model()
    localizer: Optional[TraceDiffLocalizer] = None
    if oracle.reference is not None:
        localizer = TraceDiffLocalizer(
            oracle.reference, compiler=compiler, samples=sim_samples,
        )
    proposer = FallbackProposer(
        TemplateProposer(),
        LogicModelProposer(model, difficulty),
    )
    config = replace(FUNCTIONAL_CONFIG, max_iterations=max_iterations)
    return RepairEngine(
        oracle, proposer, localizer=localizer, config=config, on_turn=on_turn,
    )


def repair_functional(
    code: str,
    reference_code: str,
    **engine_kwargs,
) -> RepairOutcome:
    """One-call functional repair of ``code`` against a golden
    reference; keyword arguments go to :func:`build_functional_engine`."""
    engine = build_functional_engine(reference_code, **engine_kwargs)
    return engine.run(code)
