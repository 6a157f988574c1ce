"""Agents: the ReAct debugging loop, the One-shot baseline and the §5
simulation-debugging agent, each a configuration of the repair engine."""

from .oneshot import OneShotAgent
from .react import DEFAULT_MAX_ITERATIONS, AgentResult, ReActAgent
from .simfix import SimDebugAgent, SimFixResult
from ..repair.transcript import Transcript, Turn

__all__ = [
    "AgentResult",
    "DEFAULT_MAX_ITERATIONS",
    "SimDebugAgent",
    "SimFixResult",
    "OneShotAgent",
    "ReActAgent",
    "Transcript",
    "Turn",
]
