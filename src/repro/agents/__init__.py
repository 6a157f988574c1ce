"""Agents: the ReAct debugging loop, the One-shot baseline and the §5
simulation-debugging agent, each a configuration of the repair engine."""

from .oneshot import OneShotAgent
from .prompts import (
    GENERATION_SYSTEM_PROMPT,
    ONE_SHOT_TEMPLATE,
    REACT_INSTRUCTION,
    REACT_QUESTION,
    render_one_shot,
)
from .react import DEFAULT_MAX_ITERATIONS, AgentResult, ReActAgent
from .simfix import SimDebugAgent, SimFixResult
from ..repair.transcript import Transcript, Turn

__all__ = [
    "AgentResult",
    "DEFAULT_MAX_ITERATIONS",
    "SimDebugAgent",
    "SimFixResult",
    "GENERATION_SYSTEM_PROMPT",
    "ONE_SHOT_TEMPLATE",
    "OneShotAgent",
    "REACT_INSTRUCTION",
    "REACT_QUESTION",
    "ReActAgent",
    "Transcript",
    "Turn",
    "render_one_shot",
]
