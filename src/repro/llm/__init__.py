"""LLM layer: the simulated repair model (offline stand-in for GPT-3.5 /
GPT-4), the paper's prompts and the backend pool that routes them to
simulated or OpenAI-API members."""

from .base import ChatMessage, LLMClient, RepairModel, RepairSession, RepairStep
from .openai_stub import (
    ONE_SHOT_SYSTEM_PROMPT,
    REACT_SYSTEM_PROMPT,
    build_repair_messages,
)
from .backends import OpenAIChatClient
from .pool import (
    BackendSpec,
    PooledRepairModel,
    PooledRepairSession,
    RoutingSpec,
    routing_from_config,
)
from .repair.diagnosis import ParsedError, detect_flavor, parse_feedback
from .repair.logic_strategies import enumerate_logic_edits
from .repair.strategies import STRATEGIES, apply_strategy, declared_names
from .simfix import LOGIC_CAPABILITY, PooledLogicModel, SimulatedLogicDebugger
from .simulated import CAPABILITY, CATEGORY_DELTA, ROUND_SUCCESS, SimulatedLLM

__all__ = [
    "BackendSpec",
    "CAPABILITY",
    "CATEGORY_DELTA",
    "ChatMessage",
    "OpenAIChatClient",
    "PooledLogicModel",
    "PooledRepairModel",
    "PooledRepairSession",
    "RoutingSpec",
    "routing_from_config",
    "LLMClient",
    "LOGIC_CAPABILITY",
    "SimulatedLogicDebugger",
    "enumerate_logic_edits",
    "ONE_SHOT_SYSTEM_PROMPT",
    "ParsedError",
    "REACT_SYSTEM_PROMPT",
    "ROUND_SUCCESS",
    "RepairModel",
    "RepairSession",
    "RepairStep",
    "STRATEGIES",
    "SimulatedLLM",
    "apply_strategy",
    "build_repair_messages",
    "declared_names",
    "detect_flavor",
    "parse_feedback",
]
