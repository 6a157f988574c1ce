"""The generic repair kernel: detect → localize → propose → verify.

Every repair loop in the repo is one configuration of
:class:`RepairEngine` over the three pluggable protocols --
:class:`Oracle` (:class:`CompileOracle`, :class:`SimOracle`),
:class:`Localizer` (:class:`DiagnosticLocalizer`,
:class:`TraceDiffLocalizer`) and :class:`Proposer`
(:class:`LLMProposer`, :class:`RuleFixProposer`,
:class:`TemplateProposer`, chained by :class:`FallbackProposer`).

This package must not import :mod:`repro.agents` at module level (the
agents are configurations *of* it) and defers :mod:`repro.core` imports
into functions, matching the agents' own cycle-avoidance idiom.
"""

from .base import (
    EngineConfig,
    Localization,
    Localizer,
    Oracle,
    OracleVerdict,
    Proposer,
    ProposerSession,
    RepairOutcome,
    Suspect,
)
from .engine import RepairEngine, result_digest
from .functional import build_functional_engine, repair_functional
from .localizers import DiagnosticLocalizer, TraceDiffLocalizer, suspect_lines
from .oracles import CompileOracle, SimOracle
from .proposers import (
    FallbackProposer,
    LLMProposer,
    LogicModelProposer,
    RuleFixProposer,
    record_rule_fix,
)
from .templates import TEMPLATES, TemplateEdit, TemplateProposer
from .transcript import Transcript, Turn

__all__ = [
    "CompileOracle",
    "DiagnosticLocalizer",
    "EngineConfig",
    "FallbackProposer",
    "LLMProposer",
    "Localization",
    "Localizer",
    "LogicModelProposer",
    "Oracle",
    "OracleVerdict",
    "Proposer",
    "ProposerSession",
    "RepairEngine",
    "RepairOutcome",
    "RuleFixProposer",
    "SimOracle",
    "Suspect",
    "TEMPLATES",
    "TemplateEdit",
    "TemplateProposer",
    "TraceDiffLocalizer",
    "Transcript",
    "Turn",
    "build_functional_engine",
    "record_rule_fix",
    "repair_functional",
    "result_digest",
    "suspect_lines",
]
