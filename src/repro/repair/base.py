"""The repair kernel's shared vocabulary.

Every repair loop in the repo -- syntax (ReAct, paper §3.2), functional
(§5 extension), and the Table-4-style template workload -- is one
instance of the same detect → localize → propose → verify cycle.  This
module defines the three pluggable protocols the
:class:`~repro.repair.engine.RepairEngine` runs over:

* an :class:`Oracle` decides whether a candidate is correct and turns
  the evidence into feedback (a compiler log, a waveform comparison);
* a :class:`Localizer` narrows the search: expert guidance retrieved
  for a compiler log, or suspect signals/lines ranked from a trace
  diff;
* a :class:`Proposer` produces candidate edits -- an LLM session, a
  rule-based pre-fixer, or a template enumerator.

The protocols are duck-typed (``Protocol``), matching the repo's other
seams (``observe``, ``with_seed``): engine configurations are plain
object composition, no registration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

from .transcript import Transcript


def _head(code: str, lines: int = 3) -> str:
    """The first ``lines`` lines of ``code`` -- transcript action input."""
    return "\n".join(code.strip().split("\n", lines)[:lines])


@dataclass(frozen=True)
class OracleVerdict:
    """One oracle judgement of one candidate.

    ``score`` orders candidates for hill-climbing acceptance (lower is
    better, 0 = correct): the compile oracle scores 0/1, the simulation
    oracle scores the mismatch count.  ``feedback`` is the full text the
    proposer sees next round; ``observation`` is what the transcript
    records (the compile oracle shows the whole log, the simulation
    oracle only the summary line).  ``compiled`` is False when the
    candidate did not even build -- the engine reverts such candidates
    without consulting score at all.
    """

    ok: bool
    score: int
    feedback: str
    observation: str
    compiled: bool = True
    #: The underlying evidence (a CompileResult or SimFeedback) for
    #: detail-hungry localizers; never part of the transcript.
    detail: object = None


@dataclass(frozen=True)
class Suspect:
    """One ranked fault-localization candidate."""

    signal: Optional[str]
    #: 1-based source line, or None when only the signal is known.
    line: Optional[int]
    #: Higher = more suspicious (the trace-diff localizer uses the
    #: mismatching-sample fraction).
    score: float
    reason: str = ""


@dataclass
class Localization:
    """What a localizer narrowed the search down to."""

    #: Expert guidance entries (the RAG action's retrieval results).
    guidance: list = field(default_factory=list)
    #: Ranked fault candidates, most suspicious first.
    suspects: list[Suspect] = field(default_factory=list)
    #: Optional transcript turn announcing the localization (the RAG
    #: turn); ``None`` records nothing.
    turn: Optional[dict] = None

    @property
    def suspect_lines(self) -> list[int]:
        """Suspect source lines in rank order, deduplicated."""
        lines: list[int] = []
        for suspect in self.suspects:
            if suspect.line is not None and suspect.line not in lines:
                lines.append(suspect.line)
        return lines


class Oracle(Protocol):
    """Judges candidates; the engine's detect/verify step."""

    #: Transcript action name for verify turns ("Compiler", "Simulator").
    action: str

    def check(self, code: str) -> OracleVerdict: ...


class Localizer(Protocol):
    """Narrows the fault before each proposal round."""

    def localize(self, code: str, verdict: OracleVerdict) -> Localization: ...


class ProposerSession(Protocol):
    """One stateful conversation/search about one buggy sample."""

    def propose(self, code: str, verdict: OracleVerdict,
                localization: Optional[Localization]): ...


class Proposer(Protocol):
    """Factory for proposer sessions."""

    def start(self, code: str, verdict: OracleVerdict) -> ProposerSession: ...


@dataclass(frozen=True)
class EngineConfig:
    """The per-flavor knobs that make one engine behave like the ReAct
    syntax loop and another like the hill-climbing simulation loop.

    Defaults are the ReAct loop's.  The simulation loop differs on
    every axis: Simulator action, 2-line action input, improving-only
    acceptance, no Finish turns, explicit give-up turn, and it keeps
    consulting an exhausted-but-not-done proposer instead of stopping.
    """

    #: Transcript action recorded for each verify turn.
    action: str = "Compiler"
    max_iterations: int = 10
    #: Lines of the candidate shown as the verify turn's action input.
    head_lines: int = 3
    #: "always" re-roots the search on every candidate (ReAct trusts the
    #: model); "improving" is hill-climbing (accept only a strictly
    #: better score).
    accept: str = "always"
    #: Thought for a Finish turn after a successful verify (None = no
    #: Finish turn, the simulation loop's style).
    finish_thought: Optional[str] = None
    #: Thought for the Finish turn when the *input* already passes,
    #: given whether the rule-based pre-fixer changed it.
    initial_finish: Optional[Callable[[bool], str]] = None
    #: Stop once a verified step declared itself done (ReAct); the
    #: simulation loop instead loops until the proposer gives up.
    stop_after_done: bool = True
    #: Record a Finish["give up"] turn (with the full feedback text)
    #: when the proposer declares done without changing the code.
    give_up_turn: bool = False
    #: Stage label for ambient-deadline checks.
    deadline_stage: str = "repair-iteration"


@dataclass
class RepairOutcome:
    """The engine's result, superset of every agent's result shape."""

    success: bool
    final_code: str
    #: Candidates submitted to the oracle (0 = input already passed).
    iterations: int
    transcript: Transcript = field(default_factory=Transcript)
    #: True when the rule-based pre-fixer materially changed the code.
    rule_fixed: bool = False
    #: Oracle scores before/after (mismatch counts for the simulation
    #: oracle; 0/1 for the compile oracle).
    initial_score: int = 0
    final_score: int = 0
    #: Which proposer produced the winning candidate ("template",
    #: "llm"); empty on failure or when the proposer doesn't say.
    fixed_by: str = ""
    #: Proposer-reported search statistics (templates tried, ...).
    stats: dict = field(default_factory=dict)
