"""The generic repair loop: detect → localize → propose → verify.

One engine, three plug points (:class:`~repro.repair.base.Oracle`,
:class:`~repro.repair.base.Localizer`,
:class:`~repro.repair.base.Proposer`) and a small
:class:`~repro.repair.base.EngineConfig` of per-flavor knobs.  The
ReAct syntax agent, its One-shot baseline and the simulation-debugging
agent are thin configurations of this loop (bit-identical to their
earlier hand-rolled versions -- ``tests/data/repair_digest.sha256``
and ``repair_digest_oneshot.sha256``, recorded from those loops, pin
that), and the Table-4 functional-repair workload is another.

Cross-cutting service seams live here exactly once:

* the ambient request :class:`~repro.service.deadline.Deadline` is
  checked at the top of every iteration, so an over-budget repair stops
  mid-run with :class:`~repro.errors.DeadlineExceededError`;
* every recorded transcript turn flows through the optional ``on_turn``
  observer (the repair server streams these as SSE events);
* proposer sessions that implement the duck-typed ``observe(ok)``
  escalation seam (:mod:`repro.llm.pool`) hear every verify outcome.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Optional

from ..service.deadline import current_deadline
from .base import (
    EngineConfig,
    Localization,
    Localizer,
    Oracle,
    Proposer,
    RepairOutcome,
    _head,
)
from .transcript import Transcript, Turn


class RepairEngine:
    """Run one repair loop over pluggable oracle/localizer/proposer.

    ``prefix`` is an optional rule-based pre-pass (the
    :class:`~repro.repair.proposers.RuleFixProposer`) applied before the
    first detect; ``on_turn`` observes every transcript turn as it is
    recorded and must never raise.
    """

    def __init__(
        self,
        oracle: Oracle,
        proposer: Proposer,
        localizer: Optional[Localizer] = None,
        config: Optional[EngineConfig] = None,
        prefix=None,
        on_turn: Optional[Callable[[Turn], None]] = None,
    ):
        self.oracle = oracle
        self.proposer = proposer
        self.localizer = localizer
        self.config = config or EngineConfig()
        self.prefix = prefix
        self.on_turn = on_turn

    def _record(self, transcript: Transcript, **turn_fields) -> Turn:
        """Append one transcript turn and notify the observer."""
        turn = transcript.add(**turn_fields)
        if self.on_turn is not None:
            self.on_turn(turn)
        return turn

    @staticmethod
    def _observe(session, ok: bool) -> None:
        """Forward a verify outcome through the duck-typed escalation
        seam; plain sessions have no ``observe()``."""
        notice = getattr(session, "observe", None)
        if callable(notice):
            notice(ok)

    def run(self, code: str) -> RepairOutcome:
        cfg = self.config
        transcript = Transcript()
        rule_fixed = False
        if self.prefix is not None:
            code, rule_fixed = self.prefix.apply(transcript, code, self.on_turn)

        verdict = self.oracle.check(code)
        if not verdict.compiled:
            # The *input* (or the oracle's reference) doesn't build:
            # nothing to repair against.  Matches the pre-engine
            # simulation agent's silent zero-iteration failure.
            return RepairOutcome(
                success=False, final_code=code, iterations=0,
                transcript=transcript, rule_fixed=rule_fixed,
            )
        if verdict.ok:
            if cfg.initial_finish is not None:
                self._record(
                    transcript, thought=cfg.initial_finish(rule_fixed),
                    action="Finish", action_input="answer", observation="",
                )
            return RepairOutcome(
                success=True, final_code=code, iterations=0,
                transcript=transcript, rule_fixed=rule_fixed,
            )

        session = self.proposer.start(code, verdict)
        initial_score = verdict.score
        best_code, best_verdict = code, verdict
        iterations = 0
        for _ in range(cfg.max_iterations):
            # Deadline seam: a repair served past its budget helps no
            # one -- stop mid-loop instead of finishing and discovering
            # the overrun post-hoc.  Batch runs have no ambient deadline
            # and skip this entirely.
            deadline = current_deadline()
            if deadline is not None:
                deadline.check(stage=cfg.deadline_stage)

            localization: Optional[Localization] = None
            if self.localizer is not None:
                localization = self.localizer.localize(best_code, best_verdict)
                if localization is not None and localization.turn is not None:
                    self._record(transcript, **localization.turn)

            step = session.propose(best_code, best_verdict, localization)
            if cfg.give_up_turn and step.declared_done and step.code == best_code:
                self._record(
                    transcript, thought=step.thought, action="Finish",
                    action_input="give up", observation=best_verdict.feedback,
                )
                break
            iterations += 1
            candidate = self.oracle.check(step.code)
            if not candidate.compiled:
                self._observe(session, False)
                self._record(
                    transcript, thought=step.thought, action=cfg.action,
                    action_input=_head(step.code, cfg.head_lines),
                    observation=candidate.observation,
                )
                continue
            self._observe(session, candidate.ok)
            self._record(
                transcript, thought=step.thought, action=cfg.action,
                action_input=_head(step.code, cfg.head_lines),
                observation=candidate.observation,
            )
            if candidate.ok:
                if cfg.finish_thought is not None:
                    self._record(
                        transcript, thought=cfg.finish_thought,
                        action="Finish", action_input="answer", observation="",
                    )
                return RepairOutcome(
                    success=True, final_code=step.code, iterations=iterations,
                    transcript=transcript, rule_fixed=rule_fixed,
                    initial_score=initial_score, final_score=0,
                    fixed_by=getattr(session, "active_name", ""),
                    stats=dict(getattr(session, "stats", {}) or {}),
                )
            if cfg.accept == "always" or candidate.score < best_verdict.score:
                best_code, best_verdict = step.code, candidate
            if cfg.stop_after_done and step.declared_done:
                break
        return RepairOutcome(
            success=False, final_code=best_code, iterations=iterations,
            transcript=transcript, rule_fixed=rule_fixed,
            initial_score=initial_score, final_score=best_verdict.score,
            stats=dict(getattr(session, "stats", {}) or {}),
        )


def result_digest(result) -> str:
    """Content digest of a repair result, transcript included.

    Covers outcome flags, iteration count, final code, mismatch
    bookkeeping (when present) and every recorded turn field.  Works on
    :class:`RepairOutcome`, ``AgentResult`` and ``SimFixResult`` alike;
    the frozen repair digest hashes it over the agents' results.
    """
    payload = {
        "success": bool(result.success),
        "final_code": result.final_code,
        "iterations": result.iterations,
        "rule_fixed": bool(getattr(result, "rule_fixed", False)),
        "initial_mismatches": getattr(result, "initial_mismatches", None),
        "final_mismatches": getattr(result, "final_mismatches", None),
        "turns": [
            [turn.index, turn.thought, turn.action, turn.action_input,
             turn.observation]
            for turn in result.transcript.turns
        ],
    }
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode()).hexdigest()
