"""Simulated LLM for *logic* (simulation-error) debugging — paper §5.

The paper's preliminary study found LLMs "only exhibited proficiency in
fixing logic implementation errors for simple problems but struggled
with more complex questions".  This debugger reproduces that behaviour:

* a per-sample capability coin, much stingier than the syntax fixer's
  and strongly difficulty-dependent;
* when capable, the model walks the space of plausible single-site
  semantic edits (:mod:`repro.llm.repair.logic_strategies`), relying on
  the agent's simulation feedback to accept or reject each proposal;
* when not capable, it rewrites cosmetically or tweaks the wrong site,
  as real models do when they cannot interpret waveform feedback.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..runtime.accounting import estimate_tokens, tier_family
from ..runtime.faults import stable_unit
from .base import RepairStep
from .pool import EscalatingSession
from .repair.logic_strategies import enumerate_logic_edits

#: Probability that a sample's logic bug is within the model's reach,
#: by (tier, difficulty).  Calibrated to the paper's qualitative claim:
#: useful on simple problems, nearly hopeless on hard ones.
LOGIC_CAPABILITY = {
    ("gpt-3.5", "easy"): 0.55,
    ("gpt-3.5", "hard"): 0.10,
    ("gpt-4", "easy"): 0.75,
    ("gpt-4", "hard"): 0.25,
}


@dataclass
class SimulatedLogicDebugger:
    """RepairModel-like factory for simulation-debugging sessions."""

    tier: str = "gpt-3.5-sim"
    seed: int = 0

    def start(self, code: str, difficulty: str = "hard") -> "LogicDebugSession":
        return LogicDebugSession(self, code, difficulty)


class LogicDebugSession:
    """One logic-debugging conversation; walks candidate edits."""
    def __init__(self, model: SimulatedLogicDebugger, code: str, difficulty: str):
        tier = tier_family(model.tier)
        key = f"logic|{model.seed}|{tier}|{difficulty}|{code}"
        self.rng = random.Random(key)
        ceiling = LOGIC_CAPABILITY[(tier, "easy" if difficulty == "easy" else "hard")]
        self.capable = stable_unit("cap|" + key) < ceiling
        self._candidates = enumerate_logic_edits(code) if self.capable else []
        self.rng.shuffle(self._candidates)
        self._cursor = 0

    def step(self, code: str, feedback: str) -> RepairStep:
        """Propose the next candidate logic edit given waveform feedback."""
        if not self.capable:
            return RepairStep(
                thought="The waveform comparison is hard to interpret; the "
                "implementation looks consistent with the description to me.",
                code=code,
                declared_done=True,
            )
        while self._cursor < len(self._candidates):
            candidate = self._candidates[self._cursor]
            self._cursor += 1
            if candidate != code:
                return RepairStep(
                    thought="The mismatching samples suggest a polarity or "
                    "operator slip; I will try a targeted one-line change "
                    "and re-simulate.",
                    code=candidate,
                )
        return RepairStep(
            thought="I have exhausted the plausible single-site edits "
            "without matching the expected waveform.",
            code=code,
            declared_done=True,
        )


class PooledLogicModel:
    """Logic-debug sessions routed across an LLM-pool escalation ladder.

    The functional-repair counterpart of
    :class:`~repro.llm.pool.PooledRepairModel`; both sessions share
    :class:`~repro.llm.pool.EscalatingSession`'s rung choice and
    booking.  The session starts on the ladder rung matching ``tier``
    (:meth:`~repro.llm.pool.RoutingSpec.base_index`) and climbs one rung
    after every ``escalate_after`` failed iterations reported through
    the duck-typed ``observe`` seam.  Every step is booked against the
    active :class:`~repro.runtime.TokenCounter` at the member tier's
    prices, so the ``# llm:`` ledger covers the functional workload exactly
    like the syntax one.

    With escalation disabled and a ladder whose base rung matches
    ``tier``, results are bit-identical to the direct
    :class:`SimulatedLogicDebugger` (sessions are keyed by the same
    ``(seed, tier-key, difficulty, code)``); the pool only *adds*
    accounting, which is runtime telemetry outside report digests.
    """

    def __init__(self, routing, tier: str = "gpt-3.5-sim", seed: int = 0):
        self.routing = routing
        self.tier = tier
        self.seed = seed

    def with_seed(self, seed: int) -> "PooledLogicModel":
        return PooledLogicModel(self.routing, tier=self.tier, seed=seed)

    def start(self, code: str, difficulty: str = "hard") -> "PooledLogicSession":
        return PooledLogicSession(self, code, difficulty)


class PooledLogicSession(EscalatingSession):
    """One logic-debugging conversation with tier escalation."""

    def __init__(self, model: PooledLogicModel, code: str, difficulty: str):
        super().__init__(model.routing, model.tier)
        self.seed = model.seed
        self.difficulty = difficulty
        self._rung: int | None = None
        self._session: LogicDebugSession | None = None

    def step(self, code: str, feedback: str) -> RepairStep:
        index = self.member_index
        member = self.routing.members[index]
        if self._rung != index:
            # A fresh per-rung session seeded from the current code --
            # the stronger tier re-derives its own capability and
            # candidate walk, like a new model joining the conversation.
            debugger = SimulatedLogicDebugger(tier=member.tier, seed=self.seed)
            self._session = debugger.start(code, self.difficulty)
            self._rung = index
        step = self._session.step(code, feedback)
        prompt_tokens = estimate_tokens(code) + estimate_tokens(feedback)
        completion_tokens = (
            estimate_tokens(step.thought) + estimate_tokens(step.code)
        )
        prompt_price, completion_price = member.prices
        cost = (
            prompt_tokens * prompt_price + completion_tokens * completion_price
        ) / 1000.0
        self.book(index, prompt_tokens, completion_tokens, cost)
        return step
