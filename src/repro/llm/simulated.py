"""The simulated LLM repair model.

This is the reproduction's stand-in for gpt-3.5-turbo / GPT-4 (see
DESIGN.md).  It is a *mechanical* debugger whose skill is throttled by
calibrated knobs:

* **capability** -- per-sample ceiling: some erroneous samples are
  simply beyond the model no matter how many rounds it gets (the paper's
  "failure due to LLM's incapability", e.g. index arithmetic).  Whether
  a sample is within capability is a deterministic coin on (sample,
  tier, feedback flavour, RAG), biased by the sample's error categories
  (index-range arithmetic is hard, missing semicolons are easy).
* **round success** -- per-turn chance that a capable model reads the
  feedback correctly and applies the right strategy at the right site.
  One-shot prompting gets one turn; ReAct gets up to ten, which is why
  it approaches the capability ceiling.

When a turn succeeds the model applies the *real* corrective edits from
:mod:`repro.llm.repair.strategies`; when it fails it applies a plausible
botched edit.  Either way the result is genuine Verilog judged by the
real compiler -- the tables in the paper emerge from this interaction,
not from hard-coded numbers.

Honesty note: with "Simple" feedback (no compiler log) and for ambiguous
iverilog messages, a real LLM relies on latent knowledge to localize the
bug.  The simulated model stands in for that latent knowledge by
consulting the compiler internally (through the compile cache, like
every other compile), *gated by the same probability knobs* -- the
gate, not the knowledge, is what the experiments measure.
"""

from __future__ import annotations

import random

from ..diagnostics import ErrorCategory

# Unused here, but kept bound: perfbench/tracer.py rebinds this alias
# and fails to install without it.
from ..diagnostics import compile_source  # noqa: F401
from ..rag.database import GuidanceEntry
from ..runtime.accounting import tier_family
from ..runtime.cache import cached_compile
from ..runtime.faults import stable_unit
from .base import RepairStep
from .repair.diagnosis import ParsedError, read_feedback
from .repair.strategies import STRATEGIES, apply_strategy

#: Per-sample fix-rate ceilings, calibrated to Table 1 (see DESIGN.md).
CAPABILITY: dict[str, dict[tuple[str, bool], float]] = {
    "gpt-3.5": {
        ("simple", False): 0.70,
        ("iverilog", False): 0.72,
        ("quartus", False): 0.79,
        ("simple", True): 0.69,
        ("iverilog", True): 0.81,
        ("quartus", True): 0.99,
    },
    "gpt-4": {
        ("simple", False): 0.86,
        ("iverilog", False): 0.89,
        ("quartus", False): 0.90,
        ("simple", True): 0.88,
        ("iverilog", True): 0.95,
        ("quartus", True): 0.995,
    },
}

#: Per-turn success probability for capable samples.
ROUND_SUCCESS: dict[str, dict[tuple[str, bool], float]] = {
    "gpt-3.5": {
        ("simple", False): 0.63,
        ("iverilog", False): 0.70,
        ("quartus", False): 0.68,
        ("simple", True): 0.60,
        ("iverilog", True): 0.95,
        ("quartus", True): 0.90,
    },
    "gpt-4": {
        ("simple", False): 0.90,
        ("iverilog", False): 0.95,
        ("quartus", False): 0.99,
        ("simple", True): 0.92,
        ("iverilog", True): 0.98,
        ("quartus", True): 0.99,
    },
}

#: Category hardness: shifts the capability ceiling per sample.  Index
#: arithmetic is the paper's canonical unfixable case (Fig. 6).
CATEGORY_DELTA: dict[ErrorCategory, float] = {
    # Roughly zero-mean under the dataset's category histogram, so the
    # aggregate fix rate tracks the CAPABILITY table while individual
    # samples still vary by hardness.
    ErrorCategory.INDEX_RANGE: -0.27,
    ErrorCategory.SYNTAX_NEAR: -0.12,
    ErrorCategory.UNBALANCED_BLOCK: -0.08,
    ErrorCategory.PORT_MISMATCH: -0.04,
    ErrorCategory.EVENT_EXPR: -0.02,
    ErrorCategory.INVALID_LVALUE: 0.0,
    ErrorCategory.UNDECLARED_ID: +0.01,
    ErrorCategory.BAD_LITERAL: +0.01,
    ErrorCategory.C_STYLE_SYNTAX: +0.02,
    ErrorCategory.DUPLICATE_DECL: +0.03,
    ErrorCategory.MISSING_SEMICOLON: +0.03,
}


class SimulatedLLM:
    """RepairModel implementation with tier personas."""

    def __init__(self, tier: str = "gpt-3.5-sim", temperature: float = 0.4, seed: int = 0):
        self.tier = tier
        self.temperature = temperature
        self.seed = seed

    def with_seed(self, seed: int) -> "SimulatedLLM":
        """A copy of this model with a different sampling seed (same
        tier and temperature) -- the per-trial re-seeding hook used by
        ``RTLFixer.with_seed`` for the paper's repeated trials."""
        return SimulatedLLM(tier=self.tier, temperature=self.temperature, seed=seed)

    def start(self, code: str, flavor: str, use_rag: bool) -> "SimulatedRepairSession":
        return SimulatedRepairSession(self, code, flavor, use_rag)


class SimulatedRepairSession:
    """One debugging conversation; holds the capability coin."""

    def __init__(self, model: SimulatedLLM, code: str, flavor: str, use_rag: bool):
        self.model = model
        self.flavor = flavor
        self.use_rag = use_rag
        tier = tier_family(model.tier)
        key = f"{model.seed}|{tier}|{flavor}|{use_rag}|{code}"
        self.rng = random.Random(key)

        ceiling = CAPABILITY[tier][(flavor, use_rag)]
        # Category hardness matters most when the model has headroom to
        # fail; near-perfect configurations (ReAct+RAG+Quartus) are
        # limited only by genuinely-unfixable samples.
        ceiling += self._difficulty_delta(code) * min(1.0, 2.5 * (1.0 - ceiling))
        # Temperature around the paper's 0.4 mildly widens/narrows skill.
        ceiling -= (model.temperature - 0.4) * 0.10
        self.capable = stable_unit("cap|" + key) < max(0.01, min(0.995, ceiling))
        self.round_p = ROUND_SUCCESS[tier][(flavor, use_rag)]
        self.attempt = 0

    @staticmethod
    def _difficulty_delta(code: str) -> float:
        result = cached_compile(code)
        categories = result.categories
        if not categories:
            return 0.0
        delta = sum(CATEGORY_DELTA.get(c, 0.0) for c in categories) / len(categories)
        # Multi-error samples are harder to fully fix.
        if len(result.errors) >= 3:
            delta -= 0.05
        return delta

    # -- the model turn -----------------------------------------------------

    def step(
        self,
        code: str,
        feedback: str,
        guidance: list[GuidanceEntry],
    ) -> RepairStep:
        self.attempt += 1
        errors = self._believed_errors(code, feedback, guidance)

        if not errors:
            # Nothing the model can see to fix: it asserts the code is fine
            # (the paper's "confident in incorrect syntax" failure mode).
            return RepairStep(
                thought="I reviewed the code and believe it is now "
                "syntactically correct.",
                code=code,
                declared_done=True,
            )

        if not self.capable and self.attempt >= 2:
            # The paper's hard-failure mode: the model keeps re-emitting
            # essentially the same wrong code, then insists it is correct.
            return RepairStep(
                thought="I have fixed every issue I can identify; the "
                "remaining message appears spurious.",
                code=code,
                declared_done=self.attempt >= 3,
            )

        success = self.capable and self.rng.random() < self.round_p
        if success:
            revised, notes = self._apply_correct(code, errors)
            thought = self._thought(errors, guidance, notes, success=True)
        else:
            revised, notes = self._apply_some(code, errors)
            thought = self._thought(errors, guidance, notes, success=False)
        return RepairStep(
            thought=thought,
            code=revised,
            used_guidance=tuple(guidance[:2]),
        )

    # -- belief formation --------------------------------------------------

    def _believed_errors(
        self, code: str, feedback: str, guidance: list[GuidanceEntry]
    ) -> list[ParsedError]:
        if feedback:
            flavor, errors = read_feedback(feedback)
        else:
            flavor, errors = self.flavor, ()

        if flavor == "simple" or not errors:
            return self._blind_diagnosis(code)

        # Ambiguous messages (bare "syntax error"): latent knowledge,
        # gated by skill, resolves them; retrieved guidance is the
        # fallback hint when that fails.
        resolved: list[ParsedError] = []
        guided = [g.category for g in guidance]
        for error in errors:
            if error.category is not None:
                resolved.append(error)
                continue
            if self.rng.random() < (0.75 if self.capable else 0.3):
                resolved.extend(self._true_errors_at(code, error.line))
            elif guided:
                resolved.append(ParsedError(category=guided[0], line=error.line,
                                            details=error.details))
            else:
                resolved.append(error)  # stays ambiguous
        return resolved

    def _blind_diagnosis(self, code: str) -> list[ParsedError]:
        """No usable feedback: the model re-reads the code itself."""
        p_spot = 0.8 if self.capable else 0.25
        if self.rng.random() < p_spot:
            return self._true_errors_at(code, line=None)
        # Hallucinated diagnosis: a random category at a random line.
        category = self.rng.choice(list(STRATEGIES))
        line = self.rng.randint(1, max(1, code.count("\n")))
        return [ParsedError(category=category, line=line)]

    def _true_errors_at(self, code: str, line: int | None) -> list[ParsedError]:
        """Latent-knowledge oracle (see module docstring): the real
        errors, optionally filtered near a reported line."""
        result = cached_compile(code)
        errors = [
            ParsedError(category=d.category, line=d.line, details=dict(d.args))
            for d in result.errors
        ]
        if line is not None:
            near = [e for e in errors if e.line is not None and abs(e.line - line) <= 2]
            if near:
                return near
        return errors

    # -- edit application -----------------------------------------------------

    def _apply_correct(
        self, code: str, errors: list[ParsedError]
    ) -> tuple[str, list[str]]:
        """Success path: a capable model emits one revision that fixes
        everything it saw -- including follow-on errors exposed by its
        own edits (it proof-reads before answering)."""
        notes: list[str] = []
        current = code
        for error in errors[:4]:
            revised = apply_strategy(current, error, self.rng, botch=False)
            if revised is not None:
                current = revised
                notes.append(self._describe(error))
        for _ in range(3):
            remaining = cached_compile(current)
            if remaining.ok:
                break
            progressed = False
            for diag in remaining.errors[:4]:
                error = ParsedError(
                    category=diag.category, line=diag.line, details=dict(diag.args)
                )
                revised = apply_strategy(current, error, self.rng, botch=False)
                if revised is not None:
                    current = revised
                    progressed = True
            if not progressed:
                break
        return current, notes

    def _apply_some(self, code: str, errors: list[ParsedError]) -> tuple[str, list[str]]:
        """Failure path: a plausible wrong edit.

        Capable models near-miss (botched variant of the right repair);
        incapable ones mostly touch the wrong thing or nothing at all,
        so lucky fixes stay rare across retries."""
        error = self.rng.choice(errors)
        roll = self.rng.random()
        if self.capable:
            # Near-misses that do not destroy information, so a later
            # round can still land the real fix.
            if roll < 0.45:
                wrong = ParsedError(
                    category=self.rng.choice(list(STRATEGIES)), line=error.line
                )
                revised = apply_strategy(code, wrong, self.rng, botch=False)
                if revised is not None:
                    return revised, [f"attempted a fix for {self._describe(wrong)}"]
            if roll < 0.7:
                return (
                    code + f"\n// reviewed: {self._describe(error)}\n",
                    ["made a cosmetic edit"],
                )
            return code, ["re-emitted the code unchanged"]
        # Incapable: plausible but wrong, sometimes destructive edits.
        if roll < 0.35:
            revised = apply_strategy(code, error, self.rng, botch=True)
            if revised is not None:
                return revised, [f"attempted a fix for {self._describe(error)}"]
        if roll < 0.65:
            wrong = ParsedError(
                category=self.rng.choice(list(STRATEGIES)), line=error.line
            )
            revised = apply_strategy(code, wrong, self.rng, botch=False)
            if revised is not None:
                return revised, [f"attempted a fix for {self._describe(wrong)}"]
        return code, ["re-emitted the code unchanged"]

    # -- narration ---------------------------------------------------------

    @staticmethod
    def _describe(error: ParsedError) -> str:
        label = error.category.value if error.category else "an unclear syntax error"
        where = f" at line {error.line}" if error.line else ""
        name = error.details.get("name")
        subject = f" on '{name}'" if name else ""
        return f"{label}{subject}{where}"

    def _thought(
        self,
        errors: list[ParsedError],
        guidance: list[GuidanceEntry],
        notes: list[str],
        success: bool,
    ) -> str:
        seen = ", ".join(self._describe(e) for e in errors[:3])
        parts = [f"The feedback indicates {seen}."]
        if guidance:
            parts.append(
                f"Retrieved guidance suggests: {guidance[0].guidance.split('.')[0]}."
            )
        if success:
            parts.append("I will revise the code accordingly and recompile.")
        elif notes:
            parts.append(f"I {notes[0]} and will recompile to check.")
        return " ".join(parts)
