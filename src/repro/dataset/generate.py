"""Simulated LLM sampling of Verilog solutions.

The paper samples *gpt-3.5-turbo* n=20 times per VerilogEval problem; we
have no API in this environment, so :class:`GenerationModel` emulates
the *statistics* of that process with real artifacts: each sample is
actual Verilog derived from the problem's reference implementation --
kept correct, logic-mutated (compiles, wrong behaviour), or
syntax-broken via the category-labelled error injector.  Rates are
calibrated so that the corpus-level pass@1 and the ~55% syntax share of
failures match the paper's Table 2 / Fig. 4 numbers.

Samples are dressed the way chat LLMs actually answer (markdown fences,
a sentence of prose, occasional degenerate output) so the §3.4 curation
pipeline has real work to do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Literal

from ..diagnostics import ErrorCategory
from .inject import ErrorInjector
from .mutate import force_behavior_change, mutate_logic
from .problem import Problem

SampleKind = Literal["correct", "logic", "syntax", "degenerate"]

#: Per-(benchmark, difficulty) probability that a sample contains a
#: syntax error (Table 2 calibration; see module docstring).
SYNTAX_RATE = {
    ("human", "easy"): 0.26,
    ("human", "hard"): 0.52,
    ("machine", "easy"): 0.24,
    ("machine", "hard"): 0.35,
    # RTLLM prompts are full design specs; gpt-3.5's syntax success rate
    # on them is ~73% (Table 3), i.e. a lower error rate than
    # VerilogEval-hard.
    ("rtllm", "easy"): 0.18,
    ("rtllm", "hard"): 0.30,
}

#: Real LLM sampling is strongly (but not perfectly) bimodal per
#: problem: usually the model either "knows" the trick (most samples
#: right) or does not (almost none), with a band of partially-understood
#: problems in between.  A per-(problem, benchmark) latent draw decides
#: the regime; calibrated so pass@1 *and* pass@5 track Table 2.
P_CORRECT_UNSOLVED = 0.015
PARTIAL_BAND = 0.30  # latent-probability width of the partial regime


def logic_rate(problem: Problem, benchmark: str) -> float:
    """Probability that the model's latent skill covers this problem's
    logic (the 'solved' regime share)."""
    base = problem.base_solve_rate
    if benchmark == "machine":
        # Machine (low-level) descriptions nearly spell out the answer,
        # lifting weak problems the most -- as in VerilogEval-Machine.
        return _clip(0.23 + 0.96 * base)
    # "human" and "rtllm" both use high-level intent descriptions.
    return _clip(1.25 * base - 0.22)


def _clip(x: float, lo: float = 0.01, hi: float = 0.97) -> float:
    return max(lo, min(hi, x))


@dataclass(frozen=True)
class CodeSample:
    """One simulated LLM completion for a problem."""

    problem_id: str
    raw: str  # as the LLM would emit it (may include markdown/prose)
    kind: SampleKind
    seed: int
    injected_category: ErrorCategory | None = None


_PROSE_OPENERS = (
    "Sure! Here is the Verilog implementation:",
    "Here's a module that implements the requested behavior:",
    "The following Verilog code solves the problem:",
)


class GenerationModel:
    """Statistical stand-in for sampling an LLM at a fixed temperature."""

    def __init__(
        self,
        tier: str = "gpt-3.5-sim",
        temperature: float = 0.4,
        seed: int = 0,
    ):
        self.tier = tier
        self.temperature = temperature
        self.seed = seed
        #: Stronger models make fewer syntax errors (§4.3.2).
        self._syntax_scale = 0.25 if tier.startswith("gpt-4") else 1.0
        self._logic_bonus = 0.25 if tier.startswith("gpt-4") else 0.0

    # -- public API -----------------------------------------------------

    def sample(
        self, problem: Problem, benchmark: str = "human", index: int = 0
    ) -> CodeSample:
        """Draw one completion for ``problem``."""
        rng = random.Random(
            f"{self.seed}|{problem.id}|{benchmark}|{index}|{self.tier}"
        )
        kind = self._draw_kind(problem, benchmark, rng)
        injected: ErrorCategory | None = None

        if kind == "degenerate":
            body = self._degenerate(problem, rng)
        else:
            body = problem.reference
            if kind in ("logic", "syntax"):
                logic_ok = kind == "syntax" and rng.random() < self._p_correct(
                    problem, benchmark
                )
                if kind == "logic" or not logic_ok:
                    body = self._mutate_verified(problem, rng)
            if kind == "syntax":
                injector = ErrorInjector(seed=rng.getrandbits(32))
                n_errors = 1 if rng.random() < 0.8 else 2
                injection = injector.inject_random(body, n_errors=n_errors)
                body = injection.code
                injected = injection.category

        raw = self._dress(body, rng)
        return CodeSample(
            problem_id=problem.id, raw=raw, kind=kind, seed=index,
            injected_category=injected,
        )

    def _p_correct(self, problem: Problem, benchmark: str) -> float:
        """Per-sample logic-correctness rate in this problem's regime."""
        key = f"solved|{self.seed}|{problem.id}|{benchmark}|{self.tier}"
        latent = random.Random(key)
        u = latent.random()
        v = latent.random()
        share = logic_rate(problem, benchmark) + self._logic_bonus
        if u < share:
            return 0.70 + 0.30 * v  # solved regime
        if u < share + PARTIAL_BAND:
            return 0.05 + 0.40 * v  # partially understood
        return P_CORRECT_UNSOLVED

    def _mutate_verified(self, problem: Problem, rng: random.Random) -> str:
        """A logic mutation verified to actually change behaviour
        (random operator swaps are sometimes accidentally equivalent)."""
        from ..runtime.cache import cached_compile
        from ..sim import run_differential

        reference = cached_compile(problem.reference).elaborated
        for _ in range(5):
            mutated = mutate_logic(problem.reference, rng)
            if mutated == problem.reference:
                continue
            elaborated = cached_compile(mutated).elaborated
            if elaborated is None:
                continue
            diff = run_differential(elaborated, reference, samples=12, seed=7)
            if not diff.passed:
                return mutated
        forced = force_behavior_change(problem.reference)
        return forced if forced is not None else mutate_logic(problem.reference, rng)

    def sample_n(
        self, problem: Problem, n: int, benchmark: str = "human"
    ) -> list[CodeSample]:
        """Draw ``n`` completions for a problem."""
        return [self.sample(problem, benchmark, index=i) for i in range(n)]

    # -- internals --------------------------------------------------------

    def _draw_kind(
        self, problem: Problem, benchmark: str, rng: random.Random
    ) -> SampleKind:
        p_degenerate = 0.02
        p_syntax = (
            SYNTAX_RATE[(benchmark, problem.difficulty)] * self._syntax_scale
        )
        # Temperature widens the error tail a little around the paper's 0.4.
        p_syntax = min(0.95, p_syntax * (0.6 + self.temperature))

        roll = rng.random()
        if roll < p_degenerate:
            return "degenerate"
        if roll < p_degenerate + p_syntax:
            return "syntax"
        return (
            "correct"
            if rng.random() < self._p_correct(problem, benchmark)
            else "logic"
        )

    def _degenerate(self, problem: Problem, rng: random.Random) -> str:
        if rng.random() < 0.5:
            # Empty module body.
            return problem.header + "\n\nendmodule\n"
        # Pure prose, no code at all.
        return (
            "I'm sorry, implementing this module requires more information "
            "about the timing requirements."
        )

    def _dress(self, body: str, rng: random.Random) -> str:
        """Wrap the code the way a chat model would."""
        style = rng.random()
        if style < 0.35:
            opener = rng.choice(_PROSE_OPENERS)
            return f"{opener}\n\n```verilog\n{body}```\n"
        if style < 0.5:
            return f"```\n{body}```"
        if style < 0.6:
            # A stray `timescale before the module, the paper's rule-fixer
            # target.
            return f"`timescale 1ns/1ps\n{body}"
        return body
