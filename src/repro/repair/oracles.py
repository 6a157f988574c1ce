"""Oracles: the engine's detect/verify judges.

* :class:`CompileOracle` -- "correct" means the session-backed
  :class:`~repro.diagnostics.Compiler` reports no errors; the feedback
  is the compiler log (whose flavor is the paper's Table-1 axis).
* :class:`SimOracle` -- "correct" means the candidate matches a golden
  reference in sandboxed differential simulation
  (:func:`~repro.sim.feedback.make_sim_feedback`, memoized in the
  active :class:`~repro.sim.verdict.VerdictCache`); the feedback is the
  §5 waveform-style comparison and the score is the mismatch count.
"""

from __future__ import annotations

from typing import Optional

from ..diagnostics import Compiler
from ..sim.feedback import make_sim_feedback
from .base import OracleVerdict


class CompileOracle:
    """Syntax correctness via one compiler, held for the oracle's whole
    life (its compiles go through the whole-result compile cache)."""

    action = "Compiler"

    def __init__(self, compiler: Optional[Compiler] = None):
        self.compiler = compiler or Compiler()

    def check(self, code: str) -> OracleVerdict:
        result = self.compiler.compile(code)
        return OracleVerdict(
            ok=result.ok, score=0 if result.ok else 1,
            feedback=result.log, observation=result.log, detail=result,
        )


class SimOracle:
    """Functional correctness against a golden reference.

    The reference is compiled eagerly at construction (before any
    candidate -- the pre-engine agent's compile order, which the warm
    compile cache makes free on repeats).  A candidate that does not
    compile comes back ``compiled=False`` with the pre-engine
    "edit broke compilation; reverted" observation; so does every check
    when the *reference* itself failed to elaborate (nothing to judge
    against).
    """

    action = "Simulator"

    def __init__(
        self,
        reference_code: str,
        compiler: Optional[Compiler] = None,
        samples: int = 16,
        seed: int = 0,
    ):
        self.compiler = compiler or Compiler()
        self.samples = samples
        self.seed = seed
        self.reference = self.compiler.compile(reference_code).elaborated

    def check(self, code: str) -> OracleVerdict:
        compiled = self.compiler.compile(code)
        if not compiled.ok or compiled.elaborated is None or self.reference is None:
            return OracleVerdict(
                ok=False, score=0, feedback="",
                observation="edit broke compilation; reverted",
                compiled=False, detail=compiled,
            )
        feedback = make_sim_feedback(
            compiled.elaborated, self.reference, samples=self.samples,
            seed=self.seed,
        )
        return OracleVerdict(
            ok=feedback.passed, score=feedback.mismatch_count,
            feedback=feedback.text,
            observation=feedback.text.split("\n")[0],
            detail=feedback,
        )
