"""Problem definitions for the VerilogEval-style corpora.

A :class:`Problem` bundles everything the benchmarks need: a natural-
language specification in two styles (*human*: high-level intent, the
VerilogEval-Human flavour; *machine*: low-level mechanical description,
the VerilogEval-Machine flavour), the module header given to the model,
and a golden reference implementation used both for differential
functional testing and as the seed for error injection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from ..errors import DatasetError

Difficulty = Literal["easy", "hard"]
Kind = Literal["comb", "seq"]


@dataclass(frozen=True)
class Problem:
    """One benchmark problem."""

    id: str
    human_desc: str
    machine_desc: str
    header: str
    reference: str
    kind: Kind
    difficulty: Difficulty
    #: Intrinsic chance that the simulated generator solves the problem's
    #: *logic* (not syntax) in one shot; per-benchmark modifiers apply on
    #: top.  Roughly: how often gpt-3.5 got this problem right.
    base_solve_rate: float = 0.5

    def description(self, benchmark: str = "human") -> str:
        return self.machine_desc if benchmark == "machine" else self.human_desc


@dataclass
class ProblemSet:
    """An ordered, id-addressable collection of problems."""

    name: str
    problems: list[Problem] = field(default_factory=list)

    def __iter__(self):
        return iter(self.problems)

    def __len__(self) -> int:
        return len(self.problems)

    def get(self, problem_id: str) -> Problem:
        for problem in self.problems:
            if problem.id == problem_id:
                return problem
        raise DatasetError(f"no problem {problem_id!r} in set {self.name!r}")

    def add(self, problem: Problem) -> None:
        if any(p.id == problem.id for p in self.problems):
            raise DatasetError(f"duplicate problem id {problem.id!r}")
        self.problems.append(problem)
