"""Evaluation metrics (paper §4.1).

* :func:`fix_rate` -- Eq. 1: the expectation over problems of c/n where
  c is the number of fixed samples out of n trials.
* :func:`pass_at_k_single` -- Eq. 2: the unbiased pass@k estimator from
  the Codex paper for one problem; the experiment drivers average it
  over problems.
"""

from __future__ import annotations

from math import comb
from typing import Iterable


def fix_rate_single(fixed: int, trials: int) -> float:
    """c/n for one problem."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= fixed <= trials:
        raise ValueError(f"fixed={fixed} outside [0, {trials}]")
    return fixed / trials


def fix_rate(per_problem: Iterable[tuple[int, int]]) -> float:
    """Expectation over problems of c/n (Eq. 1).

    ``per_problem`` yields (fixed, trials) pairs."""
    rates = [fix_rate_single(c, n) for c, n in per_problem]
    if not rates:
        return 0.0
    return sum(rates) / len(rates)


def pass_at_k_single(n: int, c: int, k: int) -> float:
    """Unbiased pass@k for one problem (Eq. 2).

    Probability that at least one of k samples drawn without replacement
    from n samples (of which c are correct) is correct."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 <= c <= n:
        raise ValueError(f"c={c} outside [0, {n}]")
    if k <= 0 or k > n:
        raise ValueError(f"k={k} outside [1, {n}]")
    if n - c < k:
        return 1.0
    return 1.0 - comb(n - c, k) / comb(n, k)
