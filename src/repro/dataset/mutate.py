"""Logic mutations: changes that still *compile* but alter behaviour.

These model the non-syntax half of LLM failures (wrong operator, wrong
polarity, off-by-one constants, wrong clock edge...).  A mutation may
occasionally be functionally equivalent on the sampled stimulus; that is
fine -- real LLM samples are sometimes accidentally right too.
"""

from __future__ import annotations

import random
import re
from typing import Callable, Optional

from ..runtime import cached_compile

Mutation = Callable[[str, random.Random], Optional[str]]


def swap_and_or(code: str, rng: random.Random) -> Optional[str]:
    """Swap one bitwise ``&`` with ``|`` (or vice versa)."""
    sites = list(re.finditer(r" ([&|]) ", code))
    if not sites:
        return None
    site = rng.choice(sites)
    other = "|" if site.group(1) == "&" else "&"
    return code[: site.start()] + f" {other} " + code[site.end() :]


def swap_plus_minus(code: str, rng: random.Random) -> Optional[str]:
    """Swap one ``+`` with ``-`` (or vice versa)."""
    sites = list(re.finditer(r" ([+-]) (?!1\b)", code))
    if not sites:
        sites = list(re.finditer(r" ([+-]) ", code))
    if not sites:
        return None
    site = rng.choice(sites)
    other = "-" if site.group(1) == "+" else "+"
    return code[: site.start()] + f" {other} " + code[site.end() :]


def flip_condition(code: str, rng: random.Random) -> Optional[str]:
    """Negate one ``if (signal)`` condition."""
    sites = list(re.finditer(r"if \((\w+)\)", code))
    if not sites:
        return None
    site = rng.choice(sites)
    return code[: site.start()] + f"if (!{site.group(1)})" + code[site.end() :]


def wrong_edge(code: str, rng: random.Random) -> Optional[str]:
    """Clock on ``negedge`` instead of ``posedge``."""
    if "posedge clk" not in code:
        return None
    return code.replace("posedge clk", "negedge clk", 1)


def off_by_one_constant(code: str, rng: random.Random) -> Optional[str]:
    """Bump one sized decimal literal by one (mod width)."""
    sites = list(re.finditer(r"(\d+)'d(\d+)", code))
    if not sites:
        return None
    site = rng.choice(sites)
    width = int(site.group(1))
    value = (int(site.group(2)) + 1) % (1 << width)
    return code[: site.start()] + f"{width}'d{value}" + code[site.end() :]


def swap_ternary_arms(code: str, rng: random.Random) -> Optional[str]:
    """Exchange the two arms of one ternary."""
    sites = list(re.finditer(r"\? ([\w\[\]':]+) : ([\w\[\]':]+)", code))
    if not sites:
        return None
    site = rng.choice(sites)
    return (
        code[: site.start()]
        + f"? {site.group(2)} : {site.group(1)}"
        + code[site.end() :]
    )


def drop_inversion(code: str, rng: random.Random) -> Optional[str]:
    """Remove one ``~`` from an assignment's RHS."""
    sites = list(re.finditer(r"= ~", code))
    if not sites:
        return None
    site = rng.choice(sites)
    return code[: site.start()] + "= " + code[site.end() :]


def swap_comparison(code: str, rng: random.Random) -> Optional[str]:
    """Flip one comparison operator (< <-> >, == <-> !=)."""
    sites = list(re.finditer(r" (<|>|==|!=) ", code))
    if not sites:
        return None
    site = rng.choice(sites)
    flip = {"<": ">", ">": "<", "==": "!=", "!=": "=="}[site.group(1)]
    return code[: site.start()] + f" {flip} " + code[site.end() :]


MUTATIONS: list[Mutation] = [
    swap_and_or,
    swap_plus_minus,
    flip_condition,
    wrong_edge,
    off_by_one_constant,
    swap_ternary_arms,
    drop_inversion,
    swap_comparison,
]


def force_behavior_change(code: str) -> str | None:
    """Deterministic fallback mutation: invert the first driven value.

    Used when random mutations keep landing on functionally equivalent
    code; inverting a driven expression always changes behaviour."""
    site = re.search(r"(assign\s+\w+(?:\[[^\]]*\])?\s*=\s*)([^;]+);", code)
    if site is None:
        site = re.search(r"(<=\s*)([^;]+);", code)
    if site is None:
        return None
    mutated = (
        code[: site.start()]
        + f"{site.group(1)}~({site.group(2).strip()});"
        + code[site.end() :]
    )
    return mutated if cached_compile(mutated).ok else None


def mutate_logic_labeled(
    code: str, rng: random.Random, attempts: int = 12
) -> tuple[str, str]:
    """Like :func:`mutate_logic`, but also report *which* mutation
    landed -- ``(mutated_code, bug_class)``.

    The bug class is the mutation function's name (``swap_and_or``,
    ``wrong_edge``, ...), or ``"none"`` when nothing applied.  Draws
    from ``rng`` are identical to :func:`mutate_logic`'s, so labeled
    and unlabeled callers sharing a seed see the same mutants."""
    order = MUTATIONS[:]
    rng.shuffle(order)
    tried = 0
    for mutation in order:
        if tried >= attempts:
            break
        tried += 1
        mutated = mutation(code, rng)
        if mutated is None or mutated == code:
            continue
        if cached_compile(mutated).ok:
            return mutated, mutation.__name__
    return code, "none"


def mutate_logic(code: str, rng: random.Random, attempts: int = 12) -> str:
    """Apply one random logic mutation that keeps the code compiling.

    Falls back to the original code when nothing applies (the sample
    then just happens to be correct)."""
    return mutate_logic_labeled(code, rng, attempts)[0]


def draw_logic_bug(code: str, rng: random.Random) -> Optional[tuple[str, str]]:
    """``(mutant, bug_class)``: a :func:`mutate_logic_labeled` draw, or
    when that leaves ``code`` unchanged the ``"forced_inversion"`` of
    :func:`force_behavior_change`; None when neither applies."""
    mutant, bug_class = mutate_logic_labeled(code, rng)
    if mutant != code:
        return mutant, bug_class
    forced = force_behavior_change(code)
    return None if forced is None else (forced, "forced_inversion")
