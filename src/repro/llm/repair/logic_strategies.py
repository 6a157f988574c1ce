"""Candidate edits for *logic* (simulation) debugging — paper §5.

Unlike syntax repair, there is no compiler message pointing at the bug:
the model only sees a waveform-style mismatch report.  What an LLM does
in practice is propose small semantic edits (flip a polarity, swap an
operator, adjust a constant).  :func:`enumerate_logic_edits` produces
that candidate space deterministically; the simulated debugger walks it,
and the agent's simulation feedback decides which candidate survives.
"""

from __future__ import annotations

import re

from ...runtime import cached_compile

_MAX_EDITS = 48


def _swap_sites(code: str, pattern: str, replace) -> list[str]:
    out = []
    for match in re.finditer(pattern, code):
        replacement = replace(match)
        if replacement is None:
            continue
        candidate = code[: match.start()] + replacement + code[match.end() :]
        if candidate != code:
            out.append(candidate)
    return out


def enumerate_logic_edits(code: str) -> list[str]:
    """All single-site semantic edits, deduplicated, compile-verified."""
    candidates: list[str] = []

    candidates += _swap_sites(
        code, r" ([&|]) ",
        lambda m: f" {'|' if m.group(1) == '&' else '&'} ",
    )
    candidates += _swap_sites(
        code, r" ([+-]) ",
        lambda m: f" {'-' if m.group(1) == '+' else '+'} ",
    )
    comparison_flip = {"<": ">", ">": "<", "==": "!=", "!=": "=="}
    candidates += _swap_sites(
        code, r" (<|>|==|!=) ",
        lambda m: f" {comparison_flip[m.group(1)]} ",
    )
    candidates += _swap_sites(
        code, r"if \((\w+)\)", lambda m: f"if (!{m.group(1)})"
    )
    candidates += _swap_sites(
        code, r"if \(!(\w+)\)", lambda m: f"if ({m.group(1)})"
    )
    candidates += _swap_sites(
        code, r"(negedge|posedge) clk",
        lambda m: f"{'posedge' if m.group(1) == 'negedge' else 'negedge'} clk",
    )
    candidates += _swap_sites(
        code, r"\? ([\w\[\]':]+) : ([\w\[\]':]+)",
        lambda m: f"? {m.group(2)} : {m.group(1)}",
    )
    candidates += _swap_sites(
        code, r"= ~\((.+?)\);", lambda m: f"= {m.group(1)};"
    )
    candidates += _swap_sites(
        code, r"= ([\w\[\]]+);", lambda m: f"= ~{m.group(1)};"
    )
    # Off-by-one constant adjustments in both directions.
    for delta in (+1, -1):
        candidates += _swap_sites(
            code, r"(\d+)'d(\d+)",
            lambda m, d=delta: (
                f"{m.group(1)}'d{(int(m.group(2)) + d) % (1 << int(m.group(1)))}"
            ),
        )

    seen: set[str] = set()
    unique: list[str] = []
    for candidate in candidates:
        if candidate in seen:
            continue
        seen.add(candidate)
        if cached_compile(candidate).ok:
            unique.append(candidate)
        if len(unique) >= _MAX_EDITS:
            break
    return unique
