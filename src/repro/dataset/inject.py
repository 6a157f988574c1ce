"""Syntax-error injection.

The paper's VerilogEval-syntax dataset consists of *naturally occurring*
LLM mistakes.  Our simulated generator reproduces those mistakes by
injecting them into (possibly logic-mutated) reference code: every
transform here corresponds to one error category from the taxonomy in
:mod:`repro.diagnostics.codes`, and produces the kind of source change
an LLM actually makes (dropping a clock from the port list, off-by-one
loop bounds, forgetting ``reg``, C-style ``i++``, ...).

Transforms are plain text edits (the corpus has a fixed formatting
convention, making them reliable); each is validated by the caller via
:func:`verify_injection`, which checks the result really fails to
compile.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..diagnostics import ErrorCategory, compile_source
from ..errors import DatasetError

Transform = Callable[[str, random.Random], Optional[str]]


@dataclass(frozen=True)
class Injection:
    """A successfully injected error."""

    code: str
    category: ErrorCategory
    transform: str
    #: Categories the compiler actually reports for the injected code.
    observed: tuple[ErrorCategory, ...] = field(default=())


# ---------------------------------------------------------------------------
# Individual transforms.  Each returns the modified source, or None when
# the pattern it needs is not present.
# ---------------------------------------------------------------------------


def drop_clk_port(code: str, rng: random.Random) -> Optional[str]:
    """Remove ``input clk`` from the port list (the Fig. 5 bug)."""
    new = re.sub(r"\n\s*input\s+clk\s*,", "", code, count=1)
    if new == code or "posedge clk" not in code:
        return None
    return new


def misspell_signal_use(code: str, rng: random.Random) -> Optional[str]:
    """Misspell one *use* of a declared internal signal."""
    decls = re.findall(r"\b(?:reg|wire)\s*(?:\[[^\]]+\]\s*)?(\w+)\s*;", code)
    rng.shuffle(decls)
    for name in decls:
        uses = [m for m in re.finditer(rf"\b{re.escape(name)}\b", code)]
        if len(uses) < 2:
            continue
        target = uses[-1]
        wrong = name + "_sig"
        return code[: target.start()] + wrong + code[target.end() :]
    return None


def constant_index_overflow(code: str, rng: random.Random) -> Optional[str]:
    """Bump a constant bit-select past the declared MSB (Fig. 2a bug)."""
    decls = {
        m.group(2): int(m.group(1))
        for m in re.finditer(r"\[(\d+):0\]\s*(\w+)", code)
    }
    sites = [
        m
        for m in re.finditer(r"\b(\w+)\[(\d+)\]", code)
        if m.group(1) in decls and int(m.group(2)) <= decls[m.group(1)]
    ]
    if not sites:
        return None
    site = rng.choice(sites)
    msb = decls[site.group(1)]
    return (
        code[: site.start()]
        + f"{site.group(1)}[{msb + 1}]"
        + code[site.end() :]
    )


def loop_bound_off_by_one(code: str, rng: random.Random) -> Optional[str]:
    """Turn ``i < N`` into ``i <= N`` in a for loop: the last iteration
    indexes one past the end (the Fig. 6 family)."""
    match = re.search(r"for\s*\(([^;]+);\s*(\w+)\s*<\s*(\d+)\s*;", code)
    if match is None:
        return None
    return (
        code[: match.start()]
        + f"for ({match.group(1)}; {match.group(2)} <= {match.group(3)};"
        + code[match.end() :]
    )


def drop_output_reg(code: str, rng: random.Random) -> Optional[str]:
    """``output reg x`` -> ``output x`` while x is still assigned in an
    always block: the classic invalid l-value."""
    match = re.search(r"output\s+reg\s+(\[[^\]]+\]\s*)?(\w+)", code)
    if match is None or "always" not in code:
        return None
    name = match.group(2)
    if not re.search(rf"\b{re.escape(name)}\b[^;=]*<?=", code[match.end():]):
        return None
    rng_part = match.group(1) or ""
    return code[: match.start()] + f"output {rng_part}{name}" + code[match.end() :]


def assign_to_input(code: str, rng: random.Random) -> Optional[str]:
    """Add a continuous assignment driving an input port."""
    inputs = re.findall(r"input\s+(?:\[[^\]]+\]\s*)?(\w+)", code)
    inputs = [i for i in inputs if i not in ("clk", "clock")]
    if not inputs:
        return None
    name = rng.choice(inputs)
    return code.replace("endmodule", f"assign {name} = 0;\nendmodule", 1)


def remove_semicolon(code: str, rng: random.Random) -> Optional[str]:
    """Delete the trailing semicolon of one statement line."""
    lines = code.split("\n")
    candidates = [
        i
        for i, line in enumerate(lines)
        if line.rstrip().endswith(";")
        and ("=" in line or "assign" in line)
        and "for" not in line
    ]
    if not candidates:
        return None
    idx = rng.choice(candidates)
    lines[idx] = lines[idx].rstrip()[:-1]
    return "\n".join(lines)


def remove_end(code: str, rng: random.Random) -> Optional[str]:
    """Delete one bare ``end`` line, unbalancing a block."""
    lines = code.split("\n")
    candidates = [i for i, line in enumerate(lines) if line.strip() == "end"]
    if not candidates:
        return None
    del lines[rng.choice(candidates)]
    return "\n".join(lines)


def corrupt_literal(code: str, rng: random.Random) -> Optional[str]:
    """Replace a literal digit with one illegal for its base."""
    sites = list(re.finditer(r"(\d+)'([bdh])([0-9a-fA-F]+)", code))
    if not sites:
        return None
    site = rng.choice(sites)
    base = site.group(2)
    digits = site.group(3)
    bad_digit = {"b": "2", "d": "a", "h": "g"}[base]
    corrupted = digits[:-1] + bad_digit if len(digits) > 1 else bad_digit
    return (
        code[: site.start()]
        + f"{site.group(1)}'{base}{corrupted}"
        + code[site.end() :]
    )


def rename_instance_port(code: str, rng: random.Random) -> Optional[str]:
    """Rename one named port connection to a non-port."""
    sites = list(re.finditer(r"\.(\w+)\(", code))
    if not sites:
        return None
    site = rng.choice(sites)
    return code[: site.start()] + f".{site.group(1)}_p(" + code[site.end() :]


def duplicate_declaration(code: str, rng: random.Random) -> Optional[str]:
    """Duplicate one net/reg/integer declaration line."""
    lines = code.split("\n")
    candidates = [
        i
        for i, line in enumerate(lines)
        if re.match(r"\s*(reg|wire|integer)\b[^=]*;\s*$", line)
    ]
    if not candidates:
        return None
    idx = rng.choice(candidates)
    lines.insert(idx + 1, lines[idx])
    return "\n".join(lines)


def c_style_increment(code: str, rng: random.Random) -> Optional[str]:
    """Turn a for-loop step ``i = i + 1`` into C-style ``i++``."""
    match = re.search(r"(\w+)\s*=\s*\1\s*\+\s*1\s*\)", code)
    if match is None:
        return None
    return code[: match.start()] + f"{match.group(1)}++)" + code[match.end() :]


def c_style_compound(code: str, rng: random.Random) -> Optional[str]:
    """Turn ``x = x + k;`` into the C-style ``x += k;``."""
    match = re.search(r"(\w+)\s*=\s*\1\s*\+\s*([\w\[\]']+);", code)
    if match is None:
        return None
    return (
        code[: match.start()]
        + f"{match.group(1)} += {match.group(2)};"
        + code[match.end() :]
    )


def break_event_control(code: str, rng: random.Random) -> Optional[str]:
    """Damage a sensitivity list (``@(posedge)``, ``@()`` or none)."""
    if "@(posedge clk)" in code and rng.random() < 0.5:
        return code.replace("@(posedge clk)", "@(posedge)", 1)
    if "@(*)" in code:
        return code.replace("@(*)", "@()", 1)
    if "@(posedge clk)" in code:
        return code.replace("@(posedge clk)", "", 1)
    return None


def misspell_assign(code: str, rng: random.Random) -> Optional[str]:
    """Misspell the ``assign`` keyword (``asign``)."""
    if "assign " not in code:
        return None
    return code.replace("assign ", "asign ", 1)


def double_equals_assign(code: str, rng: random.Random) -> Optional[str]:
    """Turn a continuous assignment's ``=`` into ``==``."""
    match = re.search(r"assign\s+(\w+(?:\[[^\]]*\])?)\s*=", code)
    if match is None:
        return None
    return code[: match.end()] + "=" + code[match.end() :]


#: Category -> applicable transforms, tried in order of preference.
TRANSFORMS: dict[ErrorCategory, list[Transform]] = {
    ErrorCategory.UNDECLARED_ID: [drop_clk_port, misspell_signal_use],
    ErrorCategory.INDEX_RANGE: [constant_index_overflow, loop_bound_off_by_one],
    ErrorCategory.INVALID_LVALUE: [drop_output_reg, assign_to_input],
    ErrorCategory.MISSING_SEMICOLON: [remove_semicolon],
    ErrorCategory.UNBALANCED_BLOCK: [remove_end],
    ErrorCategory.BAD_LITERAL: [corrupt_literal],
    ErrorCategory.PORT_MISMATCH: [rename_instance_port],
    ErrorCategory.DUPLICATE_DECL: [duplicate_declaration],
    ErrorCategory.C_STYLE_SYNTAX: [c_style_increment, c_style_compound],
    ErrorCategory.EVENT_EXPR: [break_event_control],
    ErrorCategory.SYNTAX_NEAR: [misspell_assign, double_equals_assign],
}

_TRANSFORM_NAMES: dict[Transform, str] = {
    fn: fn.__name__ for fns in TRANSFORMS.values() for fn in fns
}


def verify_injection(code: str) -> tuple[ErrorCategory, ...]:
    """Compile the injected code and return the observed categories;
    empty tuple means the injection failed to break the code."""
    result = compile_source(code)
    if result.ok:
        return ()
    return tuple(result.categories)


class ErrorInjector:
    """Injects category-labelled syntax errors into working Verilog."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def inject(
        self, code: str, category: ErrorCategory, validate: bool = True
    ) -> Optional[Injection]:
        """Inject one error of ``category``; None if no transform applies
        (or validation shows the code still compiles)."""
        transforms = list(TRANSFORMS.get(category, []))
        self.rng.shuffle(transforms)
        for transform in transforms:
            mutated = transform(code, self.rng)
            if mutated is None or mutated == code:
                continue
            observed: tuple[ErrorCategory, ...] = ()
            if validate:
                observed = verify_injection(mutated)
                if not observed:
                    continue
            return Injection(
                code=mutated,
                category=category,
                transform=_TRANSFORM_NAMES[transform],
                observed=observed,
            )
        return None

    def inject_random(
        self, code: str, n_errors: int = 1, validate: bool = True
    ) -> Injection:
        """Inject ``n_errors`` errors of randomly chosen categories.

        Raises DatasetError when nothing applies (should not happen for
        corpus references).
        """
        categories = list(TRANSFORMS)
        current = code
        applied: list[Injection] = []
        for _ in range(n_errors):
            self.rng.shuffle(categories)
            for category in categories:
                injection = self.inject(current, category, validate=False)
                if injection is not None:
                    current = injection.code
                    applied.append(injection)
                    break
        if not applied:
            raise DatasetError("no error-injection transform applies to this code")
        observed = verify_injection(current) if validate else ()
        if validate and not observed:
            # Extremely unlikely; fall back to a guaranteed breaker.
            current = misspell_assign(current, self.rng) or current + "\n@@"
            observed = verify_injection(current)
        return Injection(
            code=current,
            category=applied[0].category,
            transform="+".join(i.transform for i in applied),
            observed=observed,
        )
