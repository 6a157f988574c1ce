"""Repair strategies: real source-level fixes, one family per category.

Each strategy has a *correct* path (what a competent engineer -- or an
LLM on a good day -- would do) and a *botched* path (a plausible wrong
edit: declaring the missing clock as an internal reg, deleting the
offending line, widening a vector instead of fixing the index...).  The
simulated LLM chooses between them according to its skill knobs; the
compiler then judges the result for real.
"""

from __future__ import annotations

import difflib
import random
import re
from typing import Optional

from ...diagnostics import ErrorCategory
from .diagnosis import ParsedError

_CLOCKISH = ("clk", "clock", "reset", "areset", "rst", "arst", "en", "enable")


# ---------------------------------------------------------------------------
# Small text utilities
# ---------------------------------------------------------------------------


def _lines(code: str) -> list[str]:
    return code.split("\n")


def _line_text(code: str, line: Optional[int]) -> str:
    if line is None:
        return ""
    lines = _lines(code)
    if 1 <= line <= len(lines):
        return lines[line - 1]
    return ""


def _replace_line(code: str, line: int, new_text: str) -> str:
    lines = _lines(code)
    if 1 <= line <= len(lines):
        lines[line - 1] = new_text
    return "\n".join(lines)


def _insert_before_line(code: str, line: int, new_text: str) -> str:
    lines = _lines(code)
    index = max(0, min(line - 1, len(lines)))
    lines.insert(index, new_text)
    return "\n".join(lines)


def declared_names(code: str) -> list[str]:
    """Signals declared anywhere in the module (ports + nets)."""
    names: list[str] = []
    for match in re.finditer(
        r"\b(?:input|output|inout|wire|reg|logic|integer)\b[^;,()]*?(\w+)\s*(?:[;,)\[=]|$)",
        code,
    ):
        name = match.group(1)
        if name not in names and name not in (
            "reg", "wire", "logic", "signed", "integer",
        ):
            names.append(name)
    return names


def _add_port(code: str, name: str) -> Optional[str]:
    """Insert ``input name,`` as the first port of the first module."""
    match = re.search(r"module\s+\w+\s*\(", code)
    if match is None:
        return None
    return code[: match.end()] + f"\n  input {name}," + code[match.end() :]


# ---------------------------------------------------------------------------
# Correct-path strategies
# ---------------------------------------------------------------------------


_KEYWORDS = ("assign", "module", "endmodule", "begin", "end", "wire", "reg",
             "always", "input", "output", "case", "endcase", "integer")


def fix_undeclared(code: str, error: ParsedError, rng: random.Random) -> Optional[str]:
    """Correct repair: declare/rename the missing identifier (clk -> port)."""
    name = error.details.get("name")
    if not name:
        return None
    # A "missing signal" that is really a misspelled keyword (asign,
    # modul, begn...): fix the spelling, do not declare it.
    keyword = difflib.get_close_matches(name, _KEYWORDS, n=1, cutoff=0.8)
    if keyword and name not in _KEYWORDS:
        return re.sub(rf"\b{re.escape(name)}\b", keyword[0], code)
    if any(name.startswith(p) or name in _CLOCKISH for p in ("clk", "clock")):
        return _add_port(code, name)
    close = difflib.get_close_matches(name, declared_names(code), n=1, cutoff=0.6)
    if close:
        return re.sub(rf"\b{re.escape(name)}\b", close[0], code)
    if name in _CLOCKISH:
        return _add_port(code, name)
    # Last resort: declare it.
    match = re.search(r"module[^;]*;", code, re.DOTALL)
    if match is None:
        return None
    return code[: match.end()] + f"\nwire {name};" + code[match.end() :]


def fix_index_range(code: str, error: ParsedError, rng: random.Random) -> Optional[str]:
    """Correct repair: fix the loop bound or clamp the index into range."""
    name = error.details.get("name")
    index = error.details.get("index")
    if name is None or index is None:
        return None
    decl = re.search(rf"\[(\d+):0\]\s*{re.escape(name)}\b", code)
    msb = int(decl.group(1)) if decl else None
    # First preference: an off-by-one loop bound that produced this index.
    loop = re.search(rf"(<=)\s*{index}\b", code)
    if loop is not None and index > 0:
        return code[: loop.start(1)] + "<" + code[loop.end(1) :]
    if msb is None:
        return None
    # Otherwise clamp the literal index back into range.
    target = msb if index > msb else 0
    site = re.search(rf"{re.escape(name)}\s*\[\s*{index}\s*\]", code)
    if site is None:
        return None
    return code[: site.start()] + f"{name}[{target}]" + code[site.end() :]


def fix_invalid_lvalue(code: str, error: ParsedError, rng: random.Random) -> Optional[str]:
    """Correct repair: add ``reg`` or drop the assign driving an input."""
    name = error.details.get("name")
    if not name:
        return None
    # Assigning an input port?  Remove the offending continuous assign.
    if re.search(rf"input\b[^;,)]*\b{re.escape(name)}\b", code):
        new = re.sub(rf"\n\s*assign\s+{re.escape(name)}\s*=[^;]*;", "", code, count=1)
        return new if new != code else None
    # Output/wire written procedurally: add the reg keyword.
    port = re.search(rf"\boutput\s+(\[[^\]]+\]\s*)?{re.escape(name)}\b", code)
    if port is not None:
        rng_part = port.group(1) or ""
        return (
            code[: port.start()]
            + f"output reg {rng_part}{name}"
            + code[port.end() :]
        )
    net = re.search(rf"\bwire\s+(\[[^\]]+\]\s*)?{re.escape(name)}\b", code)
    if net is not None:
        rng_part = net.group(1) or ""
        return code[: net.start()] + f"reg {rng_part}{name}" + code[net.end() :]
    return None


def fix_missing_semicolon(code: str, error: ParsedError, rng: random.Random) -> Optional[str]:
    """Correct repair: terminate the reported statement."""
    line = error.line
    if line is None:
        return None
    text = _line_text(code, line)
    stripped = text.strip()
    if stripped in ("end", "endmodule", "begin", "endcase", "endfunction", ""):
        return None
    if stripped.endswith((";", "begin", "end", ")")) and not _needs_semi(text):
        return None
    return _replace_line(code, line, text.rstrip() + ";")


def _needs_semi(text: str) -> bool:
    stripped = text.rstrip()
    return bool(stripped) and not stripped.endswith(";") and (
        "=" in stripped or "assign" in stripped
    )


def fix_unbalanced(code: str, error: ParsedError, rng: random.Random) -> Optional[str]:
    """Correct repair: insert the expected end/endcase/endmodule."""
    expected = error.details.get("expected", "end")
    line = error.line
    if line is None:
        # Fall back: insert before the final endmodule.
        idx = code.rfind("endmodule")
        if idx == -1:
            return None
        return code[:idx] + f"{expected}\n" + code[idx:]
    return _insert_before_line(code, line, expected)


def fix_bad_literal(code: str, error: ParsedError, rng: random.Random) -> Optional[str]:
    """Correct repair: rewrite illegal literal digits for the base."""
    literal = error.details.get("literal")
    if literal:
        site = code.find(literal)
        if site != -1:
            return code[:site] + _repair_literal(literal) + code[site + len(literal):]
    # No literal text in the message: scan for a malformed literal.
    for match in re.finditer(r"\d+'[bdh][0-9a-zA-Z]+", code):
        repaired = _repair_literal(match.group(0))
        if repaired != match.group(0):
            return code[: match.start()] + repaired + code[match.end() :]
    return None


def _repair_literal(literal: str) -> str:
    match = re.match(r"(\d+)'s?([bdhoq])(\w*)", literal)
    if match is None:
        return literal
    width, base, digits = match.groups()
    if base == "q":  # unknown base character: assume hex was intended
        base = "h"
    legal = {"b": "01xz", "d": "0123456789", "h": "0123456789abcdef",
             "o": "01234567"}[base]
    fixed = "".join(d if d.lower() in legal else "0" for d in digits)
    return f"{width}'{base}{fixed or '0'}"


def fix_port_mismatch(code: str, error: ParsedError, rng: random.Random) -> Optional[str]:
    """Correct repair: rename the connection to the closest real port."""
    port = error.details.get("port") or error.details.get("name")
    module = error.details.get("module")
    if not port:
        return None
    candidates: list[str] = []
    if module:
        decl = re.search(
            rf"module\s+{re.escape(module)}\s*\((.*?)\);", code, re.DOTALL
        )
        if decl:
            candidates = re.findall(
                r"(?:input|output|inout)[^,)]*?(\w+)\s*(?:,|$)", decl.group(1)
            )
    if not candidates:
        candidates = declared_names(code)
    close = difflib.get_close_matches(port, candidates, n=1, cutoff=0.5)
    if not close:
        return None
    site = re.search(rf"\.{re.escape(port)}\s*\(", code)
    if site is None:
        return None
    return code[: site.start()] + f".{close[0]}(" + code[site.end() :]


def fix_duplicate(code: str, error: ParsedError, rng: random.Random) -> Optional[str]:
    """Correct repair: delete the redundant declaration."""
    name = error.details.get("name")
    if not name:
        return None
    pattern = re.compile(
        rf"^\s*(?:reg|wire|logic|integer)\b[^;]*\b{re.escape(name)}\b[^;]*;\s*$",
        re.MULTILINE,
    )
    matches = list(pattern.finditer(code))
    if len(matches) >= 2:
        second = matches[1]
        return code[: second.start()] + code[second.end() :]
    if len(matches) == 1:
        # Port + net duplicate ('output reg q' plus 'reg q;').
        return code[: matches[0].start()] + code[matches[0].end() :]
    return None


#: C-style increment, decrement and compound-assignment patterns; each
#: can match only where its operator text occurs, so a substring test
#: skips the whole-source regex scan on the (usual) code without one.
_INCREMENT = re.compile(r"(\w+)\s*\+\+")
_DECREMENT = re.compile(r"(\w+)\s*--")
_COMPOUND = re.compile(r"(\w+)\s*([+\-*/]|<<|>>)=\s*")
_COMPOUND_OPS = ("+=", "-=", "*=", "/=", "<<=", ">>=")


def fix_c_style(code: str, error: ParsedError, rng: random.Random) -> Optional[str]:
    """Correct repair: expand ++/--/compound assignments."""
    inc = _INCREMENT.search(code) if "++" in code else None
    if inc:
        return code[: inc.start()] + f"{inc.group(1)} = {inc.group(1)} + 1" + code[inc.end() :]
    dec = _DECREMENT.search(code) if "--" in code else None
    if dec:
        return code[: dec.start()] + f"{dec.group(1)} = {dec.group(1)} - 1" + code[dec.end() :]
    compound = None
    if any(op in code for op in _COMPOUND_OPS):
        compound = _COMPOUND.search(code)
    if compound:
        name, op = compound.group(1), compound.group(2)
        return code[: compound.start()] + f"{name} = {name} {op} " + code[compound.end() :]
    return None


def fix_event_expr(code: str, error: ParsedError, rng: random.Random) -> Optional[str]:
    """Correct repair: restore a sane sensitivity list."""
    has_clk = re.search(r"\binput\s+(?:\[[^\]]+\]\s*)?clk\b", code) is not None
    if "@(posedge)" in code:
        return code.replace(
            "@(posedge)", "@(posedge clk)" if has_clk else "@(*)", 1
        )
    if "@()" in code:
        return code.replace("@()", "@(*)", 1)
    bare = re.search(r"\balways\s+(?!@)", code)
    if bare:
        ctrl = "@(posedge clk) " if has_clk and "<=" in code else "@(*) "
        return code[: bare.end()] + ctrl + code[bare.end() :]
    return None


_STRAY_DIGIT = re.compile(r"(\d+'[bdh][0-9a-fA-FxXzZ]*)([g-wyG-WY])")
_DOUBLED_ASSIGN = re.compile(r"(assign\s+[\w\[\]:]+\s*)==")


def fix_ambiguous_syntax(code: str, error: ParsedError, rng: random.Random) -> Optional[str]:
    """The hard case: a bare 'syntax error' (iverilog) or 'syntax error
    near text' (Quartus).  Try the usual suspects around the reported
    line."""
    line = error.line
    text = _line_text(code, line)
    # A malformed literal that split into number + stray identifier
    # (e.g. 8'hFg lexes as 8'hF then g).
    stray = _STRAY_DIGIT.search(code) if "'" in code else None
    if stray is not None:
        return code[: stray.start()] + stray.group(1) + code[stray.end() :]
    # Misspelled keywords.
    for wrong, right in (("asign", "assign"), ("modul ", "module "), ("begn", "begin")):
        if wrong in code:
            return code.replace(wrong, right, 1)
    # assign x == expr;
    doubled = _DOUBLED_ASSIGN.search(code) if "==" in code else None
    if doubled:
        return code[: doubled.end(1)] + "=" + code[doubled.end() :]
    # Missing semicolon on the previous line.
    if line is not None and line > 1:
        prev = _line_text(code, line - 1)
        if _needs_semi(prev):
            return _replace_line(code, line - 1, prev.rstrip() + ";")
    if _needs_semi(text):
        return _replace_line(code, line, text.rstrip() + ";")
    # C-style leftovers.
    fixed = fix_c_style(code, error, rng)
    if fixed is not None:
        return fixed
    return None


# ---------------------------------------------------------------------------
# Botched-path strategies: plausible but wrong edits.
# ---------------------------------------------------------------------------


def botch_undeclared(code: str, error: ParsedError, rng: random.Random) -> Optional[str]:
    """Botched repair: declare the missing clock as a dead internal reg."""
    name = error.details.get("name")
    if not name:
        return None
    # Declare the missing clock internally: compiles, never toggles.
    match = re.search(r"module[^;]*;", code, re.DOTALL)
    if match is None:
        return None
    return code[: match.end()] + f"\nreg {name};" + code[match.end() :]


def botch_index_range(code: str, error: ParsedError, rng: random.Random) -> Optional[str]:
    """Botched repair: clamp the index to zero regardless of intent."""
    name = error.details.get("name")
    index = error.details.get("index")
    if name is None or index is None:
        return None
    site = re.search(rf"{re.escape(name)}\s*\[\s*{index}\s*\]", code)
    if site is None:
        return None
    # "Fix" the index to zero regardless of intent.
    return code[: site.start()] + f"{name}[0]" + code[site.end() :]


def botch_delete_line(code: str, error: ParsedError, rng: random.Random) -> Optional[str]:
    """Botched repair: delete the offending line wholesale."""
    if error.line is None:
        return None
    lines = _lines(code)
    if not 1 <= error.line <= len(lines):
        return None
    if lines[error.line - 1].strip() in ("end", "endmodule", "begin"):
        return None
    del lines[error.line - 1]
    return "\n".join(lines)


def botch_event_expr(code: str, error: ParsedError, rng: random.Random) -> Optional[str]:
    """Botched repair: make clocked logic combinational."""
    # Turn the block combinational even though it is clocked logic.
    if "@(posedge)" in code:
        return code.replace("@(posedge)", "@(*)", 1)
    if "@()" in code:
        return code.replace("@()", "@(*)", 1)
    return None


def botch_c_style(code: str, error: ParsedError, rng: random.Random) -> Optional[str]:
    """Botched repair: neutralize the loop step (infinite loop)."""
    inc = _INCREMENT.search(code) if "++" in code else None
    if inc:
        # i++ -> i = i : compiles, loop never advances.
        return code[: inc.start()] + f"{inc.group(1)} = {inc.group(1)}" + code[inc.end() :]
    return None


#: category -> (correct strategy, botched strategy)
STRATEGIES = {
    ErrorCategory.UNDECLARED_ID: (fix_undeclared, botch_undeclared),
    ErrorCategory.INDEX_RANGE: (fix_index_range, botch_index_range),
    ErrorCategory.INVALID_LVALUE: (fix_invalid_lvalue, botch_delete_line),
    ErrorCategory.MISSING_SEMICOLON: (fix_missing_semicolon, botch_delete_line),
    ErrorCategory.UNBALANCED_BLOCK: (fix_unbalanced, botch_delete_line),
    ErrorCategory.BAD_LITERAL: (fix_bad_literal, botch_delete_line),
    ErrorCategory.PORT_MISMATCH: (fix_port_mismatch, botch_delete_line),
    ErrorCategory.DUPLICATE_DECL: (fix_duplicate, botch_delete_line),
    ErrorCategory.C_STYLE_SYNTAX: (fix_c_style, botch_c_style),
    ErrorCategory.EVENT_EXPR: (fix_event_expr, botch_event_expr),
    ErrorCategory.SYNTAX_NEAR: (fix_ambiguous_syntax, botch_delete_line),
}


def apply_strategy(
    code: str,
    error: ParsedError,
    rng: random.Random,
    botch: bool = False,
) -> Optional[str]:
    """Apply the (correct or botched) strategy for one parsed error.

    Returns the edited source, or None when the strategy does not apply
    to this code."""
    category = error.category or ErrorCategory.SYNTAX_NEAR
    if category not in STRATEGIES:  # warning-only categories
        category = ErrorCategory.SYNTAX_NEAR
    correct, botched = STRATEGIES[category]
    strategy = botched if botch else correct
    result = strategy(code, error, rng)
    if result == code:
        return None
    return result
