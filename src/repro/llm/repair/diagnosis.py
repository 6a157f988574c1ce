"""Parsing compiler feedback *text* back into structured beliefs.

The simulated LLM never sees our internal Diagnostic objects -- only the
rendered log text, exactly like the real model in the paper.  This
module is the "reading comprehension" half of the repair model: how much
it can recover depends entirely on the feedback flavour, which is what
drives the feedback-quality ablation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from ...diagnostics import QUARTUS_TAG_TO_CATEGORY, ErrorCategory


@dataclass(frozen=True)
class ParsedError:
    """One error the model believes is present."""

    category: Optional[ErrorCategory]
    line: Optional[int] = None
    #: Named details scraped from the message (signal names, indices...).
    details: dict = field(default_factory=dict)


def detect_flavor(feedback: str) -> str:
    """Classify a feedback string as quartus / iverilog / simple."""
    if re.search(r"Error \(\d+\)", feedback):
        return "quartus"
    if re.search(r"^\S+\.s?v:\d+:", feedback, re.MULTILINE) or "I give up." in feedback:
        return "iverilog"
    return "simple"


def parse_feedback(feedback: str) -> list[ParsedError]:
    """Extract structured errors from a rendered compiler log."""
    flavor = detect_flavor(feedback)
    if flavor == "quartus":
        return _parse_quartus(feedback)
    if flavor == "iverilog":
        return _parse_iverilog(feedback)
    return []


def _parse_quartus(feedback: str) -> list[ParsedError]:
    out: list[ParsedError] = []
    pattern = re.compile(
        r"Error \((\d+)\): Verilog HDL error at [^(]+\((\d+)\): (.*?) File:"
    )
    for match in pattern.finditer(feedback):
        tag = int(match.group(1))
        line = int(match.group(2))
        message = match.group(3)
        category = QUARTUS_TAG_TO_CATEGORY.get(tag)
        out.append(
            ParsedError(category=category, line=line, details=_scrape(message))
        )
    return out


_IVERILOG_PATTERNS: list[tuple[re.Pattern, Optional[ErrorCategory]]] = [
    (re.compile(r"Unable to bind wire/reg/memory `(?P<name>\w+)'"),
     ErrorCategory.UNDECLARED_ID),
    (re.compile(r"Unknown module type: (?P<name>\w+)"),
     ErrorCategory.UNDECLARED_ID),
    (re.compile(r"Index (?P<name>\w+)\[(?P<index>-?\d+)\] is out of range"),
     ErrorCategory.INDEX_RANGE),
    (re.compile(r"(?P<name>\w+) is not a valid l-value"),
     ErrorCategory.INVALID_LVALUE),
    (re.compile(r"Malformed number: (?P<literal>\S+)"),
     ErrorCategory.BAD_LITERAL),
    (re.compile(r"port ``(?P<port>\w+)'' is not a port of (?P<module>\w+)"),
     ErrorCategory.PORT_MISMATCH),
    (re.compile(r"`(?P<name>\w+)' has already been declared"),
     ErrorCategory.DUPLICATE_DECL),
    (re.compile(r"syntax error"), None),  # ambiguous
]


def _parse_iverilog(feedback: str) -> list[ParsedError]:
    out: list[ParsedError] = []
    for line_text in feedback.split("\n"):
        loc = re.match(r"\S+:(\d+):", line_text)
        line = int(loc.group(1)) if loc else None
        for pattern, category in _IVERILOG_PATTERNS:
            match = pattern.search(line_text)
            if match is None:
                continue
            details = {k: v for k, v in match.groupdict().items() if v is not None}
            if "index" in details:
                details["index"] = int(details["index"])
            out.append(ParsedError(category=category, line=line, details=details))
            break
    return out


def _scrape(message: str) -> dict:
    """Pull names/indices out of a Quartus message body."""
    details: dict = {}
    quoted = re.findall(r'"(\w+)"', message)
    if quoted:
        details["name"] = quoted[0]
        if "does not exist in module" in message and len(quoted) >= 2:
            details["port"] = quoted[0]
            details["module"] = quoted[1]
    index = re.search(r"index (-?\d+)", message)
    if index:
        details["index"] = int(index.group(1))
    rng = re.search(r"declared range (\[[^\]]+\])", message)
    if rng:
        details["range"] = rng.group(1)
    literal = re.search(r"literal (\S+?)\.", message)
    if literal:
        details["literal"] = literal.group(1)
    near = re.search(r"near text (.+?)\.", message)
    if near:
        details["near"] = near.group(1)
    op = re.search(r'operator "([^"]+)"', message)
    if op:
        details["op"] = op.group(1)
    expected = re.search(r'expecting "(\w+)"', message)
    if expected:
        details["expected"] = expected.group(1)
    before = re.search(r'missing ";" before (.+?)\.', message)
    if before:
        details["before"] = before.group(1)
    return details
