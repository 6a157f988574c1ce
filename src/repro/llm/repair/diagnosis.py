"""Parsing compiler feedback *text* back into structured beliefs.

The simulated LLM never sees our internal Diagnostic objects -- only the
rendered log text, exactly like the real model in the paper.  This
module is the "reading comprehension" half of the repair model: how much
it can recover depends entirely on the feedback flavour, which is what
drives the feedback-quality ablation.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Optional

from ...diagnostics import QUARTUS_TAG_RE, QUARTUS_TAG_TO_CATEGORY, ErrorCategory


@dataclass(frozen=True)
class ParsedError:
    """One error the model believes is present."""

    category: Optional[ErrorCategory]
    line: Optional[int] = None
    #: Named details scraped from the message (signal names, indices...).
    details: dict = field(default_factory=dict)


_IVERILOG_LOCATION = re.compile(r"^\S+\.s?v:\d+:", re.MULTILINE)
_QUARTUS_ERROR = re.compile(
    r"Error \((\d+)\): Verilog HDL error at [^(]+\((\d+)\): (.*?) File:"
)


def detect_flavor(feedback: str) -> str:
    """Classify a feedback string as quartus / iverilog / simple."""
    if QUARTUS_TAG_RE.search(feedback):
        return "quartus"
    if _IVERILOG_LOCATION.search(feedback) or "I give up." in feedback:
        return "iverilog"
    return "simple"


def parse_feedback(feedback: str) -> list[ParsedError]:
    """Extract structured errors from a rendered compiler log."""
    return list(read_feedback(feedback)[1])


@functools.lru_cache(maxsize=16)
def read_feedback(feedback: str) -> tuple[str, tuple[ParsedError, ...]]:
    """``(detect_flavor(feedback), the errors parse_feedback finds)``.

    Memoized: a repair's logs recur across its turns and trial seeds,
    and a log always reads the same.  Callers share the errors, so they
    must not change them (or their ``details``)."""
    flavor = detect_flavor(feedback)
    if flavor == "quartus":
        return flavor, tuple(_parse_quartus(feedback))
    if flavor == "iverilog":
        return flavor, tuple(_parse_iverilog(feedback))
    return flavor, ()


def _parse_quartus(feedback: str) -> list[ParsedError]:
    out: list[ParsedError] = []
    for match in _QUARTUS_ERROR.finditer(feedback):
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


_IVERILOG_LINE = re.compile(r"\S+:(\d+):")


def _parse_iverilog(feedback: str) -> list[ParsedError]:
    out: list[ParsedError] = []
    for line_text in feedback.split("\n"):
        loc = _IVERILOG_LINE.match(line_text)
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


#: ``(detail, pattern, substring)`` scraped from a Quartus message
#: body, in order.  A pattern can match only where its substring
#: occurs, so the substring test skips the regex search on the messages
#: (most of them) that cannot match.
_SCRAPES = (
    ("index", re.compile(r"index (-?\d+)"), "index "),
    ("range", re.compile(r"declared range (\[[^\]]+\])"), "declared range ["),
    ("literal", re.compile(r"literal (\S+?)\."), "literal "),
    ("near", re.compile(r"near text (.+?)\."), "near text "),
    ("op", re.compile(r'operator "([^"]+)"'), 'operator "'),
    ("expected", re.compile(r'expecting "(\w+)"'), 'expecting "'),
    ("before", re.compile(r'missing ";" before (.+?)\.'), 'missing ";" before '),
)
_QUOTED = re.compile(r'"(\w+)"')


def _scrape(message: str) -> dict:
    """Pull names/indices out of a Quartus message body."""
    details: dict = {}
    quoted = _QUOTED.findall(message)
    if quoted:
        details["name"] = quoted[0]
        if "does not exist in module" in message and len(quoted) >= 2:
            details["port"] = quoted[0]
            details["module"] = quoted[1]
    for detail, pattern, substring in _SCRAPES:
        if substring in message:
            match = pattern.search(message)
            if match:
                details[detail] = match.group(1)
    if "index" in details:
        details["index"] = int(details["index"])
    return details
