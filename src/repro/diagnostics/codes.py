"""Error catalog for the Verilog front-end.

The paper's RAG database is keyed by *compiler error categories*: it
collects "7 common error categories ... for iverilog and 11 common error
categories ... for Quartus".  We reproduce that asymmetry structurally:

* every diagnostic carries an :class:`ErrorCategory`;
* the Quartus-style renderer exposes all 11 categories through stable
  numeric tags (``Error (10161): ...``), like the real tool;
* the iverilog-style renderer only *distinguishes* 7 of them -- the rest
  collapse into a terse generic ``syntax error`` (occasionally the
  infamous ``I give up.``), exactly the ambiguity the paper describes.

Numeric tags match real Quartus codes where those are documented
(10161 undeclared object, 10232 index out of range, 10170 syntax near);
the remainder are stable synthetic tags in the same numbering style.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass


class ErrorCategory(enum.Enum):
    """Syntax/semantic error classes covered by the dataset and RAG DB."""

    UNDECLARED_ID = "undeclared-identifier"
    INDEX_RANGE = "index-out-of-range"
    INVALID_LVALUE = "invalid-lvalue"
    SYNTAX_NEAR = "syntax-error-near"
    BAD_LITERAL = "malformed-literal"
    PORT_MISMATCH = "port-mismatch"
    DUPLICATE_DECL = "duplicate-declaration"
    MISSING_SEMICOLON = "missing-semicolon"
    UNBALANCED_BLOCK = "unbalanced-block"
    C_STYLE_SYNTAX = "c-style-syntax"
    EVENT_EXPR = "bad-event-expression"
    #: Warning-severity finding (not part of the 7/11 error taxonomy).
    WIDTH_TRUNCATION = "width-truncation"
    #: A ResourceLimits budget ran out (outside the paper's taxonomy:
    #: these never occur in the curated dataset, only on degenerate
    #: LLM-generated input).
    RESOURCE_LIMIT = "resource-limit"
    #: The front-end itself failed; the crash was converted into
    #: feedback at the compile_source boundary (outside the taxonomy).
    INTERNAL = "internal-error"


@dataclass(frozen=True)
class CategoryInfo:
    """Renderer-facing metadata for one error category."""

    category: ErrorCategory
    quartus_tag: int
    #: True if the iverilog-style renderer produces a message specific
    #: enough to identify the category; False means it collapses into a
    #: generic "syntax error" (the terse/ambiguous cases from the paper).
    iverilog_distinct: bool
    #: True for warning-severity findings: excluded from the error
    #: taxonomy counts the RAG database is keyed on.
    is_warning: bool = False
    #: False for robustness categories (resource limits, internal
    #: errors): real errors, but outside the paper's 7/11 taxonomy --
    #: they never occur in the curated dataset, only on degenerate
    #: input, so they must not shift the taxonomy counts.
    in_taxonomy: bool = True


_CATALOG: tuple[CategoryInfo, ...] = (
    CategoryInfo(ErrorCategory.UNDECLARED_ID, 10161, True),
    CategoryInfo(ErrorCategory.INDEX_RANGE, 10232, True),
    CategoryInfo(ErrorCategory.INVALID_LVALUE, 10137, True),
    CategoryInfo(ErrorCategory.SYNTAX_NEAR, 10170, True),
    CategoryInfo(ErrorCategory.BAD_LITERAL, 10112, True),
    CategoryInfo(ErrorCategory.PORT_MISMATCH, 10344, True),
    CategoryInfo(ErrorCategory.DUPLICATE_DECL, 10028, True),
    CategoryInfo(ErrorCategory.MISSING_SEMICOLON, 10201, False),
    CategoryInfo(ErrorCategory.UNBALANCED_BLOCK, 10759, False),
    CategoryInfo(ErrorCategory.C_STYLE_SYNTAX, 10173, False),
    CategoryInfo(ErrorCategory.EVENT_EXPR, 10216, False),
    CategoryInfo(ErrorCategory.WIDTH_TRUNCATION, 10230, True, is_warning=True),
    CategoryInfo(ErrorCategory.RESOURCE_LIMIT, 10905, True, in_taxonomy=False),
    CategoryInfo(ErrorCategory.INTERNAL, 293001, True, in_taxonomy=False),
)

CATALOG: dict[ErrorCategory, CategoryInfo] = {info.category: info for info in _CATALOG}

#: Categories the iverilog renderer can identify (7, as in the paper;
#: warnings are not part of the taxonomy).
IVERILOG_CATEGORIES: tuple[ErrorCategory, ...] = tuple(
    info.category for info in _CATALOG
    if info.iverilog_distinct and not info.is_warning and info.in_taxonomy
)

#: All error categories, identifiable from Quartus tags (11, as in the
#: paper).
QUARTUS_CATEGORIES: tuple[ErrorCategory, ...] = tuple(
    info.category for info in _CATALOG
    if not info.is_warning and info.in_taxonomy
)

QUARTUS_TAG_TO_CATEGORY: dict[int, ErrorCategory] = {
    info.quartus_tag: info.category for info in _CATALOG
}

#: A tag as a Quartus log prints it, ``Error (10161)``; group 1 is the
#: number.
QUARTUS_TAG_RE = re.compile(r"Error \((\d+)\)")


def quartus_tag(category: ErrorCategory) -> int:
    """The stable numeric Quartus tag for a category."""
    return CATALOG[category].quartus_tag
