"""Diagnostic objects produced by the Verilog front-end.

A :class:`Diagnostic` is structured data (category + location + message
parameters); rendering to iverilog-flavoured or Quartus-flavoured text is
done by the style modules so the *same* underlying analysis can present
the two feedback-quality levels the paper ablates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .codes import ErrorCategory

if TYPE_CHECKING:  # runtime import would cycle through repro.verilog
    from ..verilog.source import Span


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """One front-end finding.

    ``args`` holds message parameters keyed by name, e.g.
    ``{"name": "clk"}`` for an undeclared identifier or
    ``{"index": -17, "range": "[255:0]", "name": "q"}`` for an
    out-of-range index.  Renderers interpolate them into flavour-specific
    templates.
    """

    category: ErrorCategory
    span: "Span | None"
    args: dict[str, object] = field(default_factory=dict)
    severity: Severity = Severity.ERROR

    @property
    def line(self) -> int | None:
        return self.span.line if self.span is not None else None

    @property
    def file_name(self) -> str | None:
        return self.span.file.name if self.span is not None else None

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        loc = f"{self.file_name}:{self.line}: " if self.span else ""
        return f"{loc}{self.severity.value}: {self.category.value} {self.args}"


def sort_key(diag: Diagnostic) -> tuple[int, int]:
    """Sort diagnostics by source position (no-span ones last)."""
    if diag.span is None:
        return (1 << 30, 0)
    return (diag.span.start, diag.span.end)
