"""Source-text bookkeeping for the Verilog front-end.

A :class:`SourceFile` wraps raw Verilog text and provides line/column
resolution; a :class:`Span` points at a region of a file and is attached
to every token, AST node and diagnostic so that error messages can print
``file.v:12`` locations the way iverilog and Quartus do.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SourceFile:
    """A named piece of Verilog source text.

    The name is what appears in diagnostics (``main.v:5: error: ...``);
    it does not have to exist on disk.
    """

    name: str
    text: str
    _line_starts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        starts = [0]
        find = self.text.find
        newline = find("\n")
        while newline != -1:
            starts.append(newline + 1)
            newline = find("\n", newline + 1)
        object.__setattr__(self, "_line_starts", tuple(starts))

    @property
    def num_lines(self) -> int:
        return len(self._line_starts)

    def line_col(self, offset: int) -> tuple[int, int]:
        """Return 1-based (line, column) for a character offset."""
        offset = max(0, min(offset, len(self.text)))
        line = bisect.bisect_right(self._line_starts, offset) - 1
        return line + 1, offset - self._line_starts[line] + 1

    def line_text(self, line: int) -> str:
        """Return the text of a 1-based line number, without the newline."""
        if not 1 <= line <= self.num_lines:
            return ""
        start = self._line_starts[line - 1]
        end = self.text.find("\n", start)
        if end == -1:
            end = len(self.text)
        return self.text[start:end]


@dataclass(frozen=True, slots=True)
class Span:
    """A half-open [start, end) character range inside a source file."""

    file: SourceFile
    start: int
    end: int

    def __init__(self, file: SourceFile, start: int, end: int) -> None:
        # Frozen, so the fields go in through their slot descriptors:
        # under half the cost of the generated ``__init__``'s
        # ``object.__setattr__`` calls, and the lexer makes one per token.
        _SET_SPAN[0](self, file)
        _SET_SPAN[1](self, start)
        _SET_SPAN[2](self, end)

    @property
    def line(self) -> int:
        return self.file.line_col(self.start)[0]

    @property
    def text(self) -> str:
        return self.file.text[self.start : self.end]

    def to(self, other: "Span") -> "Span":
        """Smallest span covering both self and other (same file)."""
        start, other_start = self.start, other.start
        end, other_end = self.end, other.end
        return Span(
            self.file,
            start if start <= other_start else other_start,
            end if end >= other_end else other_end,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.file.name}:{self.line}"


_SET_SPAN = (Span.file.__set__, Span.start.__set__, Span.end.__set__)


def dummy_span(text: str = "", name: str = "<generated>") -> Span:
    """A span for synthesized constructs with no real source location."""
    f = SourceFile(name, text)
    return Span(f, 0, len(text))
