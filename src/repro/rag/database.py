"""The human-expert-guidance retrieval database (paper §3.3).

Each :class:`GuidanceEntry` pairs a compiler-log pattern with a human
explanation and a demonstration of the fix, categorized by the error
taxonomy.  Entries are keyed the way the paper keys them: by compiler
error tags ("we opted for an exact match to error tags for simplicity"),
with fuzzy / Jaccard / vector-ish retrievers also provided for the
ablation.

The database is a non-parametric external memory: new entries can be
added as new struggle cases are curated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..diagnostics import ErrorCategory
from ..errors import RetrievalError


@dataclass(frozen=True)
class GuidanceEntry:
    """One curated entry: compiler log sample + human expert guidance."""

    category: ErrorCategory
    compiler: str  # "iverilog" | "quartus"
    #: A representative compiler log line for this error.
    log_pattern: str
    #: The human expert's explanation / instruction.
    guidance: str
    #: A short demonstration of the repair (before -> after style).
    demonstration: str = ""


@dataclass
class GuidanceDatabase:
    """The retrieval store; entries are grouped per compiler flavour."""

    entries: list[GuidanceEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def add(self, entry: GuidanceEntry) -> None:
        self.entries.append(entry)

    def for_compiler(self, compiler: str) -> list[GuidanceEntry]:
        if compiler not in ("iverilog", "quartus"):
            raise RetrievalError(f"unknown compiler flavour {compiler!r}")
        return [e for e in self.entries if e.compiler == compiler]

    def categories(self, compiler: str) -> list[ErrorCategory]:
        seen: list[ErrorCategory] = []
        for entry in self.for_compiler(compiler):
            if entry.category not in seen:
                seen.append(entry.category)
        return seen
