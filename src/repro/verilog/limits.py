"""Resource limits for the compiler front-end.

The front-end parses *untrusted* input: every repair candidate an LLM
emits goes straight into the lexer → preprocessor → parser → elaborator
pipeline, and degenerate candidates (macro bombs, pathologically nested
expressions, megabytes of garbage) are a documented failure mode of LLM
repair loops.  :class:`ResourceLimits` bounds every dimension in which a
pathological input can consume unbounded work, and :class:`LimitTracker`
enforces those bounds *cooperatively* inside each pipeline stage: a
violation is reported once, through :meth:`LimitTracker.report_overflow`,
as an ordinary :class:`~repro.diagnostics.diagnostic.Diagnostic`
(category ``RESOURCE_LIMIT``) and the stage stops cleanly -- no budget
raises, so the compiler never crashes and never hangs, it just returns
feedback.

Two presets ship with the library:

* :data:`DEFAULT_LIMITS` -- generous bounds that no legitimate
  VerilogEval-scale design comes near, but that still cap adversarial
  input well under a second of work;
* :data:`FUZZ_LIMITS` -- tight bounds used by the built-in fuzzer
  (:mod:`repro.runtime.fuzz`) so a thousand pathological inputs compile
  in seconds.

These budgets bound the front-end only.  Every simulation budget, the
combinational settle bound included, is a
:class:`repro.sim.limits.SimLimits` field.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from ..diagnostics.codes import ErrorCategory
from ..diagnostics.diagnostic import Diagnostic
from .source import Span

#: Tracker budget kind -> the :class:`ResourceLimits` field that bounds it.
LIMIT_KINDS: dict[str, str] = {
    "source bytes": "max_source_bytes",
    "tokens": "max_tokens",
    "macro expansions": "max_macro_expansions",
    "macro nesting depth": "max_macro_depth",
    "include nesting depth": "max_include_depth",
    "parse nesting depth": "max_parse_depth",
    "elaborated instances": "max_elab_instances",
    "elaborated statements": "max_elab_statements",
}


@dataclass(frozen=True)
class ResourceLimits:
    """Bounds on the work one compiler invocation may perform.

    Every field caps one dimension of pathological input; all of them
    are enforced cooperatively (diagnostic + clean stop, never an
    exception escaping the front-end).  The defaults are sized so that
    no legitimate design in the reproduction's corpus is affected while
    adversarial inputs are cut off in well under a second.
    """

    #: Maximum UTF-8 size of the source text; larger inputs are rejected
    #: before lexing with a single diagnostic.
    max_source_bytes: int = 1_048_576
    #: Maximum number of tokens the lexer will produce.
    max_tokens: int = 262_144
    #: Total macro expansions per preprocessor run (defends against
    #: exponential `define fan-out, the classic macro bomb).
    max_macro_expansions: int = 4_096
    #: Maximum depth of nested macro bodies (a cycle is caught earlier
    #: and reported as a recursive-macro diagnostic).
    max_macro_depth: int = 32
    #: Maximum `include nesting depth (defends against self-includes).
    max_include_depth: int = 8
    #: Maximum recursion depth of the parser (expression/statement
    #: nesting); bounds AST depth for every downstream consumer too.
    max_parse_depth: int = 160
    #: Maximum module instances the elaborator will resolve.
    max_elab_instances: int = 2_048
    #: Maximum statements the elaborator will check.
    max_elab_statements: int = 65_536

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{spec.name} must be a positive int, got {value!r}")

    def limit_for(self, kind: str) -> int:
        """The numeric bound for a tracker budget ``kind``."""
        return int(getattr(self, LIMIT_KINDS[kind]))


#: Production defaults: generous for real designs, hard wall for bombs.
DEFAULT_LIMITS = ResourceLimits()

#: Tight limits for fuzzing: each pathological input is cut off almost
#: immediately, so thousands of iterations stay fast.
FUZZ_LIMITS = ResourceLimits(
    max_source_bytes=16_384,
    max_tokens=4_096,
    max_macro_expansions=256,
    max_macro_depth=8,
    max_include_depth=4,
    max_parse_depth=64,
    max_elab_instances=64,
    max_elab_statements=1_024,
)


@dataclass
class LimitTracker:
    """Mutable per-compile budget enforcement for :class:`ResourceLimits`.

    Pipeline stages call :meth:`charge` for each unit of work in a
    budgeted dimension (or :meth:`within` for an absolute depth); after
    an over-budget answer, :meth:`report_overflow` reports the violation
    exactly once per kind (stages may keep probing after exhaustion
    without spamming the sink).
    """

    limits: ResourceLimits = field(default_factory=lambda: DEFAULT_LIMITS)
    #: kind -> units consumed so far.
    spent: dict[str, int] = field(default_factory=dict)
    #: kinds whose violation has already been reported.
    reported: set = field(default_factory=set)

    def charge(self, kind: str, amount: int = 1) -> bool:
        """Consume ``amount`` units of ``kind``; False once over budget."""
        used = self.spent.get(kind, 0) + amount
        self.spent[kind] = used
        return used <= self.limits.limit_for(kind)

    def within(self, kind: str, value: int) -> bool:
        """Check an absolute ``value`` (e.g. a depth) against the bound
        without consuming budget."""
        return value <= self.limits.limit_for(kind)

    def report_overflow(self, kind: str, span: Span | None, sink) -> None:
        """Append ``kind``'s ``RESOURCE_LIMIT`` diagnostic to ``sink``,
        once per kind (later calls for the same kind append nothing).

        The one overflow-reporting path every stage shares: stages call
        this right after an over-budget :meth:`charge`/:meth:`within`,
        so there is no private limit path anywhere in the front-end.
        ``sink`` is the compile's diagnostic list.
        """
        if kind in self.reported:
            return
        self.reported.add(kind)
        sink.append(
            Diagnostic(
                ErrorCategory.RESOURCE_LIMIT,
                span,
                {"what": kind, "limit": self.limits.limit_for(kind)},
            )
        )
