"""Unified diagnostic engine: one sink for every compiler stage.

Before this module existed each front-end stage (preprocessor, lexer,
parser, elaborator) hand-wired its own diagnostic list, its own
``LimitTracker`` plumbing and its own slice of the crash boundary, and
the rendered log was assembled in a fourth place.  The
:class:`DiagnosticEngine` collapses those paths into a single object
that every stage reports into:

* **stage provenance** -- each diagnostic is recorded together with the
  stage that emitted it (``driver``/``preprocess``/``lex``/``parse``/
  ``elaborate``/``render``), queryable via :meth:`DiagnosticEngine.records`
  and :meth:`DiagnosticEngine.stages_for`;
* **escalation** -- cooperative limit violations
  (:meth:`~DiagnosticEngine.limit_violation`) and unexpected crashes
  (:meth:`~DiagnosticEngine.internal_error`, which also sets the
  ``crashed`` flag) funnel through the same sink as ordinary
  diagnostics, so ``RESOURCE_LIMIT``/``INTERNAL`` handling lives in one
  place;
* **rendering** -- :func:`render_log` is the single
  iverilog/Quartus/simple renderer entry point (with the never-crash
  fallback), used by :class:`~repro.diagnostics.compiler.CompileResult`.

The engine deliberately does *not* import anything from
``repro.verilog``: trackers and spans are passed in by the stages, so
the diagnostics package stays import-cycle-free.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from . import iverilog_style, quartus_style
from .codes import ErrorCategory
from .diagnostic import Diagnostic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .compiler import CompileResult

#: The fixed instruction used as "feedback" at the lowest quality level
#: (paper §4.3.1: "Correct the syntax error in the code.").
SIMPLE_FEEDBACK = "Correct the syntax error in the code."

#: Canonical stage names, in pipeline order.  ``driver`` covers work
#: done by the orchestrator itself (e.g. the source-size admission
#: check); ``render`` exists for provenance symmetry -- rendering
#: happens lazily on :class:`~repro.diagnostics.compiler.CompileResult`.
STAGES = ("driver", "preprocess", "lex", "parse", "elaborate", "render")


def dedup_key(diag: Diagnostic) -> tuple:
    """The identity under which duplicate diagnostics are merged.

    Category + span start + stringified args: two stages (or one stage
    re-probing after error recovery) reporting the same problem at the
    same location collapse to the first occurrence.
    """
    return (
        diag.category,
        diag.span.start if diag.span else None,
        tuple(sorted((k, str(v)) for k, v in diag.args.items())),
    )


def dedup_diagnostics(diagnostics: Iterable[Diagnostic]) -> list[Diagnostic]:
    """Drop duplicate diagnostics, preserving first-occurrence order."""
    seen: set[tuple] = set()
    out: list[Diagnostic] = []
    for diag in diagnostics:
        key = dedup_key(diag)
        if key in seen:
            continue
        seen.add(key)
        out.append(diag)
    return out


def render_log(result: "CompileResult") -> str:
    """Render the agent-facing feedback text for ``result``.

    The single renderer entry point for every flavour; the never-crash
    contract extends here, so a renderer bug degrades to a one-line
    internal-error message instead of an exception.
    """
    if result.ok:
        return ""
    if result.flavor == "simple":
        return SIMPLE_FEEDBACK
    try:
        if result.flavor == "iverilog":
            return iverilog_style.render(result.diagnostics)
        return quartus_style.render(result.diagnostics)
    except Exception:  # never-crash contract extends to rendering
        name = result.source.name if result.source is not None else "main.v"
        return f"{name}:0: internal error: diagnostic rendering failed"


class StageSink(list):
    """A stage-scoped diagnostic sink.

    Behaves exactly like the plain ``list[Diagnostic]`` sinks the stages
    historically accepted (append/extend/len/bool), but every diagnostic
    appended is *also* recorded on the owning :class:`DiagnosticEngine`
    with this sink's stage name -- stages keep their simple list-style
    interface while the engine gains provenance.
    """

    def __init__(self, engine: "DiagnosticEngine", stage: str):
        super().__init__()
        self.engine = engine
        self.stage = stage

    def append(self, diag: Diagnostic) -> None:
        """Record ``diag`` locally and on the engine (with provenance)."""
        super().append(diag)
        self.engine._record(self.stage, diag)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        """Append every diagnostic in ``diags``."""
        for diag in diags:
            self.append(diag)


class DiagnosticEngine:
    """Collects every stage's diagnostics with provenance.

    One engine is created per compile.  Stages obtain a list-compatible
    sink via :meth:`sink` (or the driver forwards pre-collected
    diagnostics via :meth:`extend`); cooperative limit violations and
    crash escalation go through :meth:`limit_violation` /
    :meth:`internal_error`; :meth:`result` assembles the final deduped
    :class:`~repro.diagnostics.compiler.CompileResult`.
    """

    def __init__(self) -> None:
        #: ``(stage, diagnostic)`` in emission order.
        self._records: list[tuple[str, Diagnostic]] = []
        #: set by :meth:`internal_error`; mirrored onto the result.
        self.crashed = False
        self._stage_stack: list[str] = ["driver"]
        #: the stage whose :meth:`stage` block an exception escaped from
        #: (crash provenance survives the context-manager unwind).
        self.failed_stage: Optional[str] = None

    # -- recording ----------------------------------------------------

    def _record(self, stage: str, diag: Diagnostic) -> None:
        self._records.append((stage, diag))

    def sink(self, stage: str) -> StageSink:
        """A fresh list-compatible sink attributing appends to ``stage``."""
        return StageSink(self, stage)

    def emit(self, stage: str, diag: Diagnostic) -> None:
        """Record a single diagnostic under ``stage``."""
        self._record(stage, diag)

    def extend(self, stage: str, diags: Iterable[Diagnostic]) -> None:
        """Record pre-collected diagnostics under ``stage``, in order."""
        for diag in diags:
            self._record(stage, diag)

    # -- stage bookkeeping --------------------------------------------

    @property
    def current_stage(self) -> str:
        """The innermost active :meth:`stage` block (``driver`` at rest)."""
        return self._stage_stack[-1]

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Mark ``name`` as the active stage for the block.

        If an exception escapes the block, the stage is remembered in
        :attr:`failed_stage` so the crash boundary can attribute the
        ``RESOURCE_LIMIT``/``INTERNAL`` diagnostic to the stage that
        actually failed (the stack itself unwinds with the exception).
        """
        self._stage_stack.append(name)
        try:
            yield
        except BaseException:
            self.failed_stage = name
            raise
        finally:
            self._stage_stack.pop()

    # -- inspection ---------------------------------------------------

    @property
    def empty(self) -> bool:
        """True when no diagnostic has been recorded yet."""
        return not self._records

    @property
    def records(self) -> list[tuple[str, Diagnostic]]:
        """``(stage, diagnostic)`` pairs in emission order (a copy)."""
        return list(self._records)

    def stages_for(self, category: ErrorCategory) -> list[str]:
        """Stages that emitted at least one ``category`` diagnostic."""
        seen: list[str] = []
        for stage, diag in self._records:
            if diag.category is category and stage not in seen:
                seen.append(stage)
        return seen

    def diagnostics(self) -> list[Diagnostic]:
        """All recorded diagnostics, deduplicated, in emission order."""
        return dedup_diagnostics(diag for _, diag in self._records)

    # -- escalation ---------------------------------------------------

    def _escalation_stage(self, stage: Optional[str]) -> str:
        if stage is not None:
            return stage
        if self.failed_stage is not None:
            return self.failed_stage
        return self.current_stage

    def limit_violation(self, exc, span, stage: Optional[str] = None) -> None:
        """Record a cooperative :class:`~repro.errors.ResourceLimitExceeded`
        unwind as an ordinary ``RESOURCE_LIMIT`` diagnostic (not a crash)."""
        self.emit(
            self._escalation_stage(stage),
            Diagnostic(
                ErrorCategory.RESOURCE_LIMIT, span,
                {"what": exc.kind, "limit": exc.limit},
            ),
        )

    def internal_error(self, exc: BaseException, span,
                       stage: Optional[str] = None) -> None:
        """Record an unexpected crash as an ``INTERNAL`` diagnostic and
        flip :attr:`crashed` -- the never-crash boundary in one place."""
        detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        self.emit(
            self._escalation_stage(stage),
            Diagnostic(ErrorCategory.INTERNAL, span, {"detail": detail}),
        )
        self.crashed = True

    # -- assembly -----------------------------------------------------

    def result(self, source, flavor, design=None, elaborated=None) -> "CompileResult":
        """Assemble the final :class:`~repro.diagnostics.compiler.CompileResult`
        from everything recorded so far (deduplicated, crash flag carried)."""
        from .compiler import CompileResult
        from .diagnostic import Severity

        diagnostics = self.diagnostics()
        if (
            elaborated is not None
            and getattr(elaborated, "digest", None) is None
            and not self.crashed
            and not any(d.severity is Severity.ERROR for d in diagnostics)
        ):
            # Stamp the design's content identity.  Every compile
            # converges here, and only error-free elaborations get a
            # digest: with no errors, elaboration is a pure function of the
            # preprocessed text, so the digest is a sound cache key for
            # anything derived from the design (compiled simulators,
            # testbench verdicts).  Error-bearing results may be
            # partially elaborated under resource limits and stay
            # ``None`` = uncacheable.
            import hashlib

            text = getattr(source, "text", None)
            if isinstance(text, str):
                elaborated.digest = hashlib.sha256(
                    text.encode("utf-8", "surrogatepass")
                ).hexdigest()

        return CompileResult(
            source=source,
            flavor=flavor,
            diagnostics=diagnostics,
            design=design,
            elaborated=elaborated,
            crashed=self.crashed,
        )
